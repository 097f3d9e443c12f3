"""Knill-Laflamme verification, distance measurement, stabilizer checks.

The fixture codes are built from their published generator groups; the
numeric verifier is the oracle the symbolic one must agree with.
"""
import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixedqec.algebra import (
    ModVec, PHASE_MINUS_ONE, PHASE_ONE, Phase, phase_mul,
)
from mixedqec.certificates import (
    _stabilizer_rows, base_stabilizer_rows, build_code, certify, load_certificate,
    verify_certificate,
)
from mixedqec.cli import _default_fixture_dir
from mixedqec.errors import (
    ErrorWord, MixedSystem, apply_error, count_errors, format_word, in_support_order,
    support_rows, supports, weight, word_from_row, word_radices,
)
from mixedqec.graphs import WeightedGraph, loop_graph
from mixedqec.clique import (
    CodingClique, check_clique, closure, covered_differences, search_clique,
)
from mixedqec.compose import clique_stabilizer_rows, paste_distance2, product_code
from mixedqec.verifier import (
    Code, StabilizerRow, _KLReducer, _SupportScan, _Tableau, _project_columns,
    code_distance, kl_verify_numeric, kl_verify_symbolic, kl_verify_words,
    parse_stabilizer_row, stabilizer_eigenbasis, verify_stabilizer,
)
from oracles import (
    dot_mod, enumerate_errors, error_matrix, graph_action, omega, pair_sums_reference,
    with_phases,
)

L3 = loop_graph(3, 2)
L4 = loop_graph(4, 2)
L5 = loop_graph(5, 2)
L6 = loop_graph(6, 2)


def l3_pair_labels():
    """Every label pair on (L3, L3), in lexicographic order."""
    space = [ModVec(2, e) for e in itertools.product(range(2), repeat=3)]
    return list(itertools.product(space, space))


def vec(m, *entries):
    return ModVec.of(m, entries)


def clique_342():
    gens = [
        (vec(2, 1, 0, 0), vec(2, 0, 1, 0)),
        (vec(2, 0, 1, 0), vec(2, 0, 0, 1)),
    ]
    return CodingClique(graphs=(L3, L3), d=2, vectors=closure(gens))


def clique_6163():
    gens = [
        (vec(2, 1, 0, 0, 1, 0, 0), vec(2, 0, 0, 1, 1, 0, 1)),
        (vec(2, 0, 1, 0, 0, 1, 0), vec(2, 0, 0, 1, 0, 1, 1)),
        (vec(2, 0, 0, 1, 1, 0, 1), vec(2, 1, 0, 1, 0, 0, 1)),
        (vec(2, 0, 0, 0, 1, 1, 0), vec(2, 1, 1, 0, 0, 0, 0)),
    ]
    return CodingClique(graphs=(L6, L6), d=3, vectors=closure(gens))


def clique_683():
    gens = [
        (vec(2, 1, 0, 0, 0, 0, 0), vec(2, 1, 1, 1, 1, 1)),
        (vec(2, 0, 1, 1, 1, 1, 0), vec(2, 1, 0, 0, 0, 0)),
        (vec(2, 0, 0, 0, 0, 1, 1), vec(2, 0, 1, 0, 1, 0)),
    ]
    return CodingClique(graphs=(L6, L5), d=3, vectors=closure(gens))


def clique_643():
    gens = [
        (vec(2, 1, 1, 1, 0, 1, 0), vec(2, 0, 1, 0, 1)),
        (vec(2, 0, 1, 1, 1, 0, 1), vec(2, 1, 0, 1, 0)),
    ]
    return CodingClique(graphs=(L6, L4), d=3, vectors=closure(gens))


def clique_382():
    gens = [
        (vec(2, 1, 0, 0), vec(2, 0, 1, 0), vec(2, 0, 0, 0)),
        (vec(2, 0, 1, 0), vec(2, 0, 0, 0), vec(2, 0, 0, 1)),
        (vec(2, 0, 0, 0), vec(2, 0, 0, 1), vec(2, 0, 1, 0)),
    ]
    return CodingClique(graphs=(L3, L3, L3), d=2, vectors=closure(gens))


STAB_ROWS_6163 = [
    ("XZZXZZ", "XZIIIZ"),
    ("ZXZZXZ", "ZXZIII"),
    ("ZZXZZX", "IIIIII"),
    ("IIIIII", "ZZXZZX"),
    ("XZIIIZ", "IIZXZI"),
    ("ZXZIII", "IIIZXZ"),
    ("IZXZII", "YYZIIZ"),
    ("YXYZIZ", "IZXZII"),
]


class TestSymbolic:
    def test_3_4_2_passes(self):
        rep = kl_verify_symbolic(Code.from_clique(clique_342()))
        assert rep.ok and rep.checked_errors == 45

    def test_6_8_3_passes(self):
        rep = kl_verify_symbolic(Code.from_clique(clique_683()))
        assert rep.ok

    def test_6_4_3_passes(self):
        rep = kl_verify_symbolic(Code.from_clique(clique_643()))
        assert rep.ok

    def test_three_layer_3_8_2_passes(self):
        rep = kl_verify_symbolic(Code.from_clique(clique_382()))
        assert rep.ok

    def test_corrupted_vector_fails_with_witness(self):
        good = clique_342()
        vecs = list(good.vectors)
        # replace the last nonzero vector by a near miss that collides
        vecs[-1] = (vec(2, 1, 0, 0), vec(2, 0, 0, 0))
        bad = CodingClique(graphs=(L3, L3), d=2, vectors=tuple(vecs))
        rep = kl_verify_symbolic(Code.from_clique(bad))
        assert not rep.ok
        assert rep.witness is not None
        assert rep.witness["kind"] in ("diagonal", "offdiagonal")

    def test_needs_clique_form(self):
        sys = MixedSystem(((2,), (2,)))
        c = Code.from_basis(sys, np.eye(4), d=1)
        with pytest.raises(ValueError):
            kl_verify_symbolic(c)

    def test_report_json_keys(self):
        js = kl_verify_symbolic(Code.from_clique(clique_342())).to_json()
        assert js["verdict"] == "pass"
        assert js["mode"] == "symbolic"
        assert "checked_errors" in js and "f_values_summary" in js


class TestNumeric:
    def test_3_4_2_passes(self):
        rep = kl_verify_numeric(Code.from_clique(clique_342()))
        assert rep.ok
        assert rep.max_deviation < 1e-9
        assert rep.checked_errors == 45

    def test_6_16_3_passes(self):
        rep = kl_verify_numeric(Code.from_clique(clique_6163()))
        assert rep.ok and rep.checked_errors == 3465
        assert rep.max_deviation < 1e-9

    def test_random_subspace_fails(self):
        rng = np.random.default_rng(7)
        sys = MixedSystem((((2, 2),) * 3))
        g = rng.normal(size=(64, 4)) + 1j * rng.normal(size=(64, 4))
        q, _ = np.linalg.qr(g)
        rep = kl_verify_numeric(Code.from_basis(sys, q[:, :4], d=2))
        assert not rep.ok
        assert rep.witness is not None and rep.witness["deviation"] > 1e-9

    def test_f_values_bounded(self):
        rep = kl_verify_numeric(Code.from_clique(clique_342()))
        assert rep.f_summary["max_abs_f"] <= 1 + 1e-9


class TestAgreement:
    def test_fixture_codes(self):
        for cl in (clique_342(), clique_683(), clique_643(), clique_382()):
            code = Code.from_clique(cl)
            a = kl_verify_symbolic(code)
            b = kl_verify_numeric(code)
            assert a.ok == b.ok == True
            assert a.checked_errors == b.checked_errors

    def test_randomized_cliques(self):
        # random distinct vector sets (any such set spans an orthonormal
        # basis) must get the same verdict from both verifiers
        rnd = random.Random(20250819)
        pool = l3_pair_labels()
        disagreements = []
        for trial in range(25):
            picks = rnd.sample(pool[1:], 3)
            vecs = (pool[0],) + tuple(picks)
            cl = CodingClique(graphs=(L3, L3), d=2, vectors=vecs)
            code = Code.from_clique(cl)
            a = kl_verify_symbolic(code)
            b = kl_verify_numeric(code)
            if a.ok != b.ok:
                disagreements.append((trial, a.ok, b.ok))
        assert not disagreements

    def test_check_clique_implies_symbolic_pass(self):
        # the clique conditions are exactly the KL conditions
        rnd = random.Random(99)
        pool = l3_pair_labels()
        seen_pass = 0
        for _ in range(40):
            picks = rnd.sample(pool[1:], 3)
            cl = CodingClique(graphs=(L3, L3), d=2,
                             vectors=(pool[0],) + tuple(picks))
            if check_clique(cl).ok:
                seen_pass += 1
                assert kl_verify_symbolic(Code.from_clique(cl)).ok


class TestDistanceRange:
    # every check enumerates its errors through errors.supports, which
    # rejects a distance above n + 1 = 4 in terms of d
    @pytest.mark.parametrize("check", [
        pytest.param(lambda cl, d: kl_verify_numeric(Code.from_clique(cl), d),
                     id="kl_verify_numeric"),
        pytest.param(lambda cl, d: kl_verify_symbolic(Code.from_clique(cl), d),
                     id="kl_verify_symbolic"),
        pytest.param(lambda cl, d: search_clique(cl.graphs, d, target_K=4),
                     id="search_clique"),
        pytest.param(lambda cl, d: covered_differences(cl.graphs, d),
                     id="covered_differences"),
        pytest.param(lambda cl, d: check_clique(CodingClique(cl.graphs, d, cl.vectors)),
                     id="check_clique"),
        pytest.param(lambda cl, d: count_errors(cl.system(), d - 1), id="count_errors"),
        pytest.param(lambda cl, d: list(enumerate_errors(cl.system(), d - 1)),
                     id="enumerate_errors"),
    ])
    @pytest.mark.parametrize("d", [5, 9])
    def test_d_above_n_plus_1_rejected(self, check, d):
        with pytest.raises(ValueError, match=rf"d = {d} .*n \+ 1 = 4"):
            check(clique_342(), d)


class TestDistance:
    def test_3_4_2_distance_2(self):
        assert code_distance(Code.from_clique(clique_342())) == 2

    def test_full_space_distance_1(self):
        sys = MixedSystem(((2,), (2,)))
        c = Code.from_basis(sys, np.eye(4), d=1)
        assert code_distance(c) == 1

    def test_cap_marker(self):
        code = Code.from_clique(clique_342())
        assert code_distance(code, w_cap=1) == 2  # no weight-1 failure

    def test_identity_is_not_an_error(self):
        # one column 1e-12 longer: B^dag B deviates from a scalar by about
        # 2e-12 > tol, but the identity is no error, and every word of
        # weight 1 still deviates by far less than tol
        code = Code.from_clique(clique_342())
        B = code.basis().copy()
        B[:, 0] *= 1 + 1e-12
        assert code_distance(Code.from_basis(code.system, B, 2), tol=1e-13) == 2


class TestTolerance:
    # no deviation exceeds a NaN or infinite tolerance, so a check taking
    # one would pass any code; 0 or below would fail exact codes
    ENTRY_POINTS = {
        "kl_verify_numeric": lambda c, code, rows, tol: kl_verify_numeric(code, 3, tol=tol),
        "code_distance": lambda c, code, rows, tol: code_distance(code, tol=tol),
        "kl_verify_words": lambda c, code, rows, tol: kl_verify_words(code, [], tol=tol),
        "verify_stabilizer": lambda c, code, rows, tol: verify_stabilizer(rows, code, tol=tol),
        "paste_distance2": lambda c, code, rows, tol: paste_distance2(rows, code, 1, 2,
                                                                       tol=tol),
        "verify_certificate": lambda c, code, rows, tol: verify_certificate(c, FIXTURE_DIR,
                                                                             tol=tol),
        "certify": lambda c, code, rows, tol: certify(
            "p", 2, {"type": "product", "refs": ["3_4_2_q4.json", "3_4_2_q4.json"]},
            FIXTURE_DIR, tol=tol),
    }

    @staticmethod
    def fixture():
        cert = load_certificate(FIXTURE_DIR / "3_4_2_q4.json")
        code = build_code(cert, FIXTURE_DIR)
        return cert, code, base_stabilizer_rows(cert, code)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_not_finite_or_not_positive_rejected(self, entry, tol):
        with pytest.raises(ValueError, match="finite number > 0"):
            self.ENTRY_POINTS[entry](*self.fixture(), tol)

    def test_default_tolerance_finds_the_failure(self):
        # the distance-2 code fails at weight 2, the check a NaN would pass
        _, code, _ = self.fixture()
        assert not kl_verify_numeric(code, 3).ok
        assert code_distance(code) == 2


class TestStabilizer:
    def test_eight_rows_match_6_16_3(self):
        code = Code.from_clique(clique_6163())
        rows = [parse_stabilizer_row(code.system, t) for t in STAB_ROWS_6163]
        rep = verify_stabilizer(rows, code)
        assert rep.ok and rep.commuting
        assert rep.eigenspace_dim == 16.0
        assert rep.projector_diff < 1e-9
        assert rep.chosen_phases.count(PHASE_ONE) == 7
        assert rep.chosen_phases[7] == PHASE_MINUS_ONE

    def test_eigenbasis_spans_code(self):
        code = Code.from_clique(clique_6163())
        rows = [parse_stabilizer_row(code.system, t) for t in STAB_ROWS_6163]
        rep = verify_stabilizer(rows, code)
        basis = eigenbasis(code.system, with_phases(rows, rep.chosen_phases))
        assert basis.shape == (4096, 16)
        sv = np.linalg.svd(code.basis().conj().T @ basis, compute_uv=False)
        assert np.allclose(sv, 1.0, atol=1e-9)

    def test_single_z_on_full_space_halves(self):
        sys = MixedSystem(((2,), (2,)))
        c = Code.from_basis(sys, np.eye(4), d=1)
        row = parse_stabilizer_row(sys, ("ZI",))
        rep = verify_stabilizer([row], c)
        assert not rep.ok
        assert rep.eigenspace_dim == 2.0

    def test_missing_row_leaves_eigenspace_too_large(self):
        # without its last row the clique's rows fix an 8-dimensional
        # space around the 4 codewords, while each row is still +1 on them
        code = Code.from_clique(clique_342())
        rows = clique_stabilizer_rows(code.clique)[:-1]
        rep = verify_stabilizer(rows, code)
        assert not rep.ok and rep.commuting
        assert rep.witness == {"eigenspace_dim": 8.0, "projector_diff": 2.0}

    def test_noncommuting_rows_reported(self):
        sys = MixedSystem(((2,), (2,)))
        c = Code.from_basis(sys, np.eye(4), d=1)
        rows = [parse_stabilizer_row(sys, ("XI",)),
                parse_stabilizer_row(sys, ("ZI",))]
        rep = verify_stabilizer(rows, c)
        assert not rep.ok and not rep.commuting
        assert rep.witness == {"noncommuting_pair": [0, 1]}
        with pytest.raises(ValueError):
            stabilizer_eigenbasis(sys, rows)

    def test_commuting_is_exact(self):
        sys = MixedSystem(((3,), (3,)))
        a = parse_stabilizer_row(sys, ("XI",)).word
        b = parse_stabilizer_row(sys, ("ZI",)).word
        c = parse_stabilizer_row(sys, ("IZ",)).word
        C = _Tableau(sys, [a, b, c]).commutators()
        assert C[0, 1] != 0  # a and b do not commute
        assert C[0, 2] == 0

    def test_parse_rejects_y_on_qutrit(self):
        sys = MixedSystem(((3,), (3,)))
        with pytest.raises(ValueError):
            parse_stabilizer_row(sys, ("YI",))

    def test_parse_rejects_unknown_symbol(self):
        sys = MixedSystem(((2,), (2,)))
        with pytest.raises(ValueError):
            parse_stabilizer_row(sys, ("QA",))

    def test_report_json(self):
        code = Code.from_clique(clique_342())
        sys = code.system
        rows = [parse_stabilizer_row(sys, ("ZZZ", "III"))]
        rep = verify_stabilizer(rows, code)
        js = rep.to_json()
        assert set(js) >= {"verdict", "commuting", "row_orders",
                           "chosen_phases", "eigenspace_dim"}


def error_json(sys, e):
    out = {"x": [list(xi) for xi in e.x], "z": [list(zi) for zi in e.z]}
    if sys.layers is not None and sys.n <= 9:
        out["notation"] = format_word(sys, e)
    return out


# --- oracle for the symbolic check ------------------------------------------


def symbolic_oracle(code, d):
    """The symbolic KL report one error at a time in ModVec arithmetic:
    reduce the error on every layer, then look its phase shift up among
    the pairwise differences, or compare the diagonal phases."""
    cl, sys = code.clique, code.system

    def layer(digits, l):
        m, nl = sys.layers[l]
        return ModVec(m, tuple(digits[i][l] for i in range(nl)))

    def phase(ss, cs):
        ph = PHASE_ONE
        for s, c in zip(ss, cs):
            ph = phase_mul(ph, omega(s.m, dot_mod(s, c)))
        return ph

    diffs = {}
    for i, ci in enumerate(cl.vectors):
        for j, cj in enumerate(cl.vectors):
            if i != j:
                diffs.setdefault(tuple(a - b for a, b in zip(ci, cj)), (i, j))
    checked = diagonal = vanishing = 0
    witness = None
    for e in enumerate_errors(sys, d - 1):
        checked += 1
        deltas = tuple(layer(e.z, l) - graph_action(layer(e.x, l), g)
                       for l, g in enumerate(cl.graphs))
        if not any(any(c.entries) for c in deltas):
            diagonal += 1
            ss = tuple(layer(e.x, l) for l in range(len(cl.graphs)))
            ph0 = phase(ss, cl.vectors[0])
            odd = next((c for c in cl.vectors[1:] if phase(ss, c) != ph0), None)
            if odd is not None:
                witness = {"error": error_json(sys, e), "kind": "diagonal",
                           "vector": [list(p.entries) for p in odd]}
                break
        else:
            vanishing += 1
            if deltas in diffs:
                witness = {"error": error_json(sys, e), "kind": "offdiagonal",
                           "pair": list(diffs[deltas])}
                break
    out = {"verdict": "fail" if witness else "pass", "mode": "symbolic",
           "checked_errors": checked,
           "f_values_summary": {"diagonal_errors": diagonal,
                                "vanishing_errors": vanishing}}
    if witness:
        out["witness"] = witness
    return out


FIXTURE_DIR = _default_fixture_dir()
CLIQUE_FIXTURES = ["3_32_2_product", "3_4_2_q4", "3_8_2_q8", "5_9_2_q3", "6_16_3_q4",
                   "6_4_3_mixed", "6_8_3_mixed", "negatives/neg_bad_vector",
                   "negatives/neg_wrong_K", "negatives/neg_wrong_d"]


def random_graph(rng, n, m):
    adj = np.zeros((n, n), dtype=int)
    for i, j in itertools.combinations(range(n), 2):
        adj[i, j] = adj[j, i] = rng.integers(m)
    return WeightedGraph(n, m, tuple(map(tuple, adj.tolist())))


def random_cliques(rng):
    """Cliques over mixed moduli and three layers: searched ones, which
    pass, closures of random generators and random vector sets."""
    shapes = [((4, 3), (3, 2)), ((6, 2), (4, 2)), ((3, 2), (3, 2), (3, 2)),
              ((4, 2), (4, 2), (1, 3)), ((3, 4), (2, 2))]
    for shape in shapes:
        for d in (2, 3):
            graphs = tuple(random_graph(rng, n, m) for n, m in shape)
            yield search_clique(graphs, d, 8, budget=50).clique
            labels = [tuple(ModVec.of(m, rng.integers(m, size=n).tolist())
                            for n, m in shape) for _ in range(6)]
            zero = tuple(ModVec.zeros(m, n) for n, m in shape)
            yield CodingClique(graphs, d, closure(labels[:2]))
            vecs = list(dict.fromkeys([zero] + labels))
            yield CodingClique(graphs, d, tuple(vecs[:int(rng.integers(2, 6))]))


class TestSymbolicOracle:
    @pytest.mark.parametrize("name", CLIQUE_FIXTURES)
    def test_fixtures_match_modvec_loop(self, name):
        path = FIXTURE_DIR / f"{name}.json"
        code = build_code(load_certificate(path), path.parent)
        kinds = []
        for d in (code.d, code.d + 1):
            want = symbolic_oracle(code, d)
            assert kl_verify_symbolic(code, d).to_json() == want
            kinds.append(want.get("witness", {}).get("kind", "pass"))
        # d + 1 fails on every case: with a diagonal witness on the 6_*
        # codes, an off-diagonal one on the rest
        assert kinds[1] == ("diagonal" if name.startswith("6_") else "offdiagonal")

    def test_random_cliques_match_modvec_loop(self):
        rng = np.random.default_rng(20261018)
        seen = set()
        for cl in random_cliques(rng):
            code = Code.from_clique(cl)
            want = symbolic_oracle(code, cl.d)
            assert kl_verify_symbolic(code).to_json() == want, cl
            seen.add(want.get("witness", {}).get("kind", "pass"))
        assert seen == {"pass", "diagonal", "offdiagonal"}


# --- oracle for the numeric scan ------------------------------------------


def oracle_report(code, words, mode, tol=1e-9):
    """The KL report computed directly: the dense matrix of every word,
    f = tr(M)/K and max |M - f I| per word, the first failure as witness."""
    B = code.basis()
    sys = code.system
    K = code.K
    maxdev, nonzero_f, max_abs_f, witness = 0.0, 0, 0.0, None
    for e in words:
        M = B.conj().T @ error_matrix(e, sys) @ B
        f = np.trace(M) / K
        dev = float(np.abs(M - f * np.eye(K)).max())
        if abs(f) > tol:
            nonzero_f += 1
            max_abs_f = max(max_abs_f, float(abs(f)))
        maxdev = max(maxdev, dev)
        if dev > tol and witness is None:
            witness = {"error": error_json(sys, e), "deviation": dev}
    out = {"verdict": "fail" if witness else "pass", "mode": mode,
           "checked_errors": len(words), "max_deviation": maxdev,
           "f_values_summary": {"nonzero_f": nonzero_f, "max_abs_f": max_abs_f}}
    if witness:
        out["witness"] = witness
    return out


def assert_same_report(got, want):
    """Floats agree within 1e-12, everything else exactly."""
    got, want = json.loads(json.dumps(got)), json.loads(json.dumps(want))
    floats = [("max_deviation",), ("f_values_summary", "max_abs_f"),
              ("witness", "deviation")]
    for path in floats:
        g, w = got, want
        for key in path[:-1]:
            g, w = g.get(key, {}), w.get(key, {})
        assert abs(g.pop(path[-1], 0.0) - w.pop(path[-1], 0.0)) <= 1e-12
    assert got == want


# particle layouts: a two-factor particle, composite and prime moduli;
# shifts with x != -x (Z_3, Z_4) and self-inverse shifts x != 0 (Z_2
# layers, x = 2 on Z_4)
ORACLE_SYSTEMS = [
    MixedSystem(((2, 2), (3,), (2,))),
    MixedSystem.layered([(2, 3), (2, 2)]),
    MixedSystem(((2,), (3,), (4,))),
    MixedSystem(((3,), (4,), (3,))),
    MixedSystem.layered([(2, 2), (2, 2)]),
]


def random_basis(rng, sys, K, sparse, real=False):
    """Orthonormal columns: Haar-like, or K standard basis vectors with
    random phases that share their digits on every particle but the last
    two, so errors on the first particle pass and the witness lies
    further into the enumeration.  With real, the columns are real: a
    real Haar-like basis, or random signs for the phases."""
    D = sys.total_dim
    if sparse:
        tail = sys.dims[-2] * sys.dims[-1]
        rows = rng.integers(D // tail) * tail + rng.choice(tail, size=K, replace=False)
        B = np.zeros((D, K), dtype=complex)
        B[rows, np.arange(K)] = (rng.choice([-1.0, 1.0], size=K) if real
                                 else np.exp(2j * np.pi * rng.random(K)))
        return B
    if real:
        return np.linalg.qr(rng.normal(size=(D, K)))[0]
    g = rng.normal(size=(D, K)) + 1j * rng.normal(size=(D, K))
    return np.linalg.qr(g)[0]


def random_monomial_basis(rng, sys, K, zero_rows):
    """K columns on disjoint random sets of standard basis states, with
    random magnitudes and phases; with zero_rows about a third of the
    states belong to no column."""
    D = sys.total_dim
    owner = rng.integers(K, size=D)
    if zero_rows:
        owner[rng.random(D) < 1 / 3] = -1
    owner[rng.choice(D, size=K, replace=False)] = np.arange(K)
    B = np.zeros((D, K), dtype=complex)
    rows = np.flatnonzero(owner >= 0)
    B[rows, owner[rows]] = ((0.5 + rng.random(len(rows)))
                            * np.exp(2j * np.pi * rng.random(len(rows))))
    return B / np.linalg.norm(B, axis=0)


def monomial_form(B):
    """(col, val) of a dense basis with at most one nonzero per row:
    each row's nonzero column and value, -1 and 0 for an empty row."""
    nonzero = B != 0
    assert nonzero.sum(axis=1).max() <= 1
    col = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), -1)
    return col, B[np.arange(len(B)), col]


def pair_scan_code(case):
    """A monomial code of the pair-scan tests: an eigenbasis case, the
    three-block paste of 3_4_2_q4 (D 4096, K 256), or a random monomial
    code on Z_3 and Z_4 factors (K 12, with rows of no column)."""
    if case == "random_monomial":
        sys = ORACLE_SYSTEMS[3]
        B = random_monomial_basis(np.random.default_rng(731), sys, 12, True)
        return Code(sys, 12, 2, monomial=monomial_form(B))
    sys, rows = pasted_rows(3) if case == "3_4_2_q4_paste3" else EIGENBASIS_CASES[case]()
    return Code.from_monomial(sys, stabilizer_eigenbasis(sys, rows), 2)


def assert_scan_matches_oracle(code, w_max, tol=1e-12, errors=True):
    """The Gram blocks G_x[u] = A[u + x]^dag A[u] of every support of at
    most w_max particles, from the basis gathered as A[u, r, k]; and,
    with ``errors``, f and the deviation of every word X^x Z^z on each
    support S, those that leave part of S untouched included, within tol
    of <i|E|j> with the word applied to the basis directly.  Either
    source yields (x, pairs, T), T[u, p] the entry pairs[p] of G_x[u] and
    every other entry 0.  The scan must take the source the code's form
    says: pair sums from a monomial form, whose pairs are the only
    nonzero entries of the blocks, and all K^2 pairs of the Gram blocks
    from a dense basis, held as a view of ``code.basis()``, in float64
    exactly when it has no imaginary part.  A clique takes neither source:
    ``TestSignTable`` compares its layer products with its dense twin."""
    sys, B, K = code.system, code.basis(), code.K
    assert code.clique is None
    scan = _SupportScan(code)
    dense = code.monomial is None
    assert scan.blocks == (scan.grams if dense else scan.pair_sums)
    if dense:
        assert B.dtype == complex
        assert scan.Bt.dtype == (complex if B.imag.any() else np.float64)
        assert np.shares_memory(scan.Bt, B)
    flat = sys.flat_dims()
    first = np.cumsum([0] + [len(f) for f in sys.factors])
    for k in range(1, w_max + 1):
        for supp in itertools.combinations(range(sys.n), k):
            axes = [a for i in supp for a in range(first[i], first[i + 1])]
            dims = [flat[a] for a in axes]
            A = np.moveaxis(B.reshape(flat + (K,)), axes, range(len(axes)))
            A = A.reshape(dims + [-1, K])
            dS = math.prod(dims)
            yielded = list(scan.blocks(supp))
            assert sorted(x for x, *_ in yielded) == list(range(dS))
            for x, pairs, T in yielded:
                assert np.all(np.diff(pairs) > 0) and T.shape == (dS, len(pairs))
                assert len(pairs) == K * K or not dense
                G = np.zeros((dS, K * K), dtype=complex)
                G[:, pairs] = T
                G = G.reshape(-1, K, K)
                shift = np.unravel_index(x, dims)
                for u in itertools.product(*map(range, dims)):
                    ux = tuple((a + b) % m for a, b, m in zip(u, shift, dims))
                    want = A[ux].conj().T @ A[u]
                    assert np.abs(G[np.ravel_multi_index(u, dims)] - want).max() < 1e-12
            if not errors:
                continue
            fits = list(scan.fits(supp))
            assert sorted(x for x, *_ in fits) == list(range(dS))
            digits = np.indices(dims).reshape(len(dims), -1)
            for x, f, dev in fits:
                assert f.shape == dev.shape == (dS,)
                for z, fz, dz in zip(range(dS), f, dev):
                    row = np.stack([digits[:, x], digits[:, z]], axis=1).ravel()
                    M = B.conj().T @ apply_error(word_from_row(sys, supp, row.tolist()), sys, B)
                    want = np.trace(M) / K
                    assert abs(fz - want) < tol
                    assert abs(dz - np.abs(M - want * np.eye(K)).max()) < tol


class TestNumericOracle:
    @pytest.mark.parametrize("sys_index", range(len(ORACLE_SYSTEMS)))
    @pytest.mark.parametrize("sparse", [False, True])
    def test_reports_match_dense_oracle(self, sys_index, sparse):
        # complex bases, then real ones, which the scan holds in float64
        sys = ORACLE_SYSTEMS[sys_index]
        for real in (False, True):
            rng = np.random.default_rng(100 + 10 * sys_index + sparse + 1000 * real)
            for K in (1, 2, 3):
                code = Code.from_basis(sys, random_basis(rng, sys, K, sparse, real), d=2)
                assert code.basis().imag.any() != real
                for d in (1, 2, 3, sys.n + 1):
                    words = list(enumerate_errors(sys, d - 1))
                    want = oracle_report(code, words, "numeric")
                    assert_same_report(kl_verify_numeric(code, d).to_json(), want)
                # the last ball holds every word, by weight: the first
                # failure has the weight code_distance must find
                w = want.get("witness", {}).get("error")
                dist = (sum(any(x) or any(z) for x, z in zip(w["x"], w["z"]))
                        if w else sys.n + 1)
                assert code_distance(code) == dist

    @pytest.mark.parametrize("sys_index", range(len(ORACLE_SYSTEMS)))
    def test_every_scanned_error_matches_dense_oracle(self, sys_index):
        # reports keep only maxima and counts; this checks f and the
        # deviation of every error of every support, x = 0, self-inverse
        # shifts and x != -x included
        sys = ORACLE_SYSTEMS[sys_index]
        rng = np.random.default_rng(300 + sys_index)
        assert_scan_matches_oracle(Code.from_basis(sys, random_basis(rng, sys, 3, False), 2),
                                   sys.n)
        # a real basis: float64 Gram blocks, real on qubit-only supports
        rng = np.random.default_rng(1300 + sys_index)
        assert_scan_matches_oracle(
            Code.from_basis(sys, random_basis(rng, sys, 3, False, real=True), 2), sys.n)

    @pytest.mark.parametrize("case", ["leading_z4", "h_equals_dS", "wide",
                                      "product_weight1"])
    def test_gram_products_match_dense_oracle(self, case):
        # one product per shift over each support's (dS, R, K) stack, on
        # supports whose dS K is below, equal to or above R
        if case == "product_weight1":
            # the dense twin of the product clique: its weight-1 supports,
            # dS = 32 and R = 1024 at K = 32, real, x = 0 by syrk.  Its D
            # of 32768 is too large for the per-error oracle
            code, w_max = float64_twin(fixture_code("3_32_2_product")), 1
        else:
            sys, K, w_max = {
                # S = particle 0, dims (4, 2), R = 32: shifts with
                # x != -x, and x = 2 on the Z_4 axis
                "leading_z4": (MixedSystem(((4, 2), (4,), (2, 4))), 8, 1),
                # S = particle 0, dims (2, 2), R = 64: every shift is its
                # own inverse
                "h_equals_dS": (MixedSystem(((2, 2), (4,), (4,), (4,))), 2, 1),
                # S = particles 0 and 1, dS = 32 and R = 8
                "wide": (MixedSystem(((4, 2), (4,), (2, 4))), 3, 2),
            }[case]
            rng = np.random.default_rng(sum(map(ord, case)))
            code = Code.from_basis(sys, random_basis(rng, sys, K, False), 2)
        assert_scan_matches_oracle(code, w_max, errors=case != "product_weight1")

    @pytest.mark.parametrize("case", ["6_16_3_stab", "3_4_2_q4_paste1",
                                      "orbits_to_zero", "qutrit_x2"])
    def test_eigenbasis_errors_match_dense_oracle(self, case):
        # stabilizer eigenbases have monomial rows; the last two also
        # have all-zero rows, from orbits that project to zero
        sys, rows = EIGENBASIS_CASES[case]()
        code = Code.from_monomial(sys, stabilizer_eigenbasis(sys, rows), 2)
        w_max = {"6_16_3_stab": 2, "3_4_2_q4_paste1": 3}.get(case, sys.n)
        assert_scan_matches_oracle(code, w_max)

    @pytest.mark.parametrize("sys_index", [2, 3])
    @pytest.mark.parametrize("zero_rows", [False, True])
    def test_random_monomial_errors_match_dense_oracle(self, sys_index, zero_rows):
        # Z_3 and Z_4 factors: shifts with x != -x, and x = 2 on Z_4; at
        # K > 1 the columns meet several partners on every shift but x = 0,
        # so those shifts' pairs, diagonal and not, are numbered by sorting
        # the keys
        sys = ORACLE_SYSTEMS[sys_index]
        rng = np.random.default_rng(700 + 10 * sys_index + zero_rows)
        for K in (1, 2, 5, 12):
            B = random_monomial_basis(rng, sys, K, zero_rows)
            assert_scan_matches_oracle(Code(sys, K, 2, monomial=monomial_form(B)), sys.n)

    def test_row_with_two_nonzeros_takes_dense_products(self):
        # a dense basis takes the products, monomial rows or not
        sys = ORACLE_SYSTEMS[3]
        rng = np.random.default_rng(17)
        B = random_monomial_basis(rng, sys, 4, True)
        assert_scan_matches_oracle(Code.from_basis(sys, B, 2), sys.n)
        # a unitary on two rows that belong to different columns keeps
        # the basis orthonormal and leaves both rows with two nonzeros
        r, s = (int(np.flatnonzero(B[:, k])[0]) for k in (0, 1))
        B[[r, s]] = np.array([[0.6, 0.8j], [0.8j, 0.6]]) @ B[[r, s]]
        assert_scan_matches_oracle(Code.from_basis(sys, B, 2), sys.n)

    def test_fit_equals_full_deviation_formula_bitwise(self):
        # f = tr(M)/K and max |M - f I| with M - f I formed in full, from
        # the fit of all K^2 pairs: the diagonal must be summed in the
        # order np.trace sums it, which a bare gather M[:, on] does not at
        # K = 7 and 64.  Real M, as the scan of a real basis on qubit
        # factors yields, stays real
        rng = np.random.default_rng(23)
        cases = ((1, 1), (3, 2), (4, 7), (3, 64))
        for real, (n, K) in [(False, c) for c in cases] + [(True, c) for c in cases]:
            M = rng.normal(size=(n, K, K))
            if not real:
                M = M + 1j * rng.normal(size=(n, K, K))
            M[0] = (0.5 if real else 0.5j) * np.eye(K)  # a scalar: deviation exactly zero
            if n > 1:
                M[1] = np.diag(M[1].diagonal())  # the diagonal sets the deviation
            if n > 2:
                M[2, -1, 0] = np.nan
            f = np.trace(M, axis1=-2, axis2=-1) / K
            dev = np.abs(M - f[..., None, None] * np.eye(K)).max(axis=(-2, -1))
            got_f, got_dev = _KLReducer.fit(M.reshape(n, -1), np.arange(K * K), K)
            assert np.array_equal(got_f, f, equal_nan=True)
            assert np.array_equal(got_dev, dev, equal_nan=True)
            assert got_dev[0] == 0.0
            assert np.isrealobj(got_f) == real and got_dev.dtype == np.float64

    def test_fit_pairs_equals_full_deviation_formula_bitwise(self):
        # the fit of some pairs against f = tr(M)/K and max |M - f I| of the full
        # K x K matrices the pairs fill in, every other entry 0.  Entries
        # are multiples of 1/8, so every sum is exact in any order
        rng = np.random.default_rng(29)
        for n, K, P in ((1, 1, 1), (3, 1, 0), (4, 2, 3), (5, 7, 20), (3, 7, 0), (4, 16, 40)):
            pairs = np.sort(rng.choice(K * K, size=P, replace=False))
            M = (rng.integers(-64, 64, size=(n, P))
                 + 1j * rng.integers(-64, 64, size=(n, P))) / 8
            on = pairs // K == pairs % K
            if on.sum() == K:
                M[0, on] = 0.5j  # all of the diagonal and no more: a scalar
                M[0, ~on] = 0
            if n > 2 and P:
                M[2, -1] = np.nan
            full = np.zeros((n, K * K), dtype=complex)
            full[:, pairs] = M
            full = full.reshape(n, K, K)
            f = np.trace(full, axis1=-2, axis2=-1) / K
            dev = np.abs(full - f[..., None, None] * np.eye(K)).max(axis=(-2, -1))
            got_f, got_dev = _KLReducer.fit(M, pairs, K)
            assert np.array_equal(got_f, f, equal_nan=True)
            assert np.array_equal(got_dev, dev, equal_nan=True)
            if on.sum() == K:
                assert got_dev[0] == 0.0
            elif P == 0:
                assert not got_f.any() and not got_dev.any()
        # three of four diagonal entries and nothing else: only the
        # missing one, 0, deviates as far as |f|
        got_f, got_dev = _KLReducer.fit(np.ones((1, 3), dtype=complex),
                                        np.array([0, 5, 10]), 4)
        assert got_f[0] == 0.75 and got_dev[0] == 0.75

    @pytest.mark.parametrize("case, K, sorted_keys", [("6_16_3_stab", 16, False),
                                                      ("3_4_2_q4_paste3", 256, False),
                                                      ("random_monomial", 12, True)])
    def test_pair_keys_take_both_numberings(self, case, K, sorted_keys, monkeypatch):
        # a shift's pairs are numbered through the partner map i_of[j] when
        # each column j of rows u meets one column i of rows u + x, else by
        # sorting every hit's key.  A stabilizer eigenbasis's columns are
        # orbits of the rows' shifts, so every shift of 6_16_3_stab (D 4096,
        # K 16) and of the three-block paste of 3_4_2_q4 (D 4096, K 256)
        # takes the map; the columns of a random monomial code (K 12, with
        # rows of no column) meet several partners, and every shift of it
        # but x = 0 sorts.  Per error, both agree with the dense-basis scan
        # of the same code, run before the spies so that they count the pair
        # scan's shifts only
        code = pair_scan_code(case)
        sys = code.system
        assert code.K == K
        dense = _SupportScan(Code.from_basis(sys, code.basis(), 2))
        supps = ((0,), (sys.n - 1,))
        wants = [{x: (f, dev) for x, f, dev in dense.fits(supp)} for supp in supps]
        sorts, shifts = [], []
        unique, fit = np.unique, _KLReducer.fit

        def unique_spy(a, *args, **kwargs):
            if kwargs.get("return_inverse"):
                sorts.append(len(a))
            return unique(a, *args, **kwargs)

        def fit_spy(M, pairs, K):
            shifts.append(len(pairs))
            return fit(M, pairs, K)

        monkeypatch.setattr(np, "unique", unique_spy)
        monkeypatch.setattr(_KLReducer, "fit", staticmethod(fit_spy))
        for supp, want in zip(supps, wants):
            got = list(_SupportScan(code).fits(supp))
            assert sorted(x for x, *_ in got) == sorted(want)
            for x, f, dev in got:
                assert np.abs(f - want[x][0]).max() < 1e-14
                assert np.abs(dev - want[x][1]).max() < 1e-14
        assert len(shifts) > 0 and all(shifts)
        assert len(sorts) == (len(shifts) - len(supps) if sorted_keys else 0)

    @pytest.mark.parametrize("case", ["6_16_3_stab", "3_4_2_q4_paste3", "orbits_to_zero",
                                      "qutrit_x2", "random_monomial"])
    def test_pair_sums_equal_reference_loop_bitwise(self, case):
        # whole-row gathers, masks only for rows of no column, and either
        # numbering give the same (x, pairs, T), bit for bit, as one masked
        # gather per nonzero row numbered by a K^2 table or a sort: the
        # same pairs, and each entry of T summed over the same rows in the
        # same order
        code = pair_scan_code(case)
        sys = code.system
        w_max = {"6_16_3_stab": 2, "3_4_2_q4_paste3": 1}.get(case, sys.n)
        scan = _SupportScan(code)
        checked = 0
        for supp in supports(sys.n, w_max):
            got, want = list(scan.pair_sums(supp)), list(pair_sums_reference(scan, supp))
            assert len(got) == len(want) == math.prod(sys.dims[i] for i in supp)
            for (x, pairs, T), (x0, pairs0, T0) in zip(got, want):
                assert x == x0 and np.array_equal(pairs, pairs0) and np.array_equal(T, T0)
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("case", ["orbits_to_zero", "qutrit_x2"])
    def test_pair_scan_without_hits_or_diagonal_pairs(self, case, monkeypatch):
        # rows of no column leave shifts with no hit at all (f = 0 and
        # deviation 0, from no pairs) and shifts whose pairs miss part of
        # the diagonal, where the missing entries deviate by |f|
        sys, rows = EIGENBASIS_CASES[case]()
        code = Code.from_monomial(sys, stabilizer_eigenbasis(sys, rows), 2)
        seen = []
        fit = _KLReducer.fit

        def spy(M, pairs, K):
            seen.append((len(pairs), int((pairs // K == pairs % K).sum())))
            return fit(M, pairs, K)

        monkeypatch.setattr(_KLReducer, "fit", staticmethod(spy))
        assert_scan_matches_oracle(code, sys.n, tol=1e-14)
        for d in (2, sys.n + 1):
            words = list(enumerate_errors(sys, d - 1))
            assert_same_report(kl_verify_numeric(code, d).to_json(),
                               oracle_report(code, words, "numeric"))
        assert (0, 0) in seen
        assert any(pairs and diagonal < code.K for pairs, diagonal in seen)

    @pytest.mark.parametrize("factors", [((2,),) * 4, ((3,),) * 3, ((4,), (4,), (2,)),
                                         ((2, 2), (3,), (4,))])
    def test_random_commuting_rows_pair_scan_matches_dense_oracle(self, factors):
        # eigenbases of random commuting rows over Z_2, Z_3, Z_4 and a
        # two-factor particle: f and the deviation of every error within
        # 1e-14, and the same report and witness at every distance
        sys = MixedSystem(factors)
        rng = np.random.default_rng(900 + sys.total_dim)
        built = 0
        for count in (1, 1, 2, 2, 3, 3):
            try:
                form = stabilizer_eigenbasis(sys, commuting_rows(rng, sys, count))
            except ValueError:  # phases with an empty joint eigenspace
                continue
            code = Code.from_monomial(sys, form, 2)
            assert_scan_matches_oracle(code, sys.n, tol=1e-14)
            for d in (2, sys.n + 1):
                words = list(enumerate_errors(sys, d - 1))
                assert_same_report(kl_verify_numeric(code, d).to_json(),
                                   oracle_report(code, words, "numeric"))
            built += 1
        assert built >= 3

    def test_failing_cases_carry_witnesses(self):
        sys = ORACLE_SYSTEMS[0]
        rng = np.random.default_rng(5)
        code = Code.from_basis(sys, random_basis(rng, sys, 2, True), d=3)
        rep = kl_verify_numeric(code)
        assert not rep.ok and rep.witness["deviation"] > 1e-9

    def test_word_list_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        sys = ORACLE_SYSTEMS[0]
        pool = list(enumerate_errors(sys, 3))
        for K in (1, 2, 3):
            code = Code.from_basis(sys, random_basis(rng, sys, K, True), d=2)
            picks = rng.choice(len(pool), size=40, replace=False)
            words = [ErrorWord(pool[i].x, pool[i].z, Phase(int(i), 6)) for i in picks]
            got = kl_verify_words(code, words).to_json()
            assert_same_report(got, oracle_report(code, words, "words"))

    def test_empty_word_list_passes(self):
        code = Code.from_clique(clique_342())
        rep = kl_verify_words(code, [])
        assert rep.ok and rep.checked_errors == 0 and rep.max_deviation == 0.0

    @pytest.mark.parametrize("name", ["3_4_2_q4", "5_9_2_q3", "5_9_2_proj",
                                      "5_16_2_paste"])
    def test_fixtures_match_dense_oracle(self, name):
        # at d + 1 the witness is a mixed X/Z word on a two-particle support
        root = _default_fixture_dir()
        code = build_code(load_certificate(root / f"{name}.json"), root)
        for d in (code.d, code.d + 1):
            words = list(enumerate_errors(code.system, d - 1))
            got = kl_verify_numeric(code, d).to_json()
            assert_same_report(got, oracle_report(code, words, "numeric"))
        want = next((weight(e, code.system) for e in enumerate_errors(code.system, code.n)
                     if oracle_report(code, [e], "words")["verdict"] == "fail"),
                    code.n + 1)
        assert code_distance(code) == want == code.d

    @pytest.mark.parametrize("name", ["6_16_3_q4", "6_16_3_stab"])
    def test_scan_builds_no_error_rows(self, name, monkeypatch):
        # a dense basis and a monomial form: the scan reads each support's
        # (x, z) grids in enumeration order, and digit rows are built only
        # for the witness of a failing check, through either module
        root = _default_fixture_dir()
        code = build_code(load_certificate(root / f"{name}.json"), root)
        calls = []

        def spy(*args):
            calls.append(args)
            return support_rows(*args)

        for module in ("errors", "verifier"):
            monkeypatch.setattr(f"mixedqec.{module}.support_rows", spy)
        assert kl_verify_numeric(code).ok
        assert code_distance(code) == code.d
        assert not calls
        assert not kl_verify_numeric(code, code.d + 1).ok
        assert len(calls) == 1

    def test_witness_on_unequal_particles_matches_dense_oracle(self):
        # the projected code with its qubit moved first: the first failing
        # word acts on a qubit and a qutrit, whose operator counts differ
        root = _default_fixture_dir()
        code = build_code(load_certificate(root / "5_9_2_proj.json"), root)
        perm = (4, 0, 1, 2, 3)
        B = code.basis().reshape(code.system.dims + (code.K,))
        B = B.transpose(perm + (5,)).reshape(-1, code.K)
        sys = MixedSystem(tuple(code.system.factors[i] for i in perm))
        moved = Code.from_basis(sys, B, d=2)
        got = kl_verify_numeric(moved, 3).to_json()
        assert got["witness"]["error"]["x"][0] == [1]
        assert_same_report(got, oracle_report(moved, list(enumerate_errors(sys, 2)),
                                              "numeric"))


QUBIT_CLIQUES = ["3_4_2_q4", "3_8_2_q8", "6_16_3_q4", "6_4_3_mixed", "6_8_3_mixed"]


def fixture_code(name):
    path = FIXTURE_DIR / f"{name}.json"
    return build_code(load_certificate(path), path.parent)


def float64_twin(code):
    """The same basis as a plain dense code, which the scan holds as a
    float64 view of ``code.basis()``."""
    twin = Code.from_basis(code.system, code.basis(), code.d)
    assert _SupportScan(twin).Bt.dtype == np.float64
    return twin


def random_graph(rng, n, m):
    """The complete graph on n vertices with random nonzero edge weights
    in Z_m."""
    upper = np.triu(rng.integers(1, m, size=(n, n)), 1)
    return WeightedGraph(n, m, tuple(map(tuple, (upper + upper.T).tolist())))


def random_label_sets(rng, graphs, count):
    """Sets of up to six distinct labels over graphs, zero first, claimed
    at d = 2 or 3."""
    zero = tuple(ModVec.zeros(g.m, g.n) for g in graphs)
    for i in range(count):
        labels = [tuple(ModVec.of(g.m, rng.integers(g.m, size=g.n).tolist()) for g in graphs)
                  for _ in range(6)]
        vecs = tuple(dict.fromkeys([zero] + labels))[:int(rng.integers(2, 7))]
        yield CodingClique(tuple(graphs), 2 + i % 2, vecs)


def random_qubit_cliques(rng, count):
    """Random cliques over two layers of loop_graph(4, 2)."""
    return random_label_sets(rng, (L4, L4), count)


class TestSignTable:
    """A clique is scanned through its layers: each layer's table holds
    the states of its distinct labels, +-1 integers on a Z_2 layer, and
    the K x K matrix of an error is the entrywise product of the layers'
    matrices at each codeword's labels, scaled by 1/D, a power of two
    over Z_2 layers.  The scan of the same basis held dense, in float64,
    is the oracle."""

    @pytest.mark.parametrize("name", QUBIT_CLIQUES)
    def test_fits_match_float64_scan(self, name):
        # every support below d: f and the deviation within 1e-12 of the
        # float64 scan, and exact: no deviation at all, f = 1 on the
        # identity and 0 or +-1 elsewhere (+-1 on the stabilizer elements
        # of weight below d of an impure code, 6_4_3_mixed)
        code = fixture_code(name)
        scan, oracle = _SupportScan(code), _SupportScan(float64_twin(code))
        assert scan.matrices == scan.layer_products and not hasattr(scan, "Bt")
        for supp in supports(code.n, code.d - 1):
            want = {x: (f, dev) for x, f, dev in oracle.fits(supp)}
            got = list(scan.fits(supp))
            assert [x for x, *_ in got] == list(range(len(want)))
            for x, f, dev in got:
                assert np.abs(f - want[x][0]).max() <= 1e-12
                assert np.abs(dev - want[x][1]).max() <= 1e-12
                assert not dev.any()
                assert np.isin(f, (-1.0, 0.0, 1.0)).all() and (x or f[0] == 1.0)
        assert kl_verify_numeric(code).max_deviation == 0.0

    def test_product_gram_blocks_match_float64_scan(self):
        # 3_32_2_product (D 32768, K 32, five Z_2 layers): on its weight-1
        # supports each chunk holds at most D entries, here one shift, and
        # its matrices are integers over D, within 1e-12 of the products of
        # the float64 scan's Gram blocks with the character table
        code = fixture_code("3_32_2_product")
        D = code.system.total_dim
        scan, oracle = _SupportScan(code), _SupportScan(float64_twin(code))
        for supp in supports(code.n, 1):
            want = {x: M for (x,), _, M in oracle.matrices(supp)}
            assert len(want) == 32
            seen = []
            for xs, pairs, M in scan.matrices(supp):
                assert M.size <= D and M.dtype == np.float64
                assert np.array_equal(pairs, np.arange(code.K ** 2))
                assert np.array_equal(M * D, np.round(M * D))
                for x, Mx in zip(xs, M.reshape(len(xs), -1, len(pairs))):
                    assert np.abs(Mx - want[x]).max() <= 1e-12
                    seen.append(x)
            assert seen == list(range(32))

    @pytest.mark.parametrize("name", ["negatives/neg_bad_vector",
                                      "negatives/neg_wrong_d", "random"])
    def test_failing_cliques_match_float64_scan(self, name):
        # the same verdict, witness and count at d and at every weight,
        # and the same measured distance
        codes = ([Code.from_clique(cl) for cl in random_qubit_cliques(
                     np.random.default_rng(2104), 6)]
                 if name == "random" else [fixture_code(name)])
        failed = []
        for code in codes:
            twin = float64_twin(code)
            for d in (code.d, code.n + 1):
                got = kl_verify_numeric(code, d)
                assert_same_report(got.to_json(), kl_verify_numeric(twin, d).to_json())
                failed.append(not got.ok)
            assert code_distance(code) == code_distance(twin)
        assert all(failed)

    @pytest.mark.parametrize("name", ["3_4_2_q4", "6_8_3_mixed"])
    def test_scan_builds_no_complex_basis(self, name, monkeypatch):
        # neither check, nor verify --distance, calls Code.basis, and the
        # code caches no basis; the exponents take one byte each
        code = fixture_code(name)
        calls = []
        basis = Code.basis

        def spy(self, *args, **kwargs):
            calls.append(self)
            return basis(self, *args, **kwargs)

        monkeypatch.setattr(Code, "basis", spy)
        assert kl_verify_numeric(code).ok
        assert code_distance(code) == code.d
        path = FIXTURE_DIR / f"{name}.json"
        assert verify_certificate(load_certificate(path), path.parent,
                                  distance=True)["verdict"] == "pass"
        assert not calls and code._basis is None
        assert code._exponents()[1].dtype == np.uint8

    def test_layers_of_one_graph_and_label_set_share_a_table(self):
        # the product of 3_4_2_q4 with itself (D 4096, K 16) has every
        # layer twice: two tables, each of the 8 states of its layer's 4
        # distinct labels, +-1 in float64
        base = fixture_code("3_4_2_q4")
        scan = _SupportScan(product_code(base, base))
        tables = [t for t, *_ in scan.layers]
        assert tables[0] is tables[2] and tables[1] is tables[3]
        assert tables[0] is not tables[1]
        for t, n, index in scan.layers:
            assert n == 3 and t.Bt.shape == (2, 2, 2, 4)
            assert t.Bt.dtype == np.float64 and np.isin(t.Bt, (-1.0, 1.0)).all()
            assert sorted(set(index.tolist())) == [0, 1, 2, 3]

    def test_product_scan_allocates_nothing_of_D_rows(self):
        # 3_32_2_product's numeric check stays under D K 4 bytes, the size
        # of a float32 table of D rows, at a traced peak near 1 MB
        code = fixture_code("3_32_2_product")
        tracemalloc.start()
        try:
            assert kl_verify_numeric(code).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < code.system.total_dim * code.K * 4

    @pytest.mark.parametrize("layers", ["z3_z3", "z2_z3", "z4_z2_ragged"])
    def test_random_cliques_match_dense_oracle(self, layers):
        # random weights on Z_3 layers, a Z_2 and a Z_3 layer, and a Z_4
        # layer on three particles over a Z_2 layer on one; random labels,
        # which fail, and the clique set mode finds at d = 2 (K 3, 2 and
        # 2), which passes there: the report of every word, at d and
        # d + 1, as the dense matrices of the words give it, and the
        # distance the dense scan measures
        rng = np.random.default_rng(sum(map(ord, layers)))
        shapes = {"z3_z3": ((3, 3), (1, 3)), "z2_z3": ((3, 2), (2, 3)),
                  "z4_z2_ragged": ((3, 4), (1, 2))}[layers]
        graphs = tuple(random_graph(rng, n, m) for n, m in shapes)
        found = search_clique(graphs, 2, 10 ** 6, budget=200, mode="set").clique
        assert found.K > 1 and kl_verify_numeric(Code.from_clique(found)).ok
        for cl in [found, *random_label_sets(rng, graphs, 3)]:
            code = Code.from_clique(cl)
            for d in (2, 3):
                got = kl_verify_numeric(code, d).to_json()
                want = oracle_report(code, list(enumerate_errors(code.system, d - 1)),
                                     "numeric")
                assert_same_report(got, want)
            assert code_distance(code) == code_distance(Code.from_basis(
                code.system, code.basis(), code.d))


def fresh_scan_grids(code, supp):
    """f and the deviation of every word on S as (dS, dS) grids over the
    flat shift x and phase z, from a scan made for this support alone."""
    fits = sorted(_SupportScan(code).fits(supp), key=lambda fit: fit[0])
    return tuple(np.stack([fit[i] for fit in fits]) for i in (1, 2))


def fresh_scan_report(code, d, tol=1e-9):
    """The report of kl_verify_numeric, each support's grids taken from a
    fresh scan and read through errors.in_support_order."""
    sys, radices = code.system, word_radices(code.system)
    reducer = _KLReducer(sys, tol)
    for supp in supports(code.n, d - 1):
        f, dev = (in_support_order(radices, supp, g) for g in fresh_scan_grids(code, supp))
        reducer.add(f, dev, lambda j: word_from_row(
            sys, supp, support_rows(radices, supp, j, j + 1)[0].tolist()))
    return reducer.report("numeric").to_json()


class TestShapeGeometry:
    """One scan forms the geometry of each support shape once and keeps it
    for the whole check: the digits, the negation map, the character table
    and the positions of the words of weight |S| in the (x, z) grid.
    Supports {0} and {4, 5} of 6_4_3_mixed have the same flat dims (2, 2),
    but 15 and 9 words of weight |S|, so the shape is the particles'
    factor tuples."""

    @pytest.mark.parametrize("name", ["6_4_3_mixed", "6_8_3_mixed"])
    def test_shared_geometry_matches_a_fresh_scan_per_support(self, name):
        # every support's grids, read at the shared positions, the report at
        # d and d + 1 and the measured distance, bit for bit those of a
        # fresh scan per support
        code = fixture_code(name)
        shared, radices = _SupportScan(code), word_radices(code.system)
        scanned = list(supports(code.n, code.d))
        for supp in scanned:
            got = fresh_scan_grids(code, supp)
            fits = sorted(shared.fits(supp), key=lambda fit: fit[0])
            for i, want in enumerate(got):
                grid = np.stack([fit[i + 1] for fit in fits])
                assert grid.dtype == want.dtype and np.array_equal(grid, want)
                assert np.array_equal(grid.ravel()[shared.shape(supp).positions],
                                      in_support_order(radices, supp, want))
        assert len(shared.shapes) < len(scanned)
        flat = {}
        for supp in scanned:
            flat.setdefault(tuple(m for i in supp for m in code.system.factors[i]), set()).add(
                tuple(code.system.factors[i] for i in supp))
        assert any(len(shapes) > 1 for shapes in flat.values()) == (name == "6_4_3_mixed")
        for d in (code.d, code.d + 1):
            got = json.dumps(kl_verify_numeric(code, d).to_json())
            assert got == json.dumps(fresh_scan_report(code, d))
        want = next((len(supp) for supp in supports(code.n, code.n)
                     if any((dev[x == 0:] > 1e-9).any()
                            for x, _, dev in _SupportScan(code).fits(supp))), code.n + 1)
        assert code_distance(code) == want == code.d


def shift_key(sys, e):
    """The flat index of a word's shift digits."""
    return int(np.ravel_multi_index([a for xi in e.x for a in xi], sys.flat_dims()))


class TestWordList:
    """kl_verify_words groups the words by shift and reads each group
    through one Gram stack of the whole system; the report follows the
    list order all the same."""

    QUARTER_AND_OTHER_TURNS = (PHASE_ONE, Phase(1, 4), PHASE_MINUS_ONE, Phase(3, 4),
                               Phase(1, 3), Phase(5, 6))

    @pytest.mark.parametrize("case", ["dense", "dense_real", "monomial", "5_9_2_q3"])
    def test_grouped_words_match_dense_oracle_in_list_order(self, case):
        # words that interleave shifts and carry phases, quarter turns
        # included, a repeated word, the identity, and two failing words of
        # which the first in list order sorts later by shift: the witness
        # is that first one, and every count is the dense oracle's.  A real
        # basis on qubit factors with phases +-1 keeps the products real
        rng = np.random.default_rng(sum(map(ord, case)))
        if case == "5_9_2_q3":
            code = fixture_code(case)
        elif case == "monomial":
            code = pair_scan_code("random_monomial")
        else:
            sys = ORACLE_SYSTEMS[0 if case == "dense" else 4]
            code = Code.from_basis(sys, random_basis(rng, sys, 3, False, case == "dense_real"), 2)
        sys = code.system
        pool = list(enumerate_errors(sys, 2))
        pool = [pool[i] for i in rng.choice(len(pool), size=min(len(pool), 150), replace=False)]
        failing = [e for e in pool if oracle_report(code, [e], "words")["verdict"] == "fail"]
        passing = [e for e in pool if e not in failing]
        late = max(failing, key=lambda e: shift_key(sys, e))
        early = next(e for e in failing if shift_key(sys, e) < shift_key(sys, late))
        turns = self.QUARTER_AND_OTHER_TURNS[:3:2] if case == "dense_real" else \
            self.QUARTER_AND_OTHER_TURNS
        head, tail = ([ErrorWord(e.x, e.z, turns[i % len(turns)]) for i, e in enumerate(part)]
                      for part in (passing[:6], pool[:12]))
        identity = ErrorWord.identity(sys)
        # only words that pass come before the first failing one, late
        words = ([ErrorWord(identity.x, identity.z, turns[-1])] + head + [late] + tail[:6]
                 + [ErrorWord(early.x, early.z, turns[1]), late] + tail[6:] + [identity])
        keys = [shift_key(sys, e) for e in words]
        assert keys != sorted(keys) and len(set(keys)) > 2
        got = kl_verify_words(code, words).to_json()
        assert_same_report(got, oracle_report(code, words, "words"))
        assert got["witness"]["error"] == error_json(sys, late)
        assert got["checked_errors"] == len(words)


@pytest.mark.parametrize("name", ["3_4_2_q4", "5_16_2_paste", "negatives/neg_bad_vector",
                                  "negatives/neg_wrong_d"])
def test_distance_check_scans_once(name, monkeypatch):
    # verify --distance: after a passing numeric check the distance scan
    # starts at d; after a failing one the distance is the weight of its
    # witness and nothing is scanned again; with no numeric check it
    # starts at weight 1.  Each gives what the full scan finds
    path = FIXTURE_DIR / f"{name}.json"
    code = build_code(load_certificate(path), path.parent)
    want = code_distance(code)
    starts = []

    def spy(code, *args, w_min=1, **kwargs):
        starts.append(w_min)
        return code_distance(code, *args, w_min=w_min, **kwargs)

    monkeypatch.setattr("mixedqec.certificates.code_distance", spy)
    report = verify_certificate(load_certificate(path), path.parent, distance=True)
    assert report["checks"]["distance"] == want
    passed = report["checks"]["numeric"]["verdict"] == "pass"
    assert passed != name.startswith("negatives/")
    assert starts == ([code.d] if passed else [])
    starts.clear()
    report = verify_certificate(load_certificate(path), path.parent, run_numeric=False,
                                distance=True)
    assert report["checks"]["distance"] == want and starts == [1]


def random_tableau_codes():
    """Codes in monomial form from random commuting rows over Z_2 and Z_3
    particles, claimed at distance 2."""
    codes = []
    for factors in (((2,),) * 5, ((3,),) * 4, ((2,), (3,), (2,), (3,))):
        sys = MixedSystem(factors)
        rng = np.random.default_rng(sys.total_dim)
        for count in (1, 2, 2, 3, 3):
            try:
                form = stabilizer_eigenbasis(sys, commuting_rows(rng, sys, count))
            except ValueError:  # phases with an empty joint eigenspace
                continue
            codes.append(Code.from_monomial(sys, form, 2))
    return codes


@pytest.mark.parametrize("case", ["6_16_3_stab", "5_16_2_paste", "random"])
def test_scatter_and_product_engines_agree(case):
    # the same code in monomial form (pair sums) and as a dense basis
    # (batched products): one verdict, one error count, one witness
    if case == "random":
        codes = random_tableau_codes()
        assert len(codes) >= 10
    else:
        root = _default_fixture_dir()
        codes = [build_code(load_certificate(root / f"{case}.json"), root)]
    for code in codes:
        dense = Code.from_basis(code.system, code.basis(), code.d)
        assert code.monomial is not None and dense.monomial is None
        for d in (code.d, code.d + 1):
            got, want = kl_verify_numeric(code, d), kl_verify_numeric(dense, d)
            assert (got.ok, got.checked_errors) == (want.ok, want.checked_errors)
            assert abs(got.max_deviation - want.max_deviation) <= 1e-12
            assert (got.witness or {}).get("error") == (want.witness or {}).get("error")


class TestMonomialCode:
    @staticmethod
    def form():
        sys, rows = stab_fixture_rows()
        col, val = stabilizer_eigenbasis(sys, rows)
        return sys, col.copy(), val.copy()

    def test_eigenbasis_is_accepted(self):
        sys, col, val = self.form()
        code = Code(sys, 16, 3, monomial=(col, val))
        assert code.K == 16 and code.basis().shape == (4096, 16)

    def test_scaled_value_rejected(self):
        sys, col, val = self.form()
        val[np.argmax(np.abs(val))] *= 1 + 1e-6
        with pytest.raises(ValueError, match="orthonormal"):
            Code(sys, 16, 3, monomial=(col, val))

    def test_empty_column_rejected(self):
        sys, col, val = self.form()
        col[col == 5] = -1
        with pytest.raises(ValueError, match="orthonormal"):
            Code(sys, 16, 3, monomial=(col, val))

    def test_column_index_at_K_rejected(self):
        sys, col, val = self.form()
        col[col == 15] = 16
        with pytest.raises(ValueError, match="column index"):
            Code(sys, 16, 3, monomial=(col, val))


# --- oracle for the stabilizer eigenbasis -----------------------------------


def eigenbasis(sys, rows):
    """The stabilizer eigenbasis as a dense array."""
    return Code.from_monomial(sys, stabilizer_eigenbasis(sys, rows), 1).basis()


def assert_matches_oracle(got, want):
    """Same shape and nonzero pattern, and every entry within 1e-12: the
    walk computes each amplitude directly, the oracle by projection."""
    assert got.shape == want.shape
    assert np.array_equal(got != 0, want != 0)
    assert np.abs(got - want).max() <= 1e-12


def gram_schmidt_eigenbasis(sys, rows):
    """The eigenbasis seed by seed: every standard basis vector in index
    order, projected in blocks of 64, orthogonalised against the columns
    kept so far and kept when its norm is above 1e-6."""
    words = [r.word for r in rows]
    orders = _Tableau(sys, words).orders.tolist()
    D = sys.total_dim
    basis = []
    for start in range(0, D, 64):
        seeds = np.zeros((D, min(64, D - start)), dtype=complex)
        for j in range(seeds.shape[1]):
            seeds[start + j, j] = 1.0
        proj = _project_columns(sys, words, orders, seeds)
        for j in range(proj.shape[1]):
            v = proj[:, j]
            for b in basis:
                v = v - b * (b.conj() @ v)
            norm = np.linalg.norm(v)
            if norm > 1e-6:
                basis.append(v / norm)
    if not basis:
        raise ValueError("the joint eigenspace is empty")
    return np.stack(basis, axis=1)


def word_row(sys, x, z, phase=PHASE_ONE):
    """A row given by one x and one z digit per single-factor particle."""
    return StabilizerRow(("",), ErrorWord(tuple((a,) for a in x),
                                          tuple((b,) for b in z), phase))


def commuting_rows(rng, sys, count):
    """Up to count random pairwise commuting rows, each with a random one
    of the phases that close its cyclic order."""
    words = []
    for _ in range(50 * count):
        digits = lambda: tuple(tuple(int(rng.integers(m)) for m in f)
                               for f in sys.factors)
        w = ErrorWord(digits(), digits())
        if w.label() == ErrorWord.identity(sys).label():
            continue
        tab = _Tableau(sys, words + [w])
        if not tab.commutators()[-1].any():
            # the phases lam with (lam w)^o = I, o the order of w
            o, e = int(tab.orders[-1]), int(tab.closing()[-1])
            cands = [Phase(j * tab.N - e, tab.N * o) for j in range(o)]
            words.append(ErrorWord(w.x, w.z, cands[int(rng.integers(len(cands)))]))
        if len(words) == count:
            break
    return [StabilizerRow(("",), w) for w in words]


def pasted_rows(blocks, block_dim=2):
    root = _default_fixture_dir()
    cert = load_certificate(root / "3_4_2_q4.json")
    base = build_code(cert, root)
    res = paste_distance2(base_stabilizer_rows(cert, base), base, blocks, block_dim)
    return res.system, res.rows


def stab_fixture_rows():
    """The rows of 6_16_3_stab, read at phase one and then folded with
    the stored phases by the reference."""
    cert = load_certificate(_default_fixture_dir() / "6_16_3_stab.json")
    cons = cert.construction
    rows = [parse_stabilizer_row(cert.system, tuple(t)) for t in cons["rows"]]
    return cert.system, with_phases(rows, [Phase(k, L) for k, L in cons["phases"]])


QUTRITS = MixedSystem(((3,),) * 3)
QUBITS4 = MixedSystem(((2,),) * 4)

EIGENBASIS_CASES = {
    "6_16_3_stab": stab_fixture_rows,
    "3_4_2_q4_paste1": lambda: pasted_rows(1),
    "3_4_2_q4_paste2": lambda: pasted_rows(2),
    # ((5, 4^3, 2))_4, D 1024, K 64: Z_4 block shifts, x != -x, in pasted rows
    "3_4_2_q4_paste1_dim4": lambda: pasted_rows(1, 4),
    # X X^2 I shifts by digits above 1; Z Z Z keeps the orbits with digit sum 0
    "qutrit_x2": lambda: (QUTRITS, [word_row(QUTRITS, (1, 2, 0), (0, 0, 0)),
                                    word_row(QUTRITS, (0, 0, 0), (1, 1, 1))]),
    # Z Z I I and I I Z Z project six of the eight X X X X orbits to zero
    "orbits_to_zero": lambda: (QUBITS4, [
        parse_stabilizer_row(QUBITS4, ("XXXX",), PHASE_MINUS_ONE),
        parse_stabilizer_row(QUBITS4, ("ZZII",)),
        parse_stabilizer_row(QUBITS4, ("IIZZ",))]),
}


class TestEigenbasisOracle:
    @pytest.mark.parametrize("case", sorted(EIGENBASIS_CASES))
    def test_matches_gram_schmidt(self, case):
        sys, rows = EIGENBASIS_CASES[case]()
        got = eigenbasis(sys, rows)
        want = gram_schmidt_eigenbasis(sys, rows)
        assert_matches_oracle(got, want)
        if case == "orbits_to_zero":
            assert got.shape[1] == 2

    @pytest.mark.parametrize("factors", [((3,),) * 3, ((4,), (4,), (2,)),
                                         ((2, 2), (3,), (4,))])
    def test_random_commuting_rows_match_gram_schmidt(self, factors):
        sys = MixedSystem(factors)
        rng = np.random.default_rng(len(factors[0]) + sys.total_dim)
        built = 0
        for count in (1, 2, 2, 3, 3, 3):
            rows = commuting_rows(rng, sys, count)
            try:
                want = gram_schmidt_eigenbasis(sys, rows)
            except ValueError:  # phases with an empty joint eigenspace
                with pytest.raises(ValueError):
                    stabilizer_eigenbasis(sys, rows)
                continue
            assert_matches_oracle(eigenbasis(sys, rows), want)
            built += 1
        assert built >= 3


def eigenbasis_or_error(sys, rows):
    try:
        return stabilizer_eigenbasis(sys, rows)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("case", ["6_16_3_stab", "neg_bad_row", "random"])
def test_rows_read_with_phase_match_reference_fold(case):
    # rows read with their phase against rows read at phase one and then
    # folded with the same phases: the same words, and the same (col, val)
    # arrays, or the same error where the rows have no eigenbasis
    if case == "random":
        pairs = []
        for factors in (((2,),) * 4, ((3,),) * 3, ((4,), (4,), (2,))):
            sys = MixedSystem(factors)
            rows = commuting_rows(np.random.default_rng(sys.total_dim), sys, 3)
            bare = [StabilizerRow(r.text, ErrorWord(r.word.x, r.word.z)) for r in rows]
            pairs.append((sys, rows, with_phases(bare, [r.word.phase for r in rows])))
    else:
        root = _default_fixture_dir()
        cert = load_certificate(root / f"{case}.json" if case != "neg_bad_row"
                                else root / "negatives" / f"{case}.json")
        cons = cert.construction
        bare = [parse_stabilizer_row(cert.system, tuple(t)) for t in cons["rows"]]
        pairs = [(cert.system, _stabilizer_rows(cert),
                  with_phases(bare, [Phase(k, L) for k, L in cons["phases"]]))]
    for sys, got, want in pairs:
        assert [r.word for r in got] == [r.word for r in want]
        assert [r.text for r in got] == [r.text for r in want]
        a, b = eigenbasis_or_error(sys, got), eigenbasis_or_error(sys, want)
        assert isinstance(b, str) == (case == "neg_bad_row")  # its rows do not commute
        if isinstance(b, str):
            assert a == b
        else:
            assert all(np.array_equal(u, v) for u, v in zip(a, b, strict=True))


def test_eigenbasis_memory_stays_near_the_basis():
    # the walk's O(D) integer arrays, one step exponent array per row, and
    # the basis as one column index and one value per row: at most 256
    # bytes a row (D 4096, K 256: 1 MB, where a dense basis alone is 16 MB)
    sys, rows = pasted_rows(3)
    tracemalloc.start()
    try:
        col, val = stabilizer_eigenbasis(sys, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert col.shape == val.shape == (4096,) and col.max() + 1 == 256
    assert peak <= 256 * len(col)


systems = st.lists(st.lists(st.integers(2, 5), min_size=1, max_size=2),
                   min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(systems, st.data(), st.integers(0, 12))
def test_row_power_matches_repeated_compose(factors, data, k):
    sys = MixedSystem(tuple(tuple(f) for f in factors))
    digits = lambda: tuple(tuple(data.draw(st.integers(0, m - 1)) for m in f)
                           for f in sys.factors)
    w = ErrorWord(digits(), digits(), Phase(data.draw(st.integers(0, 11)), 12))
    tab = _Tableau(sys, [w])
    want = (np.zeros_like(tab.digits), np.zeros(1, np.int64))
    for _ in range(k):
        want = tab.mul(want, (tab.digits, tab.P))
    got = tab.powers(0, np.array([k]))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


# --- the stabilizer tableau against dense matrices ---------------------------

small_systems = st.lists(st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=2),
                         min_size=1, max_size=3).filter(
    lambda fs: np.prod([m for f in fs for m in f]) <= 64)


def dense_power(E, k):
    return np.linalg.matrix_power(E, int(k))


def is_scalar(M, value=None):
    value = M[0, 0] if value is None else value
    return np.allclose(M, value * np.eye(len(M)), atol=1e-9)


def dense_projector(E):
    """(1/k) sum_{j<k} E^j over the operator order k, the smallest with
    E^k = I: the projector onto the +1 eigenspace of E, zero if none."""
    powers = [np.eye(len(E), dtype=complex)]
    while not is_scalar(powers[-1] @ E, 1.0):
        powers.append(powers[-1] @ E)
    return sum(powers) / len(powers)


@settings(max_examples=150, deadline=None)
@given(small_systems, st.data())
def test_tableau_matches_dense_oracle(factors, data):
    sys = MixedSystem(tuple(tuple(f) for f in factors))
    # half the digits zero, so that more rows commute
    digit = lambda m: st.one_of(st.just(0), st.integers(0, m - 1))
    digits = lambda: tuple(tuple(data.draw(digit(m)) for m in f) for f in sys.factors)
    L = math.lcm(*sys.flat_dims())
    words = []
    all_close = data.draw(st.booleans())
    for _ in range(data.draw(st.integers(1, 5))):
        w = ErrorWord(digits(), digits())
        if all_close or data.draw(st.booleans()):
            # a phase that closes the row, read off the dense matrix:
            # E^o = w_L^c I, so (lam E)^o = I for lam = w_{L o}^(jL - c)
            E = error_matrix(w, sys)
            o = next(k for k in range(1, L + 1) if is_scalar(dense_power(E, k)))
            c = round(np.angle(dense_power(E, o)[0, 0]) / (2 * np.pi) * L) % L
            phase = Phase(data.draw(st.integers(0, o - 1)) * L - c, L * o)
        else:
            phase = Phase(data.draw(st.integers(0, 11)), 12)
        words.append(ErrorWord(w.x, w.z, phase))
    tab = _Tableau(sys, words)
    mats = [error_matrix(w, sys) for w in words]
    omega_N = lambda e: np.exp(2j * np.pi * int(e) / tab.N)

    C = tab.commutators()
    for a, Ea in enumerate(mats):
        for b, Eb in enumerate(mats):
            assert np.allclose(Ea @ Eb, omega_N(C[a, b]) * (Eb @ Ea), atol=1e-9)

    for E, o, e in zip(mats, tab.orders, tab.closing()):
        assert is_scalar(dense_power(E, o), omega_N(e))
        assert not any(is_scalar(dense_power(E, k)) for k in range(1, o))

    # the eigenspace of a commuting subset: the trace of the product of
    # the rows' projectors
    subset = []
    for w, E in zip(words, mats):
        if all(np.allclose(E @ F, F @ E, atol=1e-9) for _, F in subset):
            subset.append((w, E))
    proj = np.eye(sys.total_dim, dtype=complex)
    for _, E in subset:
        proj = proj @ dense_projector(E)
    dim = _Tableau(sys, [w for w, _ in subset]).eigenspace_dim()
    assert abs(dim - np.trace(proj).real) < 1e-9


def test_eigenspace_dim_of_rows_that_do_not_close():
    # (w_6^5 ZZ)^2 and (i XX)^2 are nontrivial scalars: no +1 eigenvector
    sys = MixedSystem(((2,), (2,)))
    rows = [parse_stabilizer_row(sys, ("ZZ",), Phase(5, 6)).word,
            parse_stabilizer_row(sys, ("XX",), Phase(1, 4)).word]
    assert _Tableau(sys, rows).eigenspace_dim() == 0.0


@pytest.mark.parametrize("phase, dim", [(PHASE_MINUS_ONE, 1), (PHASE_ONE, 0)])
def test_eigenspace_dim_hinges_on_the_phase_of_a_product(phase, dim):
    # ZX and XZ commute, and moving Z past X gives their product the phase
    # -1: the third row is that product exactly, or its negative
    sys = MixedSystem(((2,), (2,)))
    rows = [parse_stabilizer_row(sys, ("ZX",)).word,
            parse_stabilizer_row(sys, ("XZ",)).word,
            ErrorWord(((1,), (1,)), ((1,), (1,)), phase)]
    proj = np.eye(sys.total_dim, dtype=complex)
    for w in rows:
        proj = proj @ dense_projector(error_matrix(w, sys))
    assert _Tableau(sys, rows).eigenspace_dim() == round(np.trace(proj).real) == dim
