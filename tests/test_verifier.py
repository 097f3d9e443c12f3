"""Knill-Laflamme verification, distance measurement, stabilizer checks.

The fixture codes are built from their published generator groups; the
numeric verifier is the oracle the symbolic one must agree with.
"""
import itertools
import random

import numpy as np
import pytest

from mixedqec.algebra import ModVec, PHASE_MINUS_ONE, PHASE_ONE
from mixedqec.errors import MixedSystem
from mixedqec.graphs import loop_graph
from mixedqec.clique import CodingClique, check_clique, closure
from mixedqec.verifier import (
    Code, code_distance, kl_verify_numeric, kl_verify_symbolic,
    parse_stabilizer_row, rows_commute, stabilizer_eigenbasis,
    verify_stabilizer,
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
        basis = stabilizer_eigenbasis(code.system, rows, rep.chosen_phases)
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
        assert not rows_commute(sys, a, b)
        assert rows_commute(sys, a, c)

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
