"""Level projection: expansions, required error sets, projected codes."""
import functools
import itertools
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixedqec.algebra import ModVec
from mixedqec.errors import ConstructionInputError, ErrorWord, MixedSystem
from mixedqec.graphs import loop_graph
from mixedqec.clique import CodingClique
from mixedqec.verifier import Code, kl_verify_numeric, kl_verify_words
from mixedqec.projection import ProjectorSpec, project_code, required_detectable_set
from oracles import enumerate_errors, error_matrix, label_is_identity, projected_error

W3 = np.exp(2j * np.pi / 3)

QUTRIT5 = MixedSystem(((3,),) * 5)
KEEP_ALL3 = tuple(range(3))


def spec_ex5():
    return ProjectorSpec(QUTRIT5, (KEEP_ALL3,) * 4 + ((0, 1),))


def ancilla_code_ex5():
    labels = ["00000", "01020", "02110", "11010", "10222",
              "12200", "20210", "21102", "22120"]
    vecs = tuple((ModVec.of(3, tuple(int(c) for c in s)),) for s in labels)
    cl = CodingClique(graphs=(loop_graph(5, 3),), d=2, vectors=vecs)
    return Code.from_clique(cl)


def mixed_word(P, particle, a, b):
    sys = P.mixed_system()
    xs = [(0,)] * sys.n
    zs = [(0,)] * sys.n
    xs[particle] = (a,)
    zs[particle] = (b,)
    return ErrorWord(tuple(xs), tuple(zs))


def projector_terms(P):
    """The Pauli expansion of the projector itself, P^dag I P = P, keyed
    by the (x, z) digits of every particle."""
    sys = P.mixed_system()
    return {tuple((w.x[i][0], w.z[i][0]) for i in range(sys.n)): c
            for c, w in projected_error(ErrorWord.identity(sys), P)}


def particle_terms(P, particle):
    """The expansion of one particle's kept-level projector, read off
    the terms that are the identity on every other particle."""
    return {digits[particle]: c for digits, c in projector_terms(P).items()
            if all(ab == (0, 0) for i, ab in enumerate(digits) if i != particle)}


def dense_pauli(q, a, b):
    m = np.zeros((q, q), dtype=complex)
    for j in range(q):
        m[(j + a) % q, j] = np.exp(2j * np.pi * b * j / q)
    return m


class TestSpec:
    def test_all_levels_is_identity(self):
        P = ProjectorSpec(QUTRIT5, (KEEP_ALL3,) * 5)
        assert P.to_json() == {"keep": {}}
        assert P.kept_dims == (3, 3, 3, 3, 3)
        assert projector_terms(P) == {((0, 0),) * 5: pytest.approx(1)}

    def test_kept_dims_and_mixed_system(self):
        P = spec_ex5()
        assert P.kept_dims == (3, 3, 3, 3, 2)
        assert P.mixed_system().dims == (3, 3, 3, 3, 2)

    def test_rejects_empty_keep(self):
        with pytest.raises(ValueError):
            ProjectorSpec(QUTRIT5, (KEEP_ALL3,) * 4 + ((),))

    @pytest.mark.parametrize("levels", [(0,), (0, 0), (2,)])
    def test_rejects_one_level_keep(self, levels):
        with pytest.raises(ValueError, match="particle 5 keeps 1 level"):
            ProjectorSpec(QUTRIT5, (KEEP_ALL3,) * 4 + (levels,))
        with pytest.raises(ValueError, match="particle 5 keeps 1 level"):
            ProjectorSpec.from_json(QUTRIT5, {"keep": {"5": list(levels)}})

    @pytest.mark.parametrize("levels", [(0.5, 1), (0, 1.0), (True, 0), ("0", "1")])
    def test_rejects_levels_that_are_not_integers(self, levels):
        with pytest.raises(ValueError, match="particle 5 must be integers"):
            ProjectorSpec(QUTRIT5, (KEEP_ALL3,) * 4 + (levels,))
        with pytest.raises(ValueError, match="particle 5 must be integers"):
            ProjectorSpec.from_json(QUTRIT5, {"keep": {"5": list(levels)}})

    def test_numpy_integer_levels_are_levels(self):
        P = ProjectorSpec(QUTRIT5, (KEEP_ALL3,) * 4 + (tuple(np.arange(2)),))
        assert P == spec_ex5() and all(type(v) is int for v in P.keep[4])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ProjectorSpec(QUTRIT5, (KEEP_ALL3,) * 4 + ((0, 3),))

    def test_rejects_layered_particles(self):
        sys = MixedSystem(((2, 2), (2, 2)))
        with pytest.raises(ValueError):
            ProjectorSpec(sys, ((0, 1), (0, 1)))

    def test_json_round_trip(self):
        P = spec_ex5()
        js = P.to_json()
        assert js == {"keep": {"5": [0, 1]}}
        assert ProjectorSpec.from_json(QUTRIT5, js) == P

    def test_from_json_rejects_unknown_particle(self):
        with pytest.raises(ValueError):
            ProjectorSpec.from_json(QUTRIT5, {"keep": {"9": [0]}})


class TestPauliExpansion:
    def test_identity_particle(self):
        P = spec_ex5()
        # particles keeping every level contribute only their identity
        assert all(digits[:4] == ((0, 0),) * 4 for digits in projector_terms(P))
        assert set(particle_terms(P, 0)) == {(0, 0)}

    def test_qutrit_keep01_coefficients(self):
        P = spec_ex5()
        terms = particle_terms(P, 4)
        assert set(terms) == {(0, 0), (0, 1), (0, 2)}
        # published form: 2 I + (1 + w^2) Z + (1 + w) Z^2, up to scale
        scale = terms[(0, 0)] / 2
        assert terms[(0, 1)] / scale == pytest.approx(1 + W3 ** 2)
        assert terms[(0, 2)] / scale == pytest.approx(1 + W3)

    def test_reconstruction(self):
        P = ProjectorSpec(QUTRIT5, (KEEP_ALL3,) * 4 + ((0, 2),))
        got = np.zeros((3, 3), dtype=complex)
        for (a, b), c in particle_terms(P, 4).items():
            got += c * dense_pauli(3, a, b)
        want = np.diag([1.0, 0.0, 1.0]).astype(complex)
        assert np.abs(got - want).max() < 1e-12


class TestProjectedError:
    def test_identity_error_gives_projector_expansion(self):
        # the terms of P^dag I P sum to the dense projector
        P = spec_ex5()
        got = sum(c * error_matrix(w, P.system)
                  for c, w in projected_error(ErrorWord.identity(P.mixed_system()), P))
        want = np.kron(np.eye(81), np.diag([1.0, 1.0, 0.0]))
        assert np.abs(got - want).max() < 1e-12

    def test_phase_flip_two_terms(self):
        P = spec_ex5()
        terms = projected_error(mixed_word(P, 4, 0, 1), P)
        got = {(w.x[4][0], w.z[4][0]): c for c, w in terms}
        assert set(got) == {(0, 1), (0, 2)}
        # published form: (1 - w^2) Z + (1 - w) Z^2, up to scale
        assert got[(0, 2)] / got[(0, 1)] == pytest.approx((1 - W3) / (1 - W3 ** 2))

    def test_bit_flip_six_terms(self):
        P = spec_ex5()
        terms = projected_error(mixed_word(P, 4, 1, 0), P)
        got = {(w.x[4][0], w.z[4][0]): c for c, w in terms}
        assert set(got) == {(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)}
        # published form: X + XZ + XZ^2 + X^2 + w^2 X^2 Z + w X^2 Z^2
        base = got[(1, 0)]
        want = {(1, 0): 1, (1, 1): 1, (1, 2): 1,
                (2, 0): 1, (2, 1): W3 ** 2, (2, 2): W3}
        for ab, r in want.items():
            assert got[ab] / base == pytest.approx(r)

    def test_reconstruction_all_single_particle_errors(self):
        P = spec_ex5()
        sysA = P.system
        q = 3
        proj5 = np.diag([1.0, 1.0, 0.0]).astype(complex)
        for e in enumerate_errors(P.mixed_system(), 1):
            # independent dense oracle on the touched particle
            i = next(iter({k for k in range(5)
                           if e.x[k][0] or e.z[k][0]}))
            a, b = e.x[i][0], e.z[i][0]
            kept = P.keep[i]
            p = len(kept)
            emb = np.zeros((q, q), dtype=complex)
            for j in range(p):
                emb[kept[(j + a) % p], kept[j]] = np.exp(2j * np.pi * b * j / p)
            mats = [np.eye(q, dtype=complex)] * 5
            mats[i] = emb
            mats[4] = proj5 @ mats[4] @ proj5
            want = mats[0]
            for m in mats[1:]:
                want = np.kron(want, m)
            got = np.zeros_like(want)
            for c, w in projected_error(e, P):
                got += c * error_matrix(w, sysA)
            assert np.abs(got - want).max() < 1e-12

    def test_commuting_error_factorizes(self):
        # an error on an unprojected particle passes through the
        # projector, so its expansion is the error times P's own terms
        P = spec_ex5()
        terms = projected_error(mixed_word(P, 1, 1, 2), P)
        own = particle_terms(P, 4)
        assert len(terms) == len(own)
        for c, w in terms:
            assert (w.x[1][0], w.z[1][0]) == (1, 2)
            assert c == pytest.approx(own[(w.x[4][0], w.z[4][0])])


class TestRequiredSet:
    def test_identity_projector_reduces_to_weight_ball(self):
        P = ProjectorSpec(QUTRIT5, (KEEP_ALL3,) * 5)
        req = required_detectable_set(P, d=2)
        ball = [(e.x, e.z) for e in enumerate_errors(QUTRIT5, 1)]
        assert sorted((w.x, w.z) for w in req) == sorted(ball)

    def test_fixture_count_and_oracle(self):
        P = spec_ex5()
        req = required_detectable_set(P, d=2)
        assert len(req) == 104
        # oracle: every 1-bit ancilla error, plus Z5- and Z5^2-dressed
        # 1-bit errors on particles 1..4, minus pure particle-5 words
        # outside the X'/Z' expansions
        words = {(w.x, w.z) for w in req}
        for e in enumerate_errors(QUTRIT5, 1):
            i = next(iter({k for k in range(5) if e.x[k][0] or e.z[k][0]}))
            if i < 4:
                assert (e.x, e.z) in words
                for power in (1, 2):
                    z = list(e.z)
                    z[4] = (power,)
                    assert (e.x, tuple(z)) in words

    def test_rejects_d1(self):
        with pytest.raises(ValueError):
            required_detectable_set(spec_ex5(), d=1)

    def test_excludes_identity_word(self):
        req = required_detectable_set(spec_ex5(), d=2)
        assert all(not label_is_identity(w) for w in req)


class TestProjectCode:
    def test_identity_projector_keeps_code(self):
        anc = ancilla_code_ex5()
        P = ProjectorSpec(QUTRIT5, (KEEP_ALL3,) * 5)
        out = project_code(anc, P)
        assert np.abs(out.basis() - anc.basis()).max() < 1e-12

    def test_example_code_passes_kl(self):
        anc = ancilla_code_ex5()
        P = spec_ex5()
        req = required_detectable_set(P, d=2)
        assert kl_verify_words(anc, req).ok
        out = project_code(anc, P)
        assert out.system.dims == (3, 3, 3, 3, 2)
        assert out.K == 9
        gram = out.basis().conj().T @ out.basis()
        assert np.abs(gram - np.eye(9)).max() < 1e-9
        rep = kl_verify_numeric(out, 2)
        assert rep.ok and rep.max_deviation < 1e-9

    def test_projected_norms(self):
        # every codeword keeps exactly 2 of the 3 levels of particle 5,
        # uniformly, so the surviving weight is 2/3
        anc = ancilla_code_ex5()
        B = anc.basis()
        P = spec_ex5()
        shape = (3, 3, 3, 3, 3)
        grid = np.ix_(*[list(s) for s in P.keep])
        for l in range(9):
            amp = B[:, l].reshape(shape)[grid]
            assert np.sum(np.abs(amp) ** 2) == pytest.approx(2 / 3)

    def test_vanishing_codeword_rejected(self):
        col = np.zeros((243, 1), dtype=complex)
        col[242] = 1.0  # the all-level-2 state, killed by keep {0,1}
        anc = Code.from_basis(QUTRIT5, col, d=2)
        with pytest.raises(ValueError):
            project_code(anc, spec_ex5())

    def test_system_mismatch_rejected(self):
        anc = ancilla_code_ex5()
        other = ProjectorSpec(MixedSystem(((3,),) * 4), ((0, 1),) * 4)
        with pytest.raises(ConstructionInputError, match="does not match"):
            project_code(anc, other)


class TestDetectionTransfer:
    def test_detection_implies_projected_kl(self):
        # random distinct-vector sets on a 3-vertex qutrit loop; whenever
        # the ancilla detects the required words, the projected code must
        # pass numeric KL at d=2
        import random
        rnd = random.Random(424242)
        L3q = loop_graph(3, 3)
        sysA = MixedSystem(((3,),) * 3)
        P = ProjectorSpec(sysA, (KEEP_ALL3, KEEP_ALL3, (0, 1)))
        req = required_detectable_set(P, d=2)
        pool = list(itertools.product(range(3), repeat=3))[1:]
        hits = 0
        for _ in range(40):
            picks = rnd.sample(pool, rnd.choice((0, 1, 2)))
            vecs = ((ModVec.zeros(3, 3),),) + tuple(
                (ModVec.of(3, p),) for p in picks)
            anc = Code.from_clique(
                CodingClique(graphs=(L3q,), d=2, vectors=vecs))
            if kl_verify_words(anc, req).ok:
                hits += 1
                out = project_code(anc, P)
                assert kl_verify_numeric(out, 2).ok
        # K = 1 draws detect vacuously, so the implication always fires
        assert hits > 0


@functools.lru_cache(maxsize=None)
def dense_particle_terms(q, kept, a, b):
    """The kept-level word X^a Z^b of one particle, embedded in the q
    levels as a dense matrix and expanded by q^2 traces; terms at or
    below 1e-12 dropped."""
    p = len(kept)
    emb = np.zeros((q, q), dtype=complex)
    for j in range(p):
        emb[kept[(j + a) % p], kept[j]] = np.exp(2j * np.pi * b * j / p)
    out = []
    for alpha, beta in itertools.product(range(q), repeat=2):
        c = np.trace(dense_pauli(q, alpha, beta).conj().T @ emb) / q
        if abs(c) > 1e-12:
            out.append((complex(c), (alpha, beta)))
    return tuple(out)


def dense_projected_error(e, P):
    """P^dag E P term by term: per-particle dense expansions multiplied
    out, products at or below 1e-12 dropped."""
    per_particle = [dense_particle_terms(f[0], kept, e.x[i][0], e.z[i][0])
                    for i, (f, kept) in enumerate(zip(P.system.factors, P.keep))]
    out = []
    for combo in itertools.product(*per_particle):
        c = complex(np.prod([c for c, _ in combo]))
        if abs(c) > 1e-12:
            out.append((c, tuple(ab for _, ab in combo)))
    return out


@st.composite
def projectors(draw):
    """A projector on 1..4 particles of 2..6 levels, each keeping at
    least two, with ancilla dimension at most 48, and a distance 2 or 3."""
    n = draw(st.integers(1, 4))
    qs = []
    for i in range(n):
        room = 48 // (prod(qs) * 2 ** (n - 1 - i))
        qs.append(draw(st.integers(2, min(6, room))))
    qs = draw(st.permutations(qs))
    keep = tuple(tuple(sorted(draw(st.sets(st.integers(0, q - 1), min_size=2))))
                 for q in qs)
    d = draw(st.integers(2, min(3, n + 1)))
    return ProjectorSpec(MixedSystem(tuple((q,) for q in qs)), keep), d


class TestDenseOracle:
    @settings(max_examples=60, deadline=None)
    @given(projectors())
    def test_fast_path_matches_dense_expansion(self, case):
        P, d = case
        seen = set()
        for e in enumerate_errors(P.mixed_system(), d - 1):
            want = dense_projected_error(e, P)
            got = projected_error(e, P)
            assert [tuple((x[0], z[0]) for x, z in zip(w.x, w.z)) for _, w in got] \
                == [digits for _, digits in want]
            assert max((abs(c - cw) for (c, _), (cw, _) in zip(got, want)),
                       default=0) < 1e-12
            seen.update(digits for _, digits in want
                        if any(ab != (0, 0) for ab in digits))
        want_words = sorted((tuple((a,) for a, _ in w), tuple((b,) for _, b in w))
                            for w in seen)
        assert [(w.x, w.z) for w in required_detectable_set(P, d=d)] == want_words
