"""Graph states and clique codewords: ``Code.basis`` of a clique against
a gate-by-gate oracle, and the exact stabilizer words and reductions of
shift/phase words on graph states."""
import itertools
import math

import numpy as np
import pytest

from mixedqec.algebra import PHASE_ONE, ModVec, phase_as_complex, phase_mul
from mixedqec.certificates import build_code, load_certificate
from mixedqec.cli import _default_fixture_dir
from mixedqec.clique import CodingClique
from mixedqec.errors import MixedSystem, apply_error
from mixedqec.graphs import WeightedGraph, loop_graph
from mixedqec.verifier import Code
from oracles import (
    dot_mod, graph_action, label_is_identity, omega, quadratic_form, stabilizer_error_word,
    word_from_layers,
)

FIXTURES = _default_fixture_dir()
W4 = WeightedGraph(3, 4, ((0, 2, 1), (2, 0, 3), (1, 3, 0)))


def empty_graph(n, m):
    return WeightedGraph(n, m, tuple(tuple(0 for _ in range(n)) for _ in range(n)))


def clique(graphs, vectors):
    """A clique over graphs whose vectors are given as per-layer entry
    tuples; it is not checked, only its codewords are built."""
    return CodingClique(graphs=tuple(graphs), d=1, vectors=tuple(
        tuple(ModVec(g.m, tuple(part)) for g, part in zip(graphs, v)) for v in vectors))


def codeword_basis(graphs, *vectors):
    """Code.basis of the clique with the given vectors, or of the zero
    vector alone."""
    vectors = vectors or (tuple((0,) * g.n for g in graphs),)
    return Code.from_clique(clique(graphs, vectors)).basis()


def state(G):
    """|G> as Code.basis builds it."""
    return codeword_basis([G])[:, 0]


def gate_oracle(graphs, cs=None):
    """Z^c |G> on the layered system of graphs: controlled-phase gates
    applied to the uniform superposition one edge at a time, then Z^{c_l}
    on each layer, in the per-particle axis layout (the layers of a
    particle adjacent); cs holds one entry tuple per layer, zero if None."""
    sys = MixedSystem.layered([(g.m, g.n) for g in graphs])
    flat = sys.flat_dims()
    starts = np.cumsum([0] + [len(f) for f in sys.factors])
    j = np.indices(flat)
    amps = np.full(flat, sys.total_dim ** -0.5, dtype=complex)
    for l, g in enumerate(graphs):
        digit = [j[starts[i] + l] for i in range(g.n)]  # layer l of particle i
        w = np.exp(2j * np.pi / g.m)
        for a in range(g.n):
            for b in range(a + 1, g.n):
                if g.adj[a][b]:
                    amps = amps * w ** (g.adj[a][b] * digit[a] * digit[b] % g.m)
        for i, c in enumerate(cs[l] if cs else ()):
            amps = amps * w ** (c * digit[i] % g.m)
    return amps.reshape(-1)


def reduce_word(s, t, G):
    """(phi, c) with X^s Z^t |G> = phi Z^c |G>: phi = w^{Q(s) - t.s},
    c = t - s.Gamma."""
    return omega(G.m, quadratic_form(s, G) - dot_mod(t, s)), t - graph_action(s, G)


def test_plus_state():
    np.testing.assert_allclose(state(empty_graph(1, 2)), np.array([1, 1]) / np.sqrt(2))


def test_single_edge_qubits():
    G = WeightedGraph(2, 2, ((0, 1), (1, 0)))
    np.testing.assert_allclose(state(G), np.array([1, 1, 1, -1]) / 2)


def test_triangle_qutrits_matches_gate_oracle():
    G = loop_graph(3, 3, 1)
    np.testing.assert_allclose(state(G), gate_oracle([G]), atol=1e-12)


def test_weighted_graph_matches_gate_oracle():
    np.testing.assert_allclose(state(W4), gate_oracle([W4]), atol=1e-12)


def fixture_clique(name):
    return build_code(load_certificate(FIXTURES / name), FIXTURES).clique


@pytest.mark.parametrize("cl", [
    # ragged layers on Z_2: six particles, the deeper layer on five
    fixture_clique("6_8_3_mixed.json"),
    # Z_2 + Z_3 layers, w_6 phases
    clique([loop_graph(3, 2), loop_graph(3, 3)],
           [((0, 0, 0), (0, 0, 0)), ((1, 0, 1), (0, 1, 2)), ((0, 1, 1), (2, 2, 1))]),
    # ragged Z_4 + Z_2 layers
    clique([loop_graph(4, 4), loop_graph(3, 2)],
           [((0, 0, 0, 0), (0, 0, 0)), ((3, 1, 0, 2), (1, 1, 0))]),
    # the weighted Z_4 triangle
    clique([W4], [((0, 0, 0),), ((1, 2, 3),), ((2, 0, 1),), ((3, 3, 3),)]),
], ids=["6_8_3_mixed", "z2_z3", "ragged_z4_z2", "weighted_z4"])
def test_clique_basis_matches_gate_oracle(cl):
    B = Code.from_clique(cl).basis()
    assert B.shape == (cl.system().total_dim, cl.K) and cl.K > 1
    for k, v in enumerate(cl.vectors):
        want = gate_oracle(cl.graphs, [part.entries for part in v])
        np.testing.assert_allclose(B[:, k], want, atol=1e-12)


@pytest.mark.parametrize("name", ["3_4_2_q4.json", "6_8_3_mixed.json"])
def test_qubit_layer_clique_basis_is_exactly_real(name):
    # every amplitude is +-D^{-1/2}: the imaginary part is exactly zero
    B = Code.from_clique(fixture_clique(name)).basis()
    s = 1 / math.sqrt(B.shape[0])
    assert B.dtype == complex and not B.imag.any()
    assert np.all((B.real == s) | (B.real == -s))


def test_z4_layer_clique_basis_is_exactly_a_quarter_turn():
    # on a Z_4 layer every amplitude is one of 1, i, -1, -i times D^{-1/2},
    # with the other part exactly zero
    B = Code.from_clique(clique(
        [W4], [((0, 0, 0),), ((1, 2, 3),), ((2, 0, 1),), ((3, 3, 3),)])).basis()
    s = 1 / math.sqrt(B.shape[0])
    re, im = np.abs(B.real), np.abs(B.imag)
    assert np.all((re == s) & (im == 0) | (re == 0) & (im == s))
    assert B.imag.any() and B.real.any()


def test_stabilizer_word_zero_label():
    G = loop_graph(3, 2, 1)
    w = stabilizer_error_word(MixedSystem.layered([(G.m, G.n)]), (G,),
                              (ModVec.zeros(2, 3),))
    assert w.phase == PHASE_ONE and label_is_identity(w)


def test_stabilizer_word_c6_neighbors():
    G = loop_graph(6, 2, 1)
    w = stabilizer_error_word(MixedSystem.layered([(G.m, G.n)]), (G,),
                              (ModVec(2, (1, 0, 0, 0, 0, 0)),))
    assert w.phase == PHASE_ONE
    assert [xi[0] for xi in w.x] == [1, 0, 0, 0, 0, 0]
    assert [zi[0] for zi in w.z] == [0, 1, 0, 0, 0, 1]


@pytest.mark.parametrize("G", [
    loop_graph(3, 2, 1),
    loop_graph(4, 2, 1),
    loop_graph(6, 2, 1),
    loop_graph(3, 3, 1),
    loop_graph(5, 3, 1),
    W4,
])
def test_stabilizer_words_fix_the_state(G):
    sys1 = MixedSystem.layered([(G.m, G.n)])
    sv = state(G)
    for entries in itertools.product(range(G.m), repeat=G.n):
        w = stabilizer_error_word(sys1, (G,), (ModVec(G.m, entries),))
        got = apply_error(w, sys1, sv)
        np.testing.assert_allclose(got, sv, atol=1e-9)


@pytest.mark.parametrize("G", [
    loop_graph(3, 2, 1),
    loop_graph(3, 3, 1),
    W4,
])
def test_reduce_matches_numeric_action(G):
    sys1 = MixedSystem.layered([(G.m, G.n)])
    sv = state(G)
    for s_ent in itertools.product(range(G.m), repeat=G.n):
        for t_ent in itertools.product(range(G.m), repeat=G.n):
            s, t = ModVec(G.m, s_ent), ModVec(G.m, t_ent)
            phi, c = reduce_word(s, t, G)
            word = word_from_layers(sys1, [s], [t])
            lhs = apply_error(word, sys1, sv)
            rhs_word = word_from_layers(sys1, [ModVec.zeros(G.m, G.n)], [c])
            rhs = phase_as_complex(phi) * apply_error(rhs_word, sys1, sv)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_reduce_zero_shift_is_identity_phase():
    G = loop_graph(6, 2, 1)
    t = ModVec(2, (1, 0, 1, 1, 0, 0))
    phi, c = reduce_word(ModVec.zeros(2, 6), t, G)
    assert phi == PHASE_ONE and c == t


def test_reduce_of_stabilizer_word_is_trivial():
    for G in (loop_graph(6, 2, 1), loop_graph(5, 3, 1), loop_graph(3, 3, 2)):
        for entries in itertools.product(range(G.m), repeat=G.n):
            s = ModVec(G.m, entries)
            w = stabilizer_error_word(MixedSystem.layered([(G.m, G.n)]), (G,), (s,))
            phi, c = reduce_word(s, graph_action(s, G), G)
            # the word's own phase cancels the reduction phase exactly
            assert phase_mul(w.phase, phi) == PHASE_ONE
            assert not any(c.entries)


class TestCodewordState:
    def test_plain_product(self):
        G = loop_graph(3, 2, 1)
        a = state(G).reshape(2, 2, 2)
        want = np.einsum("abc,xyz->axbycz", a, a).reshape(-1)
        np.testing.assert_allclose(codeword_basis([G, G])[:, 0], want, atol=1e-12)

    def test_full_phase_basis_is_orthonormal(self):
        G = loop_graph(3, 2, 1)
        labels = list(itertools.product(range(2), repeat=3))
        B = codeword_basis([G, G], *itertools.product(labels, labels))
        assert B.shape == (64, 64)
        np.testing.assert_allclose(B.conj().T @ B, np.eye(64), atol=1e-9)

    def test_ragged_layers_partial_coverage(self):
        Gp, Gr = loop_graph(4, 2, 1), loop_graph(3, 2, 1)
        code = Code.from_clique(clique([Gp, Gr], [((0, 0, 0, 0), (1, 0, 0))]))
        assert code.system.flat_dims() == (2, 2, 2, 2, 2, 2, 2)
        assert code.basis().shape == (128, 1)

    def test_rejects_misordered_layers(self):
        with pytest.raises(ValueError):
            codeword_basis([loop_graph(3, 2, 1), loop_graph(4, 2, 1)])


def test_joint_stabilizer_eigenvalue_on_codewords():
    # Z^c|G> is an eigenvector of the exact stabilizer with eigenvalue w^{-s.c}
    Gp, Gr = loop_graph(3, 2, 1), loop_graph(3, 2, 1)
    sys = MixedSystem.layered([(Gp.m, Gp.n), (Gr.m, Gr.n)])
    cp, cr = ModVec(2, (1, 0, 0)), ModVec(2, (0, 1, 0))
    state_c = codeword_basis([Gp, Gr], (cp.entries, cr.entries))[:, 0]
    for sp_ent in itertools.product(range(2), repeat=3):
        for sr_ent in itertools.product(range(2), repeat=3):
            sp, sr = ModVec(2, sp_ent), ModVec(2, sr_ent)
            w = stabilizer_error_word(sys, [Gp, Gr], [sp, sr])
            got = apply_error(w, sys, state_c)
            sign = (-1.0) ** ((dot_mod(sp, cp) + dot_mod(sr, cr)) % 2)
            np.testing.assert_allclose(got, sign * state_c, atol=1e-9)
