import itertools

import numpy as np
import pytest

from mixedqec.algebra import PHASE_ONE, ModVec, phase_as_complex
from mixedqec.errors import MixedSystem, apply_error
from mixedqec.graphs import WeightedGraph, graph_action, loop_graph
from mixedqec.graphstate import (
    StateVector,
    codeword_state,
    graph_state_vector,
    reduce_to_phase_op,
    stabilizer_error_word,
)


def empty_graph(n, m):
    return WeightedGraph(n, m, tuple(tuple(0 for _ in range(n)) for _ in range(n)))


def gate_oracle(G):
    """Build the graph state by applying controlled-phase gates to the
    uniform superposition, one edge at a time."""
    n, m = G.n, G.m
    amps = np.full((m,) * n, m ** (-n / 2), dtype=complex)
    w = np.exp(2j * np.pi / m)
    for a in range(n):
        for b in range(a + 1, n):
            if G.adj[a][b] == 0:
                continue
            ja = np.indices((m,) * n)[a]
            jb = np.indices((m,) * n)[b]
            amps = amps * w ** (G.adj[a][b] * ja * jb)
    return amps.reshape(-1)


def test_plus_state():
    sv = graph_state_vector(empty_graph(1, 2))
    np.testing.assert_allclose(sv.amplitudes, np.array([1, 1]) / np.sqrt(2))


def test_single_edge_qubits():
    G = WeightedGraph(2, 2, ((0, 1), (1, 0)))
    sv = graph_state_vector(G)
    np.testing.assert_allclose(sv.amplitudes, np.array([1, 1, 1, -1]) / 2)


def test_triangle_qutrits_matches_gate_oracle():
    G = loop_graph(3, 3, 1)
    np.testing.assert_allclose(graph_state_vector(G).amplitudes, gate_oracle(G), atol=1e-12)


def test_weighted_graph_matches_gate_oracle():
    G = WeightedGraph(3, 4, ((0, 2, 1), (2, 0, 3), (1, 3, 0)))
    np.testing.assert_allclose(graph_state_vector(G).amplitudes, gate_oracle(G), atol=1e-12)


def test_state_vector_validates_norm():
    with pytest.raises(ValueError):
        StateVector((2,), np.array([1.0, 1.0]))


def test_stabilizer_word_zero_label():
    G = loop_graph(3, 2, 1)
    w = stabilizer_error_word(MixedSystem.layered([(G.m, G.n)]), (G,),
                              (ModVec.zeros(2, 3),))
    assert w.phase == PHASE_ONE and w.label_is_identity()


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
    WeightedGraph(3, 4, ((0, 2, 1), (2, 0, 3), (1, 3, 0))),
])
def test_stabilizer_words_fix_the_state(G):
    sys1 = MixedSystem.layered([(G.m, G.n)])
    sv = graph_state_vector(G).amplitudes
    for entries in itertools.product(range(G.m), repeat=G.n):
        w = stabilizer_error_word(sys1, (G,), (ModVec(G.m, entries),))
        got = apply_error(w, sys1, sv)
        np.testing.assert_allclose(got, sv, atol=1e-9)


@pytest.mark.parametrize("G", [
    loop_graph(3, 2, 1),
    loop_graph(3, 3, 1),
    WeightedGraph(3, 4, ((0, 2, 1), (2, 0, 3), (1, 3, 0))),
])
def test_reduce_matches_numeric_action(G):
    sys1 = MixedSystem.layered([(G.m, G.n)])
    sv = graph_state_vector(G).amplitudes
    for s_ent in itertools.product(range(G.m), repeat=G.n):
        for t_ent in itertools.product(range(G.m), repeat=G.n):
            s, t = ModVec(G.m, s_ent), ModVec(G.m, t_ent)
            phi, c = reduce_to_phase_op(s, t, G)
            from mixedqec.errors import ErrorWord
            word = ErrorWord.from_layers(sys1, [s], [t])
            lhs = apply_error(word, sys1, sv)
            rhs_word = ErrorWord.from_layers(sys1, [ModVec.zeros(G.m, G.n)], [c])
            rhs = phase_as_complex(phi) * apply_error(rhs_word, sys1, sv)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_reduce_zero_shift_is_identity_phase():
    G = loop_graph(6, 2, 1)
    t = ModVec(2, (1, 0, 1, 1, 0, 0))
    phi, c = reduce_to_phase_op(ModVec.zeros(2, 6), t, G)
    assert phi == PHASE_ONE and c == t


def test_reduce_of_stabilizer_word_is_trivial():
    for G in (loop_graph(6, 2, 1), loop_graph(5, 3, 1), loop_graph(3, 3, 2)):
        for entries in itertools.product(range(G.m), repeat=G.n):
            s = ModVec(G.m, entries)
            w = stabilizer_error_word(MixedSystem.layered([(G.m, G.n)]), (G,), (s,))
            phi, c = reduce_to_phase_op(s, graph_action(s, G), G)
            # the word's own phase cancels the reduction phase exactly
            from mixedqec.algebra import phase_mul
            assert phase_mul(w.phase, phi) == PHASE_ONE
            assert not any(c.entries)


class TestCodewordState:
    def test_plain_product(self):
        Gp, Gr = loop_graph(3, 2, 1), loop_graph(3, 2, 1)
        sv = codeword_state([ModVec.zeros(2, 3), ModVec.zeros(2, 3)], [Gp, Gr])
        a = graph_state_vector(Gp).amplitudes.reshape(2, 2, 2)
        want = np.einsum("abc,xyz->axbycz", a, a).reshape(-1)
        np.testing.assert_allclose(sv.amplitudes, want, atol=1e-12)
        assert sv.dims == (2, 2, 2, 2, 2, 2)

    def test_full_phase_basis_is_orthonormal(self):
        G = loop_graph(3, 2, 1)
        states = []
        for cp in itertools.product(range(2), repeat=3):
            for cr in itertools.product(range(2), repeat=3):
                sv = codeword_state([ModVec(2, cp), ModVec(2, cr)], [G, G])
                states.append(sv.amplitudes)
        B = np.stack(states, axis=1)
        np.testing.assert_allclose(B.conj().T @ B, np.eye(64), atol=1e-9)

    def test_ragged_layers_partial_coverage(self):
        Gp, Gr = loop_graph(4, 2, 1), loop_graph(3, 2, 1)
        sv = codeword_state([ModVec.zeros(2, 4), ModVec(2, (1, 0, 0))], [Gp, Gr])
        assert sv.dims == (2, 2, 2, 2, 2, 2, 2)

    def test_rejects_misordered_layers(self):
        with pytest.raises(ValueError):
            codeword_state([ModVec.zeros(2, 3), ModVec.zeros(2, 4)],
                           [loop_graph(3, 2, 1), loop_graph(4, 2, 1)])


def test_joint_stabilizer_eigenvalue_on_codewords():
    # Z^c|G> is an eigenvector of the exact stabilizer with eigenvalue w^{-s.c}
    Gp, Gr = loop_graph(3, 2, 1), loop_graph(3, 2, 1)
    sys = MixedSystem.layered([(Gp.m, Gp.n), (Gr.m, Gr.n)])
    cp, cr = ModVec(2, (1, 0, 0)), ModVec(2, (0, 1, 0))
    state = codeword_state([cp, cr], [Gp, Gr]).amplitudes
    for sp_ent in itertools.product(range(2), repeat=3):
        for sr_ent in itertools.product(range(2), repeat=3):
            sp, sr = ModVec(2, sp_ent), ModVec(2, sr_ent)
            w = stabilizer_error_word(sys, [Gp, Gr], [sp, sr])
            got = apply_error(w, sys, state)
            from mixedqec.algebra import dot_mod
            sign = (-1.0) ** ((dot_mod(sp, cp) + dot_mod(sr, cr)) % 2)
            np.testing.assert_allclose(got, sign * state, atol=1e-9)
