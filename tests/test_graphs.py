import pytest
from hypothesis import given, strategies as st

from mixedqec.algebra import ModVec
from mixedqec.graphs import WeightedGraph, loop_graph
from oracles import dot_mod, graph_action, quadratic_form


def unit(m, n, i):
    return ModVec(m, tuple(1 if j == i else 0 for j in range(n)))


def test_loop_graph_triangle():
    G = loop_graph(3, 2, 1)
    assert G.adj == ((0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_loop_graph_c5_mod3():
    G = loop_graph(5, 3, 1)
    for i in range(5):
        assert G.adj[i][(i + 1) % 5] == 1
        assert G.adj[(i + 1) % 5][i] == 1
    assert sum(w != 0 for row in G.adj for w in row) == 10


def test_loop_graph_c6_edge_count():
    G = loop_graph(6, 2, 1)
    assert sum(w != 0 for row in G.adj for w in row) == 12


def test_loop_graph_rejects_small_n_and_zero_weight():
    with pytest.raises(ValueError):
        loop_graph(2, 2, 1)
    with pytest.raises(ValueError):
        loop_graph(4, 3, 3)


def test_graph_validation():
    with pytest.raises(ValueError):
        WeightedGraph(2, 2, ((0, 1), (0, 0)))  # not symmetric
    with pytest.raises(ValueError):
        WeightedGraph(2, 2, ((1, 0), (0, 0)))  # diagonal
    with pytest.raises(ValueError):
        WeightedGraph(2, 2, ((0,), (0, 0)))  # ragged
    WeightedGraph(2, 3, ((0, 5), (5, 0)))  # entries reduce mod m


def test_graph_action_examples():
    C6 = loop_graph(6, 2, 1)
    assert graph_action(unit(2, 6, 0), C6).entries == (0, 1, 0, 0, 0, 1)
    assert graph_action(ModVec(2, (1,) * 6), C6).entries == (0,) * 6
    L5 = loop_graph(5, 3, 1)
    assert graph_action(unit(3, 5, 1), L5).entries == (1, 0, 1, 0, 0)


def test_graph_action_rejects_mismatch():
    with pytest.raises(ValueError):
        graph_action(ModVec(2, (1, 0)), loop_graph(3, 2, 1))
    with pytest.raises(ValueError):
        graph_action(ModVec(3, (1, 0, 0)), loop_graph(3, 2, 1))


@st.composite
def graph_and_vecs(draw):
    n = draw(st.integers(3, 6))
    m = draw(st.sampled_from([2, 3, 4, 5]))
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            adj[i][j] = adj[j][i] = draw(st.integers(0, m - 1))
    G = WeightedGraph(n, m, tuple(tuple(r) for r in adj))
    a = ModVec(m, tuple(draw(st.integers(0, m - 1)) for _ in range(n)))
    b = ModVec(m, tuple(draw(st.integers(0, m - 1)) for _ in range(n)))
    return G, a, b


@given(graph_and_vecs())
def test_graph_action_linear(gab):
    G, a, b = gab
    assert graph_action(a + b, G) == graph_action(a, G) + graph_action(b, G)


@given(graph_and_vecs())
def test_graph_action_self_adjoint(gab):
    G, a, b = gab
    assert dot_mod(graph_action(a, G), b) == dot_mod(a, graph_action(b, G))


def test_quadratic_form_triangle():
    G = loop_graph(3, 2, 1)
    assert quadratic_form(ModVec(2, (1, 1, 0)), G) == 1
    assert quadratic_form(ModVec(2, (1, 0, 0)), G) == 0
    assert quadratic_form(ModVec(2, (1, 1, 1)), G) == 1


@given(graph_and_vecs())
def test_quadratic_form_polarization(gab):
    # Q(a+b) - Q(a) - Q(b) = a.Gamma.b (the off-diagonal cross terms)
    G, a, b = gab
    lhs = (quadratic_form(a + b, G) - quadratic_form(a, G) - quadratic_form(b, G)) % G.m
    assert lhs == dot_mod(graph_action(a, G), b)


def test_json_round_trip():
    G = loop_graph(5, 3, 2)
    assert WeightedGraph.from_json(G.to_json()) == G
    assert G.to_json() == {"n": 5, "mod": 3, "adj": [list(r) for r in G.adj]}
