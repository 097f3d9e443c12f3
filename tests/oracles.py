"""Per-layer brute-force references for the label arithmetic.

The library computes s -> s.Gamma, the quadratic form and the stabilizer
words of a clique on whole label arrays (``clique.LabelLayout``).  These
functions do the same one layer and one vector at a time, in plain
Python over ``ModVec``, so the tests can compare the two.
"""
from __future__ import annotations

from typing import Sequence

from mixedqec.algebra import PHASE_ONE, ModVec, Phase, omega, phase_mul
from mixedqec.errors import ErrorWord, MixedSystem
from mixedqec.graphs import WeightedGraph


def graph_action(s: ModVec, G: WeightedGraph) -> ModVec:
    """(s.Gamma)_j = sum_i s_i Gamma_ij mod m."""
    if s.m != G.m or len(s) != G.n:
        raise ValueError("vector does not match graph dimensions")
    return ModVec(G.m, tuple(sum(s[i] * G.adj[i][j] for i in range(G.n)) for j in range(G.n)))


def quadratic_form(s: ModVec, G: WeightedGraph) -> int:
    """sum_{a<b} Gamma_ab s_a s_b mod m; the exponent of the exact
    phase picked up when X^s is commuted through the graph-state
    entangling pattern."""
    if s.m != G.m or len(s) != G.n:
        raise ValueError("vector does not match graph dimensions")
    tot = 0
    for a in range(G.n):
        if s[a] == 0:
            continue
        for b in range(a + 1, G.n):
            tot += G.adj[a][b] * s[a] * s[b]
    return tot % G.m


def word_from_layers(sys: MixedSystem, xs: Sequence[ModVec | None],
                     zs: Sequence[ModVec | None], phase: Phase = PHASE_ONE) -> ErrorWord:
    """Assemble an error word from per-layer vectors (None = zero on
    that layer)."""
    layers = sys.layers
    if layers is None:
        raise ValueError("system is not layered")
    if len(xs) != len(layers) or len(zs) != len(layers):
        raise ValueError(f"expected {len(layers)} layer vectors")
    x = [[0] * len(f) for f in sys.factors]
    z = [[0] * len(f) for f in sys.factors]
    for l, (m, nl) in enumerate(layers):
        for vecs, tgt in ((xs, x), (zs, z)):
            v = vecs[l]
            if v is None:
                continue
            if v.m != m or len(v) != nl:
                raise ValueError(f"layer {l} vector does not match ({m},{nl})")
            for i in range(nl):
                tgt[i][l] = v[i]
    return ErrorWord(tuple(tuple(r) for r in x), tuple(tuple(r) for r in z), phase)


def stabilizer_error_word(sys: MixedSystem, graphs: Sequence[WeightedGraph],
                          ss: Sequence[ModVec]) -> ErrorWord:
    """The exact joint stabilizer element for per-layer labels ss, as an
    error word over the layered system of the graphs."""
    phase = omega(1, 0)
    xs, zs = [], []
    for s, g in zip(ss, graphs):
        phase = phase_mul(phase, omega(g.m, quadratic_form(s, g)))
        xs.append(s)
        zs.append(graph_action(s, g))
    return word_from_layers(sys, xs, zs, phase)
