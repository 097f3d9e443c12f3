"""Z_m-weighted graphs and the adjacency action s -> s.Gamma.

A weighted graph plays two roles here: its controlled-phase pattern
defines a graph state, and its adjacency matrix converts bit-shift
labels into phase-shift labels on that state.  The state |G> has
amplitude m^{-n/2} w_m^{Q(j)} on |j>, Q(j) = sum_{a<b} Gamma_ab j_a j_b,
and every shift/phase word reduces on it, with an exact phase, to a
pure phase word: X^s Z^t |G> = w_m^{Q(s) - t.s} Z^{t - s.Gamma} |G>.
That identity lets the verifier treat errors symbolically.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import ModVec, omega, phase_mul
from .errors import ErrorWord, MixedSystem


@dataclass(frozen=True)
class WeightedGraph:
    """Symmetric zero-diagonal adjacency matrix over Z_m."""

    n: int
    m: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"modulus must be >= 2, got {self.m}")
        if len(self.adj) != self.n or any(len(row) != self.n for row in self.adj):
            raise ValueError(f"adjacency must be {self.n}x{self.n}")
        adj = tuple(tuple(int(w) % self.m for w in row) for row in self.adj)
        for i in range(self.n):
            if adj[i][i] != 0:
                raise ValueError(f"nonzero diagonal at vertex {i}")
            for j in range(self.n):
                if adj[i][j] != adj[j][i]:
                    raise ValueError(f"adjacency not symmetric at ({i},{j})")
        object.__setattr__(self, "adj", adj)

    def to_json(self) -> dict:
        return {"n": self.n, "mod": self.m, "adj": [list(row) for row in self.adj]}

    @staticmethod
    def from_json(obj: dict) -> "WeightedGraph":
        return WeightedGraph(int(obj["n"]), int(obj["mod"]),
                             tuple(tuple(row) for row in obj["adj"]))


def loop_graph(n: int, m: int, w: int = 1) -> WeightedGraph:
    """Cycle graph on n vertices, every edge carrying weight w in Z_m."""
    if n < 3:
        raise ValueError(f"loop graph needs n >= 3, got {n}")
    if w % m == 0:
        raise ValueError(f"edge weight {w} vanishes mod {m}")
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        adj[i][j] = w % m
        adj[j][i] = w % m
    return WeightedGraph(n, m, tuple(tuple(row) for row in adj))


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
    return ErrorWord.from_layers(sys, xs, zs, phase)
