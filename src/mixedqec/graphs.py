"""Z_m-weighted graphs and the adjacency action s -> s.Gamma.

A weighted graph plays two roles here: its controlled-phase pattern
defines a graph state, and its adjacency matrix converts bit-shift
labels into phase-shift labels on that state.  The state |G> has
amplitude m^{-n/2} w_m^{Q(j)} on |j>, Q(j) = sum_{a<b} Gamma_ab j_a j_b,
and every shift/phase word reduces on it, with an exact phase, to a
pure phase word: X^s Z^t |G> = w_m^{Q(s) - t.s} Z^{t - s.Gamma} |G>.
That identity lets the verifier treat errors symbolically; the label
engine in ``clique`` applies it to whole arrays of labels at once.
"""
from __future__ import annotations

from dataclasses import dataclass


def _json_int(value, what: str) -> int:
    """A JSON integer field; TypeError for a float, a bool or anything else."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


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
        return WeightedGraph(_json_int(obj["n"], "n"), _json_int(obj["mod"], "mod"),
                             tuple(tuple(_json_int(w, "an adjacency entry") for w in row)
                                   for row in obj["adj"]))


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
