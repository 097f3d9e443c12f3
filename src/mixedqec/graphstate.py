"""Graph states over Z_m and the exact reduction of Pauli actions on them.

The state |G> on a weighted graph G has amplitude m^{-n/2} * w_m^{Q(j)}
on basis state |j>, where Q(j) = sum_{a<b} Gamma_ab j_a j_b.  Every
shift/phase word acting on |G> reduces, with an exact phase, to a pure
phase word: X^s Z^t |G> = phi * Z^{t - s.Gamma} |G>.  That identity is
what lets the verifier treat errors symbolically instead of as matrices.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import ModVec, Phase, dot_mod, omega, phase_mul
from .errors import ErrorWord, MixedSystem, _check_cap
from .graphs import WeightedGraph, graph_action, quadratic_form


@dataclass(frozen=True)
class StateVector:
    """A normalized state on a list of tensor factors."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        total = 1
        for d in self.dims:
            total *= d
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(total)
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state not normalized: |psi| = {norm}")
        object.__setattr__(self, "amplitudes", amps)


def graph_state_vector(G: WeightedGraph, cap: int | None = None) -> StateVector:
    """The graph state of G as a dense vector with n m-level factors."""
    total = G.m ** G.n
    _check_cap(total, cap)
    grid = np.indices((G.m,) * G.n)
    expo = np.zeros((G.m,) * G.n, dtype=np.int64)
    for a in range(G.n):
        for b in range(a + 1, G.n):
            if G.adj[a][b]:
                expo = expo + G.adj[a][b] * grid[a] * grid[b]
    amps = np.exp(2j * np.pi * (expo % G.m) / G.m) / G.m ** (G.n / 2)
    return StateVector((G.m,) * G.n, amps.reshape(total))


def reduce_to_phase_op(s: ModVec, t: ModVec, G: WeightedGraph) -> tuple[Phase, ModVec]:
    """(phi, c) with X^s Z^t |G> = phi * Z^c |G>, c = t - s.Gamma.

    Commuting X^s through the entangling pattern turns each shift into
    w_m^{Q(s)} times neighbor phases; pushing it through Z^t costs
    w_m^{-t.s}.
    """
    phi = omega(G.m, quadratic_form(s, G) - dot_mod(t, s))
    return (phi, t - graph_action(s, G))


def codeword_state(cs: Sequence[ModVec], graphs: Sequence[WeightedGraph],
                   cap: int | None = None) -> StateVector:
    """prod_l Z^{c_l} |G_l>, re-ordered so each particle's factors are
    adjacent (particle-major axis layout).

    Layer l covers the first G_l.n particles; graphs must be given in
    nesting order, widest first.
    """
    if len(cs) != len(graphs):
        raise ValueError("one phase vector per graph required")
    covers = [g.n for g in graphs]
    if covers != sorted(covers, reverse=True):
        raise ValueError("graphs must be ordered widest layer first")
    total = 1
    for g in graphs:
        total *= g.m ** g.n
    _check_cap(total, cap)

    layer_amps = []
    for c, g in zip(cs, graphs):
        if c.m != g.m or len(c) != g.n:
            raise ValueError("phase vector does not match its graph")
        amps = graph_state_vector(g, cap=total).amplitudes.reshape((g.m,) * g.n)
        for i in range(g.n):
            if c[i]:
                ph = np.exp(2j * np.pi * c[i] * np.arange(g.m) / g.m)
                sh = [1] * g.n
                sh[i] = g.m
                amps = amps * ph.reshape(sh)
        layer_amps.append(amps)

    full = layer_amps[0]
    for amps in layer_amps[1:]:
        full = np.tensordot(full, amps, axes=0)
    # axes are layer-major here: (layer0 particles..., layer1 particles, ...)
    n = graphs[0].n
    sysdims = []
    perm = []
    offsets = []
    off = 0
    for g in graphs:
        offsets.append(off)
        off += g.n
    for i in range(n):
        for l, g in enumerate(graphs):
            if i < g.n:
                perm.append(offsets[l] + i)
                sysdims.append(g.m)
    full = np.transpose(full, perm)
    return StateVector(tuple(sysdims), full.reshape(-1))


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
