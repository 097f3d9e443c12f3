"""Brute-force references that only the tests use.

The library computes s -> s.Gamma, the quadratic form and the stabilizer
words of a clique on whole label arrays (``clique.LabelLayout``).  The
per-layer functions here do the same one layer and one vector at a time,
in plain Python over ``ModVec``, so the tests can compare the two.  The
rest are dense or scalar forms of what the library never needs whole:
an error word applied to state columns (``apply_error``) and its
unitary, the expansion of one projected error, dot products and phases
of single vectors, and the error words of a weight ball one
``ErrorWord`` at a time.  ``with_phases`` folds phase
multipliers into rows after reading them.  ``pair_sums_reference`` is the
monomial pair scan of ``verifier._SupportScan`` as an element-wise loop
over the nonzero rows, its pairs numbered by a K^2 table or by sorting
every key.  ``candidate_rows`` judges every
label of the space as a row, ``group_search`` is the group-mode clique
search taking its candidates one at a time, and ``set_search`` the
set-mode search recursing on a filtered copy of its pool at every level.
"""
from __future__ import annotations

import itertools
import sys
from typing import Iterator, Sequence

import numpy as np

from mixedqec.algebra import PHASE_ONE, ModVec, Phase, phase_as_complex, phase_mul, roots_of_unity
from mixedqec.clique import (
    _CHUNK, LabelLayout, _covered_keys, _graph_layout, _member, _phase_exponents, _purity_rows,
)
from mixedqec.errors import (
    ErrorWord, MixedSystem, _check_cap, error_blocks, word_from_row, word_radices,
)
from mixedqec.graphs import WeightedGraph
from mixedqec.projection import _COEFF_TOL, ProjectorSpec, _digits, _particle_tables, _word
from mixedqec.verifier import StabilizerRow


def omega(order: int, power: int = 1) -> Phase:
    """e^{2*pi*i*power/order}."""
    return Phase(power, order)


def dot_mod(u: ModVec, v: ModVec) -> int:
    u._check(v)
    return sum(a * b for a, b in zip(u.entries, v.entries)) % u.m


def label_is_identity(e: ErrorWord) -> bool:
    """Whether every x and z digit of the word is 0, whatever its phase."""
    return not any(a for part in (e.x, e.z) for digits in part for a in digits)


def enumerate_errors(sys: MixedSystem, w_max: int) -> Iterator[ErrorWord]:
    """Every non-identity basis word of weight <= w_max, once each,
    phase one, ordered by (support set, per-particle digits): the rows of
    ``errors.error_blocks`` as words, one at a time."""
    for supp, block in error_blocks(word_radices(sys), w_max):
        for row in block.tolist():
            yield word_from_row(sys, supp, row)


def apply_error(e: ErrorWord, sys: MixedSystem, vec: np.ndarray) -> np.ndarray:
    """Apply the word to state columns: vec has shape (total_dim, ...) and
    the word acts as a monomial matrix (one nonzero per column)."""
    shape = vec.shape
    out = vec.reshape(sys.flat_dims() + shape[1:]).astype(complex)
    axis = 0
    for i, f in enumerate(sys.factors):
        for l, m in enumerate(f):
            a, b = e.x[i][l], e.z[i][l]
            if b % m:
                ph = roots_of_unity(m)[b * np.arange(m) % m]
                sh = [1] * out.ndim
                sh[axis] = m
                out *= ph.reshape(sh)
            if a % m:
                out = np.roll(out, a % m, axis=axis)
            axis += 1
    if e.phase != PHASE_ONE:
        out = out * phase_as_complex(e.phase)
    return out.reshape(shape)


def error_matrix(e: ErrorWord, sys: MixedSystem) -> np.ndarray:
    """Dense unitary of the word.  Columns each have one nonzero entry."""
    _check_cap(sys.total_dim)
    return apply_error(e, sys, np.eye(sys.total_dim, dtype=complex))


def projected_error(e: ErrorWord, P: ProjectorSpec) -> list[tuple[complex, ErrorWord]]:
    """Expansion of P^dag E P over the ancilla Pauli words.

    Everything factorizes per particle, so each particle's terms are read
    off its coefficient table and the terms are combined as products.
    """
    per_particle = []
    for table, xi, zi, p in zip(_particle_tables(P), e.x, e.z, P.kept_dims):
        c = table[xi[0] % p, zi[0] % p]
        per_particle.append([(c[ab], ab) for ab in _digits(np.abs(c) > _COEFF_TOL)])
    return [(complex(np.prod([c for c, _ in combo])), _word([ab for _, ab in combo]))
            for combo in itertools.product(*per_particle)]


def pair_sums_reference(scan, supp: tuple[int, ...]):
    """(x, pairs, T) for every flat shift x on S, as
    ``_SupportScan.pair_sums`` yields them, from one gather per nonzero
    row: the pairs of a shift numbered by a K^2 table while it is no more
    than four times the hits, else by sorting the keys."""
    K = scan.K
    axes, shifted = scan.axes(supp), scan.shape(supp).shifted
    dS = scan.shape(supp).size
    col = np.moveaxis(scan.col, axes, range(len(axes))).ravel()
    val = np.moveaxis(scan.val, axes, range(len(axes))).ravel()
    R = len(col) // dS
    # the nonzero rows as flat indices u R + r, in (u, r) order
    nz = np.flatnonzero(col >= 0)
    u, r = np.divmod(nz, R)
    col_u, val_u = col[nz], val[nz]
    for x in range(dS):
        to = shifted(x)[u] * R + r
        i = col[to]
        hit = i >= 0
        keys = i[hit] * K + col_u[hit]
        w = val[to[hit]].conj() * val_u[hit]
        if K * K <= 4 * len(keys):
            seen = np.zeros(K * K, dtype=bool)
            seen[keys] = True
            pairs, at = np.flatnonzero(seen), (np.cumsum(seen) - 1)[keys]
        else:
            pairs, at = np.unique(keys, return_inverse=True)
        bins, size = at * dS + u[hit], len(pairs) * dS
        T = np.empty(size, dtype=complex)
        T.real = np.bincount(bins, w.real, size)
        T.imag = np.bincount(bins, w.imag, size)
        yield x, pairs, T.reshape(-1, dS).T


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


def with_phases(rows: Sequence[StabilizerRow], phases: Sequence[Phase]) -> list[StabilizerRow]:
    """Each row times its phase multiplier, the fold the library once did
    after reading a row: the reference for rows read with their phase."""
    return [StabilizerRow(r.text, ErrorWord(r.word.x, r.word.z, phase_mul(r.word.phase, p)))
            for r, p in zip(rows, phases, strict=True)]


def candidate_rows(sp: LabelLayout, pure: np.ndarray, covered: np.ndarray) -> np.ndarray:
    """The search candidates as rows in key order: every nonzero label,
    a chunk at a time, with trivial condition-(ii) phases over the purity
    set and outside the covered set."""
    out = [np.zeros((0, sp.width), dtype=np.int64)]
    step = max(1, _CHUNK // len(pure))
    for a in range(1, sp.size, step):
        keys = np.arange(a, min(a + step, sp.size), dtype=np.int64)
        rows = sp.rows(keys)
        ok = ~_phase_exponents(sp, pure, rows).any(axis=0) & ~_member(keys, covered)
        out.append(rows[ok])
    return np.concatenate(out)


def _search_result(sp: LabelLayout, best: np.ndarray, target_K: int, hit_budget: bool,
                   hit_target: bool) -> tuple[tuple, str]:
    vectors = sp.decode(best[np.argsort(sp.keys(best))])
    if len(vectors) == 1 and target_K > 1:
        flag = "budget" if hit_budget else "trivial"
    else:
        flag = "target" if hit_target else "budget" if hit_budget else "ok"
    return vectors, flag


def group_search(graphs: Sequence[WeightedGraph], d: int, target_K: int,
                 budget: int) -> tuple[tuple, int, str]:
    """(vectors, nodes_used, flag) of ``search_clique(..., mode="group")``,
    one candidate and one coset at a time: each candidate outside G
    costs a node, its subgroup with G is grown coset by coset, and the
    search recurses into it when no new label is covered.  The budget is
    tested before every candidate, in G or not, and the search stops as
    soon as G reaches the target."""
    graphs = tuple(graphs)
    sp = _graph_layout(graphs)
    covered = _covered_keys(graphs, d)
    cands = candidate_rows(sp, _purity_rows(graphs, d), covered)
    best = np.zeros((1, sp.width), dtype=np.int64)
    nodes, hit_budget, hit_target = 0, False, False

    def extend(group: np.ndarray, keys: set[int], start: int) -> None:
        nonlocal best, nodes, hit_budget, hit_target
        if len(group) > len(best):
            best = group
            if len(best) >= target_K:
                hit_target = True
                return
        for idx in range(start, len(cands)):
            if nodes >= budget:
                hit_budget = True
                return
            g = cands[idx]
            if int(sp.keys(g)) in keys:
                continue
            nodes += 1
            cosets, step = [group], g
            while int(sp.keys(step)) not in keys:
                cosets.append((group + step) % sp.mods)
                step = (step + g) % sp.mods
            added = sp.keys(np.concatenate(cosets[1:]))
            if not _member(added, covered).any():
                extend(np.concatenate(cosets), keys | set(added.tolist()), idx + 1)
                if hit_target:
                    return

    extend(best, {0}, 0)
    vectors, flag = _search_result(sp, best, target_K, hit_budget, hit_target)
    return vectors, nodes, flag


def set_search(graphs: Sequence[WeightedGraph], d: int, target_K: int,
               budget: int) -> tuple[tuple, int, str]:
    """(vectors, nodes_used, flag) of ``search_clique(..., mode="set")``,
    recursing once per clique member on a filtered copy of its pool: each
    candidate tried costs a node, the level returns once the members left
    cannot beat the best clique, and the child's pool is the rest of the
    pool with every u such that u - v is covered removed.  The search
    stops as soon as the clique reaches the target."""
    graphs = tuple(graphs)
    sp = _graph_layout(graphs)
    covered = _covered_keys(graphs, d)
    zero = np.zeros(sp.width, dtype=np.int64)
    best = [zero]
    nodes, hit_budget, hit_target = 0, False, False

    def extend(current: list[np.ndarray], pool: np.ndarray) -> None:
        nonlocal best, nodes, hit_budget, hit_target
        if len(current) > len(best):
            best = list(current)
            if len(best) >= target_K:
                hit_target = True
                return
        for idx in range(len(pool)):
            if nodes >= budget:
                hit_budget = True
                return
            nodes += 1
            if len(current) + len(pool) - idx <= len(best):
                return
            v, rest = pool[idx], pool[idx + 1:]
            apart = ~_member(sp.keys((rest - v) % sp.mods), covered)
            extend(current + [v], rest[apart])
            if hit_target:
                return

    # one frame per clique member: the depth reaches the clique's size
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, budget + 100))
    try:
        extend([zero], candidate_rows(sp, _purity_rows(graphs, d), covered))
    finally:
        sys.setrecursionlimit(limit)
    vectors, flag = _search_result(sp, np.array(best), target_K, hit_budget, hit_target)
    return vectors, nodes, flag
