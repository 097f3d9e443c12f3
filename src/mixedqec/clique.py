"""Coding cliques: the phase-label sets that span graph-state codes.

A clique over a tuple of layered graphs is a set of per-layer phase
vectors c = (c_1, ..., c_k) claimed to satisfy three conditions:

  (i)   the zero vector is a member,
  (ii)  prod_l w_{m_l}^{s_l . c_l} = 1 for every member and every label
        s in the d-purity set (labels whose stabilizer word has weight
        below d),
  (iii) every pairwise difference of members lies in the d-uncoverable
        set (differences no error of weight below d can produce).

check_clique tests exactly these; search_clique looks for large sets
satisfying them.

This module owns the one label layout, ``LabelLayout``, that the clique
conditions, the symbolic KL check, the clique basis and the stabilizer
rows all read.  Every label is one int64 row, layer after layer, with
one column per (layer, particle).  The graph action s -> s.Gamma is one
matrix product with the block-diagonal adjacency, reduced mod the
column moduli, and a label's key is its row read as a mixed-radix
number, first column most significant, so key order is the
lexicographic order of the flattened entries.  A ``CodingClique``
encodes its vectors once into such rows, ``labels``; ModVec appears
only where labels enter and leave.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import lcm, prod
from typing import Sequence

import numpy as np

from .algebra import ModVec
from .errors import IntegerRangeError, MixedSystem, error_blocks, word_radices
from .graphs import WeightedGraph

LayerVecs = tuple[ModVec, ...]

# purity labels x scanned labels per block when a scan walks the whole
# label space
_CHUNK = 1 << 16
# set mode finishes a subtree on bitsets once its pool is this small
_BITSET = 64


def _layer_system(graphs: Sequence[WeightedGraph]) -> MixedSystem:
    return MixedSystem.layered([(g.m, g.n) for g in graphs])


class LabelLayout:
    """The label rows and keys of layers [(modulus, length), ...], and,
    for the layers of graphs, their block-diagonal adjacency ``gamma``:
    ``rows @ gamma % mods`` is s.Gamma on every layer at once.  A label
    space of 2^63 labels or more is refused, since keys are int64."""

    def __init__(self, layers: tuple[tuple[int, int], ...],
                 adjs: tuple[tuple[tuple[int, ...], ...], ...] | None = None) -> None:
        self.layers = layers
        self.starts = tuple(itertools.accumulate((n for _, n in layers), initial=0))[:-1]
        self.width = sum(n for _, n in layers)
        self.size = prod(m ** n for m, n in layers)
        if self.size >= 2 ** 63:
            raise IntegerRangeError(f"label space of {self.size} labels exceeds int64 keys")
        self.mods = np.repeat([m for m, _ in layers], [n for _, n in layers]).astype(np.int64)
        weights = np.ones(self.width, dtype=np.int64)
        for j in range(self.width - 2, -1, -1):
            weights[j] = weights[j + 1] * self.mods[j + 1]
        self.weights = weights
        self.modulus = lcm(*(m for m, _ in layers))
        # the label column of every factor, particle after particle: the
        # flat factor order of the layered system
        self.factor_columns = np.array(self.columns(range(max(n for _, n in layers))),
                                       dtype=np.int64)
        self.gamma = None
        if adjs is not None:
            self.gamma = np.zeros((self.width, self.width), dtype=np.int64)
            for adj, a, (_, n) in zip(adjs, self.starts, layers):
                self.gamma[a:a + n, a:a + n] = adj
            self.gamma.flags.writeable = False
        for arr in (self.mods, self.weights, self.factor_columns):
            arr.flags.writeable = False

    def keys(self, rows: np.ndarray) -> np.ndarray:
        return rows @ self.weights

    def rows(self, keys: np.ndarray) -> np.ndarray:
        return keys[:, None] // self.weights % self.mods

    def columns(self, supp: Sequence[int]) -> list[int]:
        """The label column of each factor of the particles of supp, in
        the particle-after-particle order of ``support_rows``."""
        return [a + i for i in supp for (_, nl), a in zip(self.layers, self.starts) if i < nl]

    def encode(self, vecs: Sequence[LayerVecs]) -> np.ndarray:
        for v in vecs:
            if len(v) != len(self.layers):
                raise ValueError("vector layer count does not match the layers")
            if any(part.m != m or len(part) != n for part, (m, n) in zip(v, self.layers)):
                raise ValueError("vector does not match its layer")
        flat = [a for v in vecs for part in v for a in part.entries]
        return np.array(flat, dtype=np.int64).reshape(len(vecs), self.width)

    def split(self, row: np.ndarray) -> list[list[int]]:
        return [row[a:a + n].tolist() for (_, n), a in zip(self.layers, self.starts)]

    def decode(self, rows: np.ndarray) -> tuple[LayerVecs, ...]:
        return tuple(tuple(ModVec(m, tuple(part)) for (m, _), part in zip(self.layers, self.split(row)))
                     for row in rows)


@lru_cache(maxsize=64)
def _layout(layers: tuple[tuple[int, int], ...]) -> LabelLayout:
    return LabelLayout(layers)


@lru_cache(maxsize=64)
def _graph_layout(graphs: tuple[WeightedGraph, ...]) -> LabelLayout:
    _layer_system(graphs)  # rejects layers that do not nest
    return LabelLayout(tuple((g.m, g.n) for g in graphs), tuple(g.adj for g in graphs))


def _member(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    if not len(sorted_keys):
        return np.zeros(keys.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[pos] == keys


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct entries of a, ascending: a plain ``np.unique`` would
    import ``numpy.ma`` on first use."""
    a = np.sort(a, axis=None)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _word_weights(sp: LabelLayout, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Particles hit by each word X^x Z^z, one word per row pair."""
    nz = (X != 0) | (Z != 0)
    hit = nz[:, :sp.layers[0][1]].copy()
    for (_, n), a in zip(sp.layers[1:], sp.starts[1:]):
        hit[:, :n] |= nz[:, a:a + n]
    return hit.sum(axis=1)


@lru_cache(maxsize=64)
def _purity_rows(graphs: tuple[WeightedGraph, ...], d: int) -> np.ndarray:
    """The purity set as rows in key order.  Only labels whose own
    support spans fewer than d particles can qualify, because the shift
    support is part of the word's support."""
    sp = _graph_layout(graphs)
    sys = _layer_system(graphs)
    found = [np.zeros((1, sp.width), dtype=np.int64)]
    # a label has one digit per factor: the x digits of an error word
    for supp, block in error_blocks(sys.factors, min(d - 1, sys.n)):
        rows = np.zeros((len(block), sp.width), dtype=np.int64)
        rows[:, sp.columns(supp)] = block
        found.append(rows)
    X = np.concatenate(found)
    X = X[_word_weights(sp, X, X @ sp.gamma % sp.mods) < d]
    X = X[np.argsort(sp.keys(X))]
    X.flags.writeable = False
    return X


@lru_cache(maxsize=64)
def _covered_keys(graphs: tuple[WeightedGraph, ...], d: int) -> np.ndarray:
    """Sorted keys of t - s.Gamma over every error word X^s Z^t of
    weight in (0, d)."""
    sp = _graph_layout(graphs)
    found = [np.zeros(0, dtype=np.int64)]
    for supp, E in error_blocks(word_radices(_layer_system(graphs)), d - 1):
        cols = sp.columns(supp)
        diff = -(E[:, 0::2] @ sp.gamma[cols])
        diff[:, cols] += E[:, 1::2]
        found.append(_distinct(sp.keys(diff % sp.mods)))
    keys = _distinct(np.concatenate(found))
    keys.flags.writeable = False
    return keys


def _phase_exponents(sp: LabelLayout, S: np.ndarray, V: np.ndarray) -> np.ndarray:
    """E[a, b] with prod_l w_{m_l}^{S_a,l . V_b,l} = w_M^E[a, b], M the
    lcm of the layer moduli."""
    return (S * (sp.modulus // sp.mods)) @ V.T % sp.modulus


def purity_set(graphs: Sequence[WeightedGraph], d: int) -> tuple[LayerVecs, ...]:
    """All shift labels s whose stabilizer word X^s Z^{s.Gamma} acts on
    fewer than d particles, in lexicographic order.  Always contains the
    zero label."""
    if d < 1:
        raise ValueError("d must be >= 1")
    graphs = tuple(graphs)
    return _graph_layout(graphs).decode(_purity_rows(graphs, d))


def covered_differences(graphs: Sequence[WeightedGraph], d: int) -> frozenset[LayerVecs]:
    """The complement of the d-uncoverable set: every per-layer value of
    t - s.Gamma produced by an error word of weight strictly between 0
    and d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    graphs = tuple(graphs)
    sp = _graph_layout(graphs)
    return frozenset(sp.decode(sp.rows(_covered_keys(graphs, d))))


@dataclass(frozen=True)
class CodingClique:
    """A claimed coding clique; check_clique is the judge.  ``labels``
    holds the vectors as read-only rows of ``layout``, in the order
    given."""

    graphs: tuple[WeightedGraph, ...]
    d: int
    vectors: tuple[LayerVecs, ...]
    labels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.graphs:
            raise ValueError("need at least one graph layer")
        covers = [g.n for g in self.graphs]
        if covers != sorted(covers, reverse=True):
            raise ValueError("graphs must be ordered widest layer first")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        vecs = tuple(tuple(v) for v in self.vectors)
        if not vecs:
            raise ValueError("clique needs at least one vector")
        object.__setattr__(self, "graphs", tuple(self.graphs))
        object.__setattr__(self, "vectors", vecs)
        sp = self.layout
        labels = sp.encode(vecs)
        if len(_distinct(sp.keys(labels))) < len(labels):
            raise ValueError("clique vectors must be distinct")
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    @property
    def layout(self) -> LabelLayout:
        return _graph_layout(self.graphs)

    @property
    def K(self) -> int:
        return len(self.vectors)

    def system(self) -> MixedSystem:
        return _layer_system(self.graphs)


@dataclass(frozen=True)
class CliqueReport:
    ok: bool
    zero_member: bool
    purity_phases_trivial: bool
    differences_uncoverable: bool
    purity_size: int
    witness: dict | None = None

    def to_json(self) -> dict:
        out = {
            "verdict": "pass" if self.ok else "fail",
            "conditions": {
                "zero_member": self.zero_member,
                "purity_phases_trivial": self.purity_phases_trivial,
                "differences_uncoverable": self.differences_uncoverable,
            },
            "purity_size": self.purity_size,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _first_covered_pair(sp: LabelLayout, V: np.ndarray,
                        covered: np.ndarray) -> tuple[int, int] | None:
    """First (i, j), i != j, in row-major order with V[i] - V[j] covered."""
    K = len(V)
    step = max(1, (1 << 20) // max(1, K * sp.width))
    for a in range(0, K, step):
        block = V[a:a + step]
        hit = _member(sp.keys((block[:, None, :] - V[None, :, :]) % sp.mods), covered)
        hit[np.arange(len(block)), np.arange(a, a + len(block))] = False
        rows = hit.any(axis=1)
        if rows.any():
            i = int(rows.argmax())
            return a + i, int(hit[i].argmax())
    return None


def check_clique(C: CodingClique) -> CliqueReport:
    """Test conditions (i)-(iii); on failure the witness identifies the
    first offending object in deterministic enumeration order: purity
    labels in lexicographic order, then clique vectors in the order
    given, and ordered pairs of vectors row by row."""
    sp = C.layout
    V = C.labels
    zero_ok = bool((~V.any(axis=1)).any())
    witness = None
    if not zero_ok:
        witness = {"condition": "i", "missing": sp.split(np.zeros(sp.width, dtype=np.int64))}

    pure = _purity_rows(C.graphs, C.d)
    bad = _phase_exponents(sp, pure, V) != 0
    phases_ok = not bad.any()
    if not phases_ok and witness is None:
        a = int(bad.any(axis=1).argmax())
        witness = {
            "condition": "ii",
            "purity_label": sp.split(pure[a]),
            "vector": sp.split(V[int(bad[a].argmax())]),
        }

    pair = _first_covered_pair(sp, V, _covered_keys(C.graphs, C.d))
    diffs_ok = pair is None
    if not diffs_ok and witness is None:
        i, j = pair
        witness = {
            "condition": "iii",
            "pair": [sp.split(V[i]), sp.split(V[j])],
            "difference": sp.split((V[i] - V[j]) % sp.mods),
        }

    ok = zero_ok and phases_ok and diffs_ok
    return CliqueReport(ok, zero_ok, phases_ok, diffs_ok, len(pure), witness)


def _join(sp: LabelLayout, rows: np.ndarray, keys: set[int], g: np.ndarray,
          first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The subgroup generated by the subgroup `rows` (key set `keys`)
    and g, which is not in it, given its first coset `first` = G + g
    (rows in the order of `rows`): grown by cosets G + k.g up to the
    first k with k.g in G.  Returns the grown rows, G's own rows first,
    and the added keys."""
    cosets = [rows, first]
    step = (g + g) % sp.mods
    while int(step @ sp.weights) not in keys:
        cosets.append((rows + step) % sp.mods)
        step = (step + g) % sp.mods
    grown = np.concatenate(cosets)
    return grown, sp.keys(grown[len(rows):])


def closure(generators: Sequence[LayerVecs]) -> tuple[LayerVecs, ...]:
    """The additive group generated, sorted lexicographically."""
    if not generators:
        raise ValueError("need at least one generator")
    sp = _layout(tuple((part.m, len(part)) for part in generators[0]))
    rows = np.zeros((1, sp.width), dtype=np.int64)
    keys = {0}
    for g in sp.encode(generators):
        if int(g @ sp.weights) not in keys:
            rows, added = _join(sp, rows, keys, g, (rows + g) % sp.mods)
            keys.update(added.tolist())
    return sp.decode(rows[np.argsort(sp.keys(rows))])


@dataclass(frozen=True)
class SearchResult:
    clique: CodingClique
    nodes_used: int
    flag: str  # "ok" | "target" | "budget" | "trivial"


def _candidates(sp: LabelLayout, pure: np.ndarray, covered: np.ndarray) -> np.ndarray:
    """Nonzero labels satisfying condition (ii) over the purity set and
    outside the covered set, as sorted keys.  Phase exponents are linear
    in the digits: prefix p's column -E(p) picks the suffixes whose
    exponents, in one table over the trailing digits, equal it."""
    j = sp.width // 2
    S = int(sp.weights[j] * sp.mods[j])
    prefixes = np.arange(0, sp.size, S, dtype=np.int64)
    need = -_phase_exponents(sp, pure, sp.rows(prefixes)) % sp.modulus
    table = _phase_exponents(sp, pure, sp.rows(np.arange(S, dtype=np.int64)))
    out = []
    step = max(1, _CHUNK // (len(pure) * S))
    for a in range(0, len(prefixes), step):
        p, s = np.nonzero((table[:, None, :] == need[:, a:a + step, None]).all(axis=0))
        keys = prefixes[a + p] + s
        out.append(keys[(keys != 0) & ~_member(keys, covered)])
    return np.concatenate(out)


def search_clique(graphs: Sequence[WeightedGraph], d: int, target_K: int,
                  budget: int = 100000, mode: str = "group") -> SearchResult:
    """Depth-first search for a large clique.

    Candidates are first reduced to the subgroup satisfying condition
    (ii), then extended lexicographically smallest-first under pairwise
    condition-(iii) pruning.  In group mode extensions are generators
    and the whole generated subgroup must stay uncoverable, which both
    shrinks the tree and guarantees an additive clique.  The budget is
    counted in DFS nodes, so results are machine independent; both
    modes stop at the first clique of target_K.

    Group mode tests a window of the next candidates outside G (one
    node each, at most the nodes left) on their first cosets G + g in
    one array step, and joins only the clear ones.  The window starts
    at one candidate, doubles after each window that recurses into
    nothing, up to _CHUNK labels of the coset array, and drops back to
    one after a recursion: the result equals taking the candidates
    one at a time.

    Set mode walks an explicit stack over one alive mask of the label
    space: a level's pool is every alive key above the label it took
    last; taking v kills the alive keys of v + covered above v, logged
    in one undo array and revived when the level is left.  A pool of at
    most _BITSET keys finishes its subtree on Python-int bitsets of its
    uncovered pairs.  The result equals recursing on a filtered copy of
    the pool at every level.
    """
    if mode not in ("group", "set"):
        raise ValueError(f"unknown mode {mode!r}")
    if target_K < 1:
        raise ValueError("target_K must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    graphs = tuple(graphs)
    sp = _graph_layout(graphs)
    covered = _covered_keys(graphs, d)
    cands = _candidates(sp, _purity_rows(graphs, d), covered)

    nodes = 0
    hit_budget = False
    hit_target = False

    if mode == "set":
        best = [0]
        alive = np.zeros(sp.size, dtype=bool)
        alive[cands] = True
        undo, top = np.empty(len(cands), dtype=np.int64), 0
        # v + covered digit by digit: min(t, t - m) is t mod m for t < 2m
        dtype = np.min_scalar_type(2 * (int(sp.mods.max()) - 1))
        mods = sp.mods.astype(dtype)
        shifts = sp.rows(covered).astype(dtype)
        clique = [0]

        def level(last: int, left: int, mark: int) -> list:
            """The frame of the pool of `left` alive keys above `last`:
            [last key taken, left, undo mark, None, None], or, for at most
            _BITSET keys, [pool bits, left, mark, keys, bitsets], bit b of
            bitsets[a] set when keys[b] - keys[a] is uncovered."""
            if left > _BITSET:
                return [last, left, mark, None, None]
            keys = np.flatnonzero(alive[last + 1:]) + (last + 1)
            rows = sp.rows(keys)
            apart = ~_member(sp.keys((rows[None, :, :] - rows[:, None, :]) % sp.mods), covered)
            bits = np.left_shift(1, np.arange(left, dtype=np.uint64), dtype=np.uint64)
            adj = (apart * bits).sum(axis=1)
            return [(1 << left) - 1, left, mark, keys.tolist(), adj.tolist()]

        stack = [level(0, len(cands), 0)]
        while stack:
            pos, left, mark, keys, adj = f = stack[-1]
            if not left:
                stack.pop()
                clique.pop()
                alive[undo[mark:top]] = True
                top = mark
                continue
            if nodes >= budget:
                hit_budget = True
                break
            nodes += 1
            if len(clique) + left <= len(best):
                f[1] = 0
                continue
            f[1] = left - 1
            if keys is None:
                v = pos + 1 + int(alive[pos + 1:].argmax())
                t = shifts + sp.rows(np.array([v]))[0].astype(dtype)
                ks = sp.keys(np.minimum(t, t - mods))
                gone = ks[(ks > v) & alive[ks]]
                alive[gone] = False
                undo[top:top + len(gone)] = gone
                f[0] = v
                stack.append(level(v, left - 1 - len(gone), top))
                top += len(gone)
            else:
                b = (pos & -pos).bit_length() - 1
                f[0] = rest = pos & (pos - 1)
                v, pool = keys[b], rest & adj[b]
                stack.append([pool, pool.bit_count(), top, keys, adj])
            clique.append(v)
            if len(clique) > len(best):
                best = list(clique)
                if len(best) >= target_K:
                    hit_target = True
                    break
        best = sp.rows(np.array(best))
    else:
        best = np.zeros((1, sp.width), dtype=np.int64)

        def extend_group(group: np.ndarray, keys: set[int], start: int) -> None:
            nonlocal best, nodes, hit_budget, hit_target
            if len(group) > len(best):
                best = group
                if len(best) >= target_K:
                    hit_target = True
                    return
            if len(group) == sp.size:
                return
            idx, width = start, 1
            while idx < len(cands):
                if nodes >= budget:
                    hit_budget = True
                    return
                # the next w candidates not in G (a run of w + |G| - 1 holds
                # them), one node each, tested together on their first cosets G + g
                w = min(width, budget - nodes)
                run = cands[idx:idx + w + len(keys) - 1].tolist()
                win, base = [idx + i for i, k in enumerate(run) if k not in keys][:w], nodes
                if not win:
                    return
                idx = win[-1] + 1
                gens = sp.rows(cands[win])
                first = (group[:, None, :] + gens) % sp.mods
                clear = ~_member(sp.keys(first), covered).any(axis=0)
                nodes = base + len(win)
                for p in np.flatnonzero(clear).tolist():
                    grown, added = _join(sp, group, keys, gens[p], first[:, p])
                    if not _member(added[len(group):], covered).any():
                        nodes = base + p + 1
                        extend_group(grown, keys | set(added.tolist()), win[p] + 1)
                        if hit_target:
                            return
                        idx, width = win[p] + 1, 1
                        break
                else:
                    width = min(2 * width, max(1, _CHUNK // (len(group) * sp.width)))

        extend_group(best, {0}, 0)

    vectors = sp.decode(best[np.argsort(sp.keys(best))])
    clique = CodingClique(graphs, d, vectors)
    if len(vectors) == 1 and target_K > 1:
        flag = "budget" if hit_budget else "trivial"
    elif hit_target:
        flag = "target"
    elif hit_budget:
        flag = "budget"
    else:
        flag = "ok"
    return SearchResult(clique, nodes, flag)
