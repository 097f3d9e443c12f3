"""Code composition: tensor products and distance-2 stabilizer pasting.

Both constructions are validated by the verifier rather than trusted:
product_code outputs are re-checked symbolically or numerically by the
callers' pipelines, and paste_distance2 refuses to run unless its base
rows verify against the base code first.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import Phase, phase_mul
from .clique import CodingClique
from .errors import ConstructionInputError, ErrorWord, MixedSystem, _check_cap, word_from_row
from .verifier import (
    Code,
    StabilizerRow,
    _row_text,
    _Tableau,
    kl_verify_numeric,
    stabilizer_eigenbasis,
    verify_stabilizer,
)


def product_code(A: Code, B: Code) -> Code:
    """The tensor product of two same-length codes, with particle i of
    the output owning A's factors of particle i followed by B's.

    When both inputs are in clique form the product stays symbolic: the
    layer graphs concatenate and the vectors are all concatenated pairs.
    When both are in monomial form it stays monomial: the row of digits
    (a, b) holds val_A[a] val_B[b] in column col_A[a] K_B + col_B[b], the
    entries np.kron forms.  Otherwise the basis is built as a Kronecker
    product.  Either way the rows are re-ordered to the per-particle axis
    layout.
    """
    if A.n != B.n:
        raise ValueError(f"particle counts differ: {A.n} vs {B.n}")
    if A.d != B.d:
        raise ValueError(f"claimed distances differ: {A.d} vs {B.d}")

    if A.clique is not None and B.clique is not None:
        graphs = A.clique.graphs + B.clique.graphs
        vectors = tuple(va + vb for va, vb in
                        itertools.product(A.clique.vectors, B.clique.vectors))
        return Code.from_clique(CodingClique(graphs=graphs, d=A.d, vectors=vectors))

    facs = tuple(fa + fb for fa, fb in zip(A.system.factors, B.system.factors))
    sys = MixedSystem(facs)
    _check_cap(sys.total_dim)
    aflat = A.system.flat_dims()
    bflat = B.system.flat_dims()
    a_axes, off = [], 0
    for f in A.system.factors:
        a_axes.append(list(range(off, off + len(f))))
        off += len(f)
    b_axes, off = [], len(aflat)
    for f in B.system.factors:
        b_axes.append(list(range(off, off + len(f))))
        off += len(f)
    perm = [ax for i in range(A.n) for ax in a_axes[i] + b_axes[i]]

    def particle_major(kron: np.ndarray) -> np.ndarray:
        """Rows indexed (a, b) in Kronecker order, re-ordered per particle."""
        T = kron.reshape(aflat + bflat + kron.shape[1:])
        T = np.transpose(T, perm + list(range(len(perm), T.ndim)))
        return T.reshape((sys.total_dim,) + kron.shape[1:])

    K = A.K * B.K
    if A.monomial is not None and B.monomial is not None:
        (ca, va), (cb, vb) = A.monomial, B.monomial
        col = np.where((ca[:, None] >= 0) & (cb >= 0), ca[:, None] * B.K + cb, -1)
        val = va[:, None] * vb
        return Code(sys, K, A.d, monomial=(particle_major(col.ravel()),
                                           particle_major(val.ravel())))
    full = np.kron(A.basis(), B.basis())
    return Code(sys, K, A.d, basis=particle_major(full))


# --- stabilizer rows from a clique --------------------------------------


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    f = 2
    while f * f <= m:
        if m % f == 0:
            return False
        f += 1
    return True


def _nullspace_mod_prime(mat: Sequence[Sequence[int]], m: int,
                         ncols: int) -> tuple[list[list[int]], int]:
    """Kernel basis of mat over GF(m), one vector per free column in
    column order; also returns the rank."""
    rows = [list(int(v) % m for v in r) for r in mat]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] % m), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], -1, m)
        rows[r] = [(v * inv) % m for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % m:
                f = rows[i][c]
                rows[i] = [(a - f * b) % m for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for ridx, pc in enumerate(pivots):
            v[pc] = (-rows[ridx][fc]) % m
        basis.append(v)
    return basis, len(pivots)


def clique_stabilizer_rows(clique: CodingClique) -> tuple[StabilizerRow, ...]:
    """Generators of the full stabilizer of a group clique's code.

    A graph-layer word with label s fixes the codeword for c exactly
    when prod_l w_m^{s_l . c_l} = 1, so the stabilizer labels are the
    kernel of the clique-vector matrix over GF(m).  The basis comes out
    in free-column order of the row reduction, which is the order the
    published row lists follow.  A clique with mixed or non-prime layer
    moduli, or one that is not a subgroup, raises ConstructionInputError.
    """
    ms = {g.m for g in clique.graphs}
    if len(ms) != 1:
        raise ConstructionInputError("stabilizer rows require a uniform layer modulus")
    m = ms.pop()
    if not _is_prime(m):
        raise ConstructionInputError(f"stabilizer rows require a prime modulus, got {m}")
    sp = clique.layout
    kernel, rank = _nullspace_mod_prime(clique.labels.tolist(), m, sp.width)
    if m ** rank != clique.K:
        raise ConstructionInputError("clique is not a subgroup; stabilizer form needs one")
    # label s gives the graph-state stabilizer w_m^(s.Gamma.s / 2) X^s Z^(s.Gamma),
    # exact because s.Gamma.s is even; digits go to the per-particle layout
    S = np.array(kernel, dtype=np.int64).reshape(len(kernel), sp.width)
    SG = S @ sp.gamma
    XZ = np.stack([S, SG % m], axis=2)[:, sp.factor_columns].reshape(len(S), 2 * sp.width)
    sys = clique.system()
    rows = []
    for xz, k in zip(XZ.tolist(), ((S * SG).sum(axis=1) // 2).tolist()):
        w = word_from_row(sys, range(sys.n), xz, Phase(k, m))
        rows.append(StabilizerRow(_row_text(sys, w), w))
    return tuple(rows)


# --- distance-2 pasting --------------------------------------------------


@dataclass(frozen=True)
class PasteResult:
    system: MixedSystem
    rows: tuple[StabilizerRow, ...]
    K: int


def paste_distance2(base_rows: Sequence[StabilizerRow], base_code: Code,
                    blocks: int, block_dim: int, tol: float = 1e-9) -> PasteResult:
    """Extend a distance-2 stabilizer code by trivial two-particle
    blocks without adding rows.

    Each block contributes one X.Z / Z.X generator pair per layer; the
    pairs are absorbed into existing rows (even-indexed rows first)
    instead of standing alone, which multiplies the eigenspace by
    block_dim^2 per block.  All block generators commute with each
    other and with everything on the old particles, so the merged rows
    stay a valid stabilizer; distance 2 of the result is a claim the
    caller re-verifies, not a theorem this function relies on.

    Inputs that do not fit together raise ConstructionInputError; base
    rows or a base code that fail their checks raise ValueError.
    """
    if blocks < 1:
        raise ConstructionInputError("blocks must be >= 1")
    if base_code.d < 2:
        raise ConstructionInputError("pasting requires a distance-2 base")
    base_sys = base_code.system
    layers = base_sys.layers
    if layers is None:
        raise ConstructionInputError("pasting requires a layered base system")
    m = layers[0][0]
    if any(ml != m for ml, _ in layers):
        raise ConstructionInputError("pasting requires a uniform layer modulus")
    j, q = 0, 1
    while q < block_dim:
        q *= m
        j += 1
    if q != block_dim or j == 0:
        raise ConstructionInputError(f"block dimension {block_dim} is not a power of {m}")
    if 2 * j > len(base_rows):
        raise ConstructionInputError(
            f"{2 * j} block generators cannot be absorbed by {len(base_rows)} rows")

    rep = verify_stabilizer(base_rows, base_code, tol=tol)
    if not rep.ok:
        raise ValueError(f"base rows fail verification: {rep.witness}")
    kl = kl_verify_numeric(base_code, d=2, tol=tol)
    if not kl.ok:
        raise ValueError(f"base code fails at distance 2: {kl.witness}")
    # rows published up to phase are fixed to their exact stabilizing form
    words = [ErrorWord(r.word.x, r.word.z, phase_mul(r.word.phase, lam))
             for r, lam in zip(base_rows, rep.chosen_phases)]

    sys = MixedSystem(base_sys.factors + ((m,) * j,) * (2 * blocks))
    if sys.layers is None:
        raise ConstructionInputError("pasted system is not layered; the base's "
                                     "deeper layers must cover every particle")

    pad = tuple((0,) * j for _ in range(2 * blocks))
    tab = _Tableau(sys, [ErrorWord(w.x + pad, w.z + pad, w.phase) for w in words])
    carriers = [i for i in range(len(words)) if i % 2 == 0] + \
               [i for i in range(len(words)) if i % 2 == 1]
    # a carrier's digits on a fresh block particle are zero, so writing the
    # generator's digits there multiplies the row by it with no phase
    first_col = len(base_sys.flat_dims())
    for b in range(blocks):
        for l in range(j):
            pa = first_col + 2 * b * j + l  # layer l of the block's particles
            pb = pa + j
            for t, (first, second) in enumerate(((pa, pb), (pb, pa))):
                c = carriers[2 * l + t]
                tab.X[c, first] = tab.Z[c, second] = 1

    rows = tuple(StabilizerRow(_row_text(sys, w), w) for w in tab.words())
    return PasteResult(sys, rows, base_code.K * block_dim ** (2 * blocks))


def pasted_code(res: PasteResult) -> Code:
    """The joint +1 eigenspace of a paste result as a distance-2 code."""
    code = Code.from_monomial(res.system, stabilizer_eigenbasis(res.system, res.rows), 2)
    if code.K != res.K:
        raise ValueError(f"eigenspace dimension {code.K}, expected {res.K}")
    return code
