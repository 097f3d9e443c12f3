"""Knill-Laflamme verification, distance measurement, stabilizer checks.

Two independent verifiers cover every code here.  The symbolic one works
in the phase-label algebra: an error word reduces on each graph layer to
an exact phase times a pure phase word, so the KL inner products are
roots of unity that either cancel or match exactly.  The numeric one
evaluates inner products of state amplitudes, a clique's one graph layer
at a time and any other code's through its basis, and measures
max |<i|E|j> - f delta_ij| directly.  They must agree; tests enforce
that.  They share only the order of the error words,
``errors.support_rows``: the symbolic one reads them as rows, the
numeric one as (x, z) grids.  The symbolic check and the clique checks
also read one label layout, ``clique.LabelLayout``, and a clique's
``labels``: a shared data format, with no decision logic shared.  The
numeric check and ``Code.basis`` read one formula, ``_layer_exponents``,
the amplitudes of a layer's states that define a clique's code.

The numeric side is one engine of Gram blocks B[u + x]^dag B[u]:
``_SupportScan`` yields the K x K matrices of every error on a support,
a chunk of shifts at a time, for ``kl_verify_numeric`` and
``code_distance``; ``_word_fits`` those of a list of whole-system words,
the ancilla words of ``kl_verify_words`` and the rows of
``verify_stabilizer``, one product per word.  ``_KLReducer.fit`` is
the only place f, the deviation, their summaries and the witness are
computed, from each matrix's entries at a list of flat pairs i K + j:
all K^2 for a dense block, only the nonzero ones for a code in monomial
form (a column index and value per row, as ``stabilizer_eigenbasis``).

Stabilizer rows are judged in one integer tableau, ``_Tableau``: the x
and z digits of every row per flat factor and one phase exponent per
row, all int64.  Commutation is one exponent matrix, each row's order
and closing exponent a closed form, and the dimension of the joint +1
eigenspace comes from growing the group the rows generate, coset by
coset.  ``verify_stabilizer``, ``stabilizer_eigenbasis`` and
``compose.paste_distance2`` all use it; ``ErrorWord`` appears only where
rows come in and go out.

``stabilizer_eigenbasis`` builds its columns by one integer walk over the
orbits of the rows' shifts; ``verify_stabilizer`` applies its own float
projector instead, so the check does not share that construction; it
applies each row by the shift map and character row of ``errors._Shape``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import PHASE_I, PHASE_ONE, Phase, phase_as_complex, phase_mul, roots_of_unity
from .clique import CodingClique
from .errors import (
    ConstructionInputError,
    ErrorWord,
    IntegerRangeError,
    MixedSystem,
    _Shape,
    _check_cap,
    _real,
    error_blocks,
    format_word,
    support_rows,
    supports,
    word_from_row,
    word_radices,
)


class Code:
    """A claimed ((n, K, d)) code: a clique over graphs, an explicit
    basis, or both (the basis derived from the clique on demand).

    A basis with at most one nonzero per row (a stabilizer eigenbasis, and
    the pastings, products and projections built from one) is kept in its
    monomial form ``(col, val)``: row r holds val[r] in column col[r], or
    nothing when col[r] is -1.  Its columns are orthogonal by construction;
    ``basis()`` builds the dense D x K array only when asked."""

    def __init__(self, system: MixedSystem, K: int, d: int,
                 clique: CodingClique | None = None,
                 basis: np.ndarray | None = None,
                 monomial: tuple[np.ndarray, np.ndarray] | None = None):
        if clique is None and basis is None and monomial is None:
            raise ValueError("code needs a clique or a basis")
        if monomial is not None:
            col = np.asarray(monomial[0], dtype=np.int64)
            val = np.asarray(monomial[1], dtype=complex)
            if col.shape != (system.total_dim,) or val.shape != col.shape:
                raise ValueError(f"monomial form needs {system.total_dim} rows")
            if col.min() < -1 or col.max() >= K:
                raise ValueError(f"monomial column index outside [-1, {K})")
            norms = np.bincount(col + 1, np.abs(val) ** 2, K + 1)[1:]
            if np.abs(norms - 1).max() > 1e-9:
                raise ValueError("basis is not orthonormal")
            monomial = col, val
        if basis is not None:
            basis = np.ascontiguousarray(basis, dtype=complex)
            if basis.ndim != 2 or basis.shape != (system.total_dim, K):
                raise ValueError(f"basis must be {system.total_dim} x {K}")
            # B^dag B from one real symmetric product of the (Re, Im)
            # columns: P[a, s, b, t] = part s of column a . part t of b
            W = basis.view(np.float64)
            P = (W.T @ W).reshape(K, 2, K, 2)
            re = P[:, 0, :, 0] + P[:, 1, :, 1] - np.eye(K)
            im = P[:, 0, :, 1] - P[:, 1, :, 0]
            if np.hypot(re, im).max() > 1e-9:
                raise ValueError("basis is not orthonormal")
        if clique is not None and clique.K != K:
            raise ValueError(f"clique has {clique.K} vectors, claimed K = {K}")
        self.system = system
        self.K = K
        self.d = d
        self.clique = clique
        self.monomial = monomial
        self._basis = basis

    @property
    def n(self) -> int:
        return self.system.n

    @staticmethod
    def from_clique(clique: CodingClique) -> "Code":
        sys = clique.system()
        return Code(sys, clique.K, clique.d, clique=clique)

    @staticmethod
    def from_basis(system: MixedSystem, basis: np.ndarray, d: int) -> "Code":
        basis = np.asarray(basis, dtype=complex)
        return Code(system, basis.shape[1], d, basis=basis)

    @staticmethod
    def from_monomial(system: MixedSystem, monomial: tuple[np.ndarray, np.ndarray],
                      d: int) -> "Code":
        """A code from its monomial form; K is one more than the largest
        column index."""
        return Code(system, int(np.max(monomial[0])) + 1, d, monomial=monomial)

    def basis(self) -> np.ndarray:
        """The dense D x K basis: built afresh on each call for a monomial
        form, which ``dim_cap()`` bounded when it was built; cached for a
        clique, bounded in ``_exponents``.  The numeric scan of a clique
        never calls it."""
        if self.monomial is not None:
            col, val = self.monomial
            B = np.zeros((self.system.total_dim, self.K), dtype=complex)
            rows = np.flatnonzero(col >= 0)
            B[rows, col[rows]] = val[rows]
            return B
        if self._basis is None:
            # quarter turns are exact: a qubit-layer clique's basis is real
            L, expo = self._exponents()
            self._basis = (roots_of_unity(L) / math.sqrt(self.system.total_dim))[expo]
        return self._basis

    def _exponents(self) -> tuple[int, np.ndarray]:
        """(L, expo): the clique's codeword c is D^{-1/2} w_L^expo[j, c] on
        |j>, expo in the narrowest unsigned dtype that holds 2(L - 1)."""
        D = self.system.total_dim
        _check_cap(D)
        sp, V = self.clique.layout, self.clique.labels
        L = sp.modulus
        # layer l adds (L/m_l) e_l(j_l, c_l) mod L over its digits in label
        # column order; then the per-particle layout
        dtype = np.min_scalar_type(2 * (L - 1))
        expo = np.zeros((1, self.K), dtype=dtype)
        for (m, n), a in zip(sp.layers, sp.starts):
            e = _layer_exponents(m, sp.gamma[a:a + n, a:a + n], V[:, a:a + n])
            expo = (expo[:, None] + (e * (L // m)).astype(dtype)).reshape(-1, self.K) % L
        expo = expo.reshape(tuple(sp.mods) + (self.K,))
        return L, expo.transpose(sp.factor_columns.tolist() + [sp.width]).reshape(D, self.K)


def _layer_exponents(m: int, gamma: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """e[j, c] = Q(j) + c.j mod m, Q(j) = j.gamma.j / 2, for every digit
    row j of Z_m^n in row-major order and every label row c: the layer
    state Z^c |G> of a graph with adjacency gamma is m^{-n/2} w_m^e[j, c]
    on |j>.  The one formula of a clique's codewords, which ``Code.basis``
    and the numeric scan both read."""
    n = len(gamma)
    j = np.indices((m,) * n).reshape(n, -1)
    q = (j * (gamma @ j)).sum(axis=0) // 2
    return (q[:, None] + j.T @ labels.T) % m


@dataclass(frozen=True)
class KLReport:
    ok: bool
    mode: str
    checked_errors: int
    max_deviation: float | None
    f_summary: dict
    witness: dict | None = None

    def to_json(self) -> dict:
        out = {
            "verdict": "pass" if self.ok else "fail",
            "mode": self.mode,
            "checked_errors": self.checked_errors,
            "f_values_summary": self.f_summary,
        }
        if self.max_deviation is not None:
            out["max_deviation"] = self.max_deviation
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _word_json(sys: MixedSystem, e: ErrorWord) -> dict:
    out = {"x": [list(xi) for xi in e.x], "z": [list(zi) for zi in e.z]}
    if sys.layers is not None and sys.n <= 9:
        out["notation"] = format_word(sys, e)
    return out


def kl_verify_symbolic(code: Code, d: int | None = None) -> KLReport:
    """Exact KL check for clique-form codes.

    On graph layer l an error X^s Z^t acts on the codeword Z^c |G_l> as
    a root of unity times Z^(c + delta_l), delta_l = t_l - s_l.Gamma_l.
    If every delta_l is zero the error acts diagonally, with the phase
    prod_l w^(-s_l . c_l) on codeword c, and these phases must agree
    across codewords; otherwise <i|E|j> vanishes for all pairs unless
    some pairwise difference c_i - c_j equals delta, which is exactly
    what condition (iii) forbids.  Each block of ``error_blocks`` is
    judged in integer arrays; counts run up to the first failing error.
    """
    if code.clique is None:
        raise ValueError("symbolic verification requires clique form")
    d = code.d if d is None else d
    cl = code.clique
    sys = code.system
    sp, V, L = cl.layout, cl.labels, cl.layout.modulus
    K = len(V)
    # the key of every c_i - c_j; -1 on the diagonal, which no delta has
    pair_keys = np.zeros((K, K), dtype=np.int64)
    for col in range(sp.width):
        pair_keys += (V[:, None, col] - V[None, :, col]) % sp.mods[col] * sp.weights[col]
    np.fill_diagonal(pair_keys, -1)
    diff_keys, first_pair = np.unique(pair_keys, return_index=True)

    checked = diagonal = 0
    witness = None
    for supp, E in error_blocks(word_radices(sys), d - 1):
        cols = sp.columns(supp)
        X = E[:, 0::2]
        delta = -(X @ sp.gamma[cols])
        delta[:, cols] += E[:, 1::2]
        delta %= sp.mods
        diag = ~delta.any(axis=1)
        # prod_l w_{m_l}^(s_l . c_l) = w_L^phase
        phase = (X * (L // sp.mods[cols])) @ V[:, cols].T % L
        split = diag & (phase != phase[:, :1]).any(axis=1)
        keys = sp.keys(delta)
        at = np.minimum(np.searchsorted(diff_keys, keys), len(diff_keys) - 1)
        collide = ~diag & (diff_keys[at] == keys)
        failing = np.flatnonzero(split | collide)
        stop = int(failing[0]) + 1 if failing.size else len(E)
        checked += stop
        diagonal += int(diag[:stop].sum())
        if failing.size:
            r = stop - 1
            witness = {"error": _word_json(sys, word_from_row(sys, supp, E[r].tolist()))}
            if diag[r]:
                c = V[int((phase[r] != phase[r, 0]).argmax())]
                witness.update(kind="diagonal", vector=sp.split(c))
            else:
                i, j = divmod(int(first_pair[at[r]]), K)
                witness.update(kind="offdiagonal", pair=[i, j])
            break
    return KLReport(witness is None, "symbolic", checked, None,
                    {"diagonal_errors": diagonal, "vanishing_errors": checked - diagonal},
                    witness)


class _KLReducer:
    """``fit`` takes K x K matrices M = <i|E|j>, given by their entries
    at a list of pairs, to f = tr(M)/K and the deviation max |M - f I|;
    ``add`` folds fitted errors, in enumeration order, into the summary,
    whose witness is the first error with a deviation above tol."""

    def __init__(self, sys: MixedSystem, tol: float):
        self.sys = sys
        self.tol = tol
        self.checked = 0
        self.max_deviation = 0.0
        self.nonzero_f = 0
        self.max_abs_f = 0.0
        self.witness: dict | None = None

    @staticmethod
    def fit(M: np.ndarray, pairs: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
        """f and the deviation of n K x K matrices given by their entries
        M[:, p] (shape (n, len(pairs))) at the flat positions pairs[p] = i K + j,
        every other entry 0; a missing diagonal entry deviates by |f|."""
        on = (np.arange(0, K * K, K + 1) if len(pairs) == K * K
              else np.flatnonzero(pairs // K == pairs % K))
        diag = M.take(on, axis=1)  # one row per error, summed in np.trace's order
        f = diag.sum(axis=1) / K
        dev = np.abs(M)
        dev[:, on] = np.abs(diag - f[:, None])
        dev = dev.max(axis=1, initial=0.0)
        return f, (np.maximum(dev, np.abs(f)) if len(on) < K else dev)

    def add(self, f: np.ndarray, dev: np.ndarray, word_at) -> None:
        """Fold in one batch; ``word_at(j)`` is the error word of entry j."""
        self.checked += len(dev)
        abs_f = np.abs(f)
        nonzero = abs_f > self.tol
        if nonzero.any():
            self.nonzero_f += int(nonzero.sum())
            self.max_abs_f = max(self.max_abs_f, float(abs_f[nonzero].max()))
        self.max_deviation = max(self.max_deviation, float(dev.max(initial=0.0)))
        if self.witness is None:
            failing = np.flatnonzero(dev > self.tol)
            if failing.size:
                j = int(failing[0])
                self.witness = {"error": _word_json(self.sys, word_at(j)),
                                "deviation": float(dev[j])}

    def report(self, mode: str) -> KLReport:
        return KLReport(self.witness is None, mode, self.checked,
                        self.max_deviation,
                        {"nonzero_f": self.nonzero_f, "max_abs_f": self.max_abs_f},
                        self.witness)


class _SupportScan:
    """Every error word of a code, one support S at a time.

    ``matrices`` yields (xs, pairs, M) for chunks of the flat shifts xs on
    S: M[(x, z), p] is the entry pairs[p] = i K + j of <i|X^x Z^z|j> for
    every flat phase z on S, ascending: together the (x, z) grid of every
    word on S.  ``fits`` takes each row to f and the deviation by
    ``_KLReducer.fit``.  The geometry of S, an ``errors._Shape``, is formed
    once per shape of support and held for the scan.  The code's form picks:

    * ``layer_products`` for a clique.  Its codeword k is one graph state
      per layer, Z^c_k1 |G_1> (x) ... (x) Z^c_kL |G_L>, and every error
      splits over the same layers, so <k|E|k'> = prod_l <c_kl|E_l|c_k'l>.
      Each layer keeps the table of the states of its distinct labels
      (``_layer_exponents``, unnormalised: +-1 integers on a Z_2 layer),
      and per support the ``grid`` of every word on S_l, the particles of
      S in layer l.  A chunk multiplies, per layer, the rows of its words
      at each codeword pair's labels, the first layer's times 1/D: exact
      over Z_2 layers, where 1/D is a power of two.  A chunk holds at most
      D entries, and at least one shift; no array has D rows.

    Every other source starts from the basis gathered as A[u, r, k] (u the
    digits on S, r the rest): X^x Z^z maps |u> to chi_z(u) |u + x>, so
    <i|E|j> = sum_u chi_z(u) G_x[u]_ij with G_x[u] = A[u + x]^dag A[u].
    Per shift x, ``blocks`` yields (x, pairs, T), T[u, p] the entry
    pairs[p] of G_x[u], and one product chi @ T gives every phase z:

    * ``pair_sums`` for a monomial form (each row's column index and
      value, as for a stabilizer eigenbasis): G_x[u]_ij is nonzero only at
      the pairs of the columns of rows u + x and u where both hold an
      entry, at most K for a stabilizer code, whose shifts send each
      column j into one column i_of[j].  Each shift gathers whole rows of
      the support's (dS, R) copy and sums them by one ``np.bincount``;
    * ``grams`` for a dense basis, and for a clique layer's table: all K^2
      pairs, from one batched product per shift over the support's
      contiguous (dS, R, K) stack, dS K^2 entries a shift.  x = 0 of a
      real basis is a symmetric rank-k update (syrk), and a real basis is
      held as a float64 view, which chi, real on qubit factors, keeps real.
    """

    def __init__(self, code: Code):
        self._frame(code.system, code.K)
        if code.monomial is not None:
            self.col, self.val = (a.reshape(self.flat) for a in code.monomial)
            self.blocks = self.pair_sums
        elif code.clique is not None:
            _check_cap(self.sys.total_dim)  # the work still grows with D
            self._layer_tables(code.clique)
            self.matrices = self.layer_products
        else:
            self._hold(_real(code.basis()))

    def _frame(self, sys: MixedSystem, K: int) -> None:
        self.sys, self.K = sys, K
        self.flat = sys.flat_dims()
        self.first_axis = np.cumsum([0] + [len(f) for f in sys.factors])
        self.shapes: dict[tuple, _Shape] = {}

    def _hold(self, B: np.ndarray) -> None:
        """Take the D x K array B as the dense source."""
        self.Bt = B.reshape(self.flat + (self.K,))
        self.blocks = self.grams

    def _layer_tables(self, clique: CodingClique) -> None:
        """Per layer l: the scan of its table, the states w_m^e[j, c] of
        its distinct labels c (m^n_l rows, unnormalised: +-1 integers on a
        Z_2 layer), its particle count, and the index of each codeword's
        label among them.  Layers with one graph and one label set share
        one table."""
        sp, V = clique.layout, clique.labels
        self.layers, tables = [], {}
        for (m, n), a in zip(sp.layers, sp.starts):
            gamma = sp.gamma[a:a + n, a:a + n]
            keys = V[:, a:a + n] @ m ** np.arange(n - 1, -1, -1)
            distinct, first, index = np.unique(keys, return_index=True, return_inverse=True)
            key = (m, n, gamma.tobytes(), distinct.tobytes())
            if key not in tables:
                table = _real(roots_of_unity(m))[_layer_exponents(m, gamma, V[first, a:a + n])]
                tables[key] = scan = _SupportScan.__new__(_SupportScan)
                scan._frame(MixedSystem(((m,),) * n), len(distinct))
                scan._hold(table)
            self.layers.append((tables[key], n, index))

    def shape(self, supp: tuple[int, ...]) -> _Shape:
        """The geometry of S, formed once per shape for this scan."""
        key = tuple(self.sys.factors[i] for i in supp)
        return self.shapes.get(key) or self.shapes.setdefault(key, _Shape(key))

    def axes(self, supp: tuple[int, ...]) -> list[int]:
        """The flat tensor axes of S."""
        return [a for i in supp for a in range(self.first_axis[i], self.first_axis[i + 1])]

    def matrices(self, supp: tuple[int, ...]):
        """Yield (xs, pairs, M) for the flat shifts xs on S, one at a time:
        M[z, p] the entry pairs[p] of X^x Z^z for every flat phase z on S,
        ascending, from one product chi @ T with the character table."""
        chi = self.shape(supp).chi
        for x, pairs, T in self.blocks(supp):
            yield range(x, x + 1), pairs, chi @ T

    def fits(self, supp: tuple[int, ...]):
        """Yield (x, f, deviation) for every flat shift x on S: f and the
        deviation of X^x Z^z for every flat phase z on S, ascending."""
        for xs, pairs, M in self.matrices(supp):
            f, dev = _KLReducer.fit(M, pairs, self.K)
            yield from zip(xs, f.reshape(len(xs), -1), dev.reshape(len(xs), -1))

    def grid(self, supp: tuple[int, ...]) -> np.ndarray:
        """G[x dS + z, i K + j] = <i|X^x Z^z|j> of the dense source over the
        flat shifts and phases on S; at S empty, the one row of the
        identity."""
        if not supp:
            B = self.Bt.reshape(-1, self.K)
            return (B.conj().T @ B).reshape(1, -1)
        dS, chi = self.shape(supp).size, self.shape(supp).chi
        G = np.empty((dS, dS * self.K ** 2), np.result_type(chi, self.Bt))
        for (x,), _, M in self.matrices(supp):
            G[x] = M.ravel()
        return G.reshape(dS * dS, -1)

    def layer_products(self, supp: tuple[int, ...]):
        """Yield (xs, pairs, M) for chunks of the flat shifts xs on S of a
        clique: all K^2 pairs, and M[(x, z), i K + j] the product over the
        layers l of <c_i,l|E_l|c_j,l>, read off the grid of S_l, the
        particles of S in layer l, at each codeword's label, times 1/D.  A
        chunk holds at most D entries, and at least one shift."""
        K, D = self.K, self.sys.total_dim
        U, dS = self.shape(supp).U, self.shape(supp).size
        # the layer of each flat axis on S: its place in its particle's factors
        layer_of = np.array([l for i in supp for l in range(len(self.sys.factors[i]))])
        grids, entries, on_S = {}, [], []
        for l, (scan, n, index) in enumerate(self.layers):
            Sl = tuple(i for i in supp if i < n)
            if (scan, Sl) not in grids:
                grids[scan, Sl] = scan.grid(Sl)
            # every codeword pair's entry, one row per word on S_l
            entries.append(grids[scan, Sl].take((index[:, None] * scan.K + index).ravel(), axis=1))
            # the flat index on S_l of every flat index on S, and dS_l
            digits, m = U[layer_of == l], scan.flat[0]
            on_S.append((m ** np.arange(len(digits) - 1, -1, -1) @ digits, m ** len(digits)))
        del grids  # only the pair entries are read from here on
        # 1/D joins the first layer: exactly, over Z_2 layers, where D is a
        # power of two
        entries[0] = entries[0].astype(np.result_type(*entries), copy=False)
        entries[0] /= D
        pairs = np.arange(K * K)
        step = max(1, D // (dS * K * K))
        for x0 in range(0, dS, step):
            xs = range(x0, min(x0 + step, dS))
            rows = [(on_l[x0:xs.stop, None] * dl + on_l).ravel() for on_l, dl in on_S]
            M = entries[0].take(rows[0], axis=0)
            for P, r in zip(entries[1:], rows[1:]):
                M *= P.take(r, axis=0)
            yield xs, pairs, M

    def pair_sums(self, supp: tuple[int, ...]):
        """Yield (x, pairs, T) for every flat shift x on S of a code in
        monomial form: the pairs i K + j, ascending, of the columns i of
        rows u + x and j of rows u where both are nonzero, and
        T[u, p] = sum_r conj(A[u + x, r, i]) A[u, r, j] for pair p, summed
        over the rows (u, r) in flat order whichever numbering is taken."""
        K, axes, shape = self.K, self.axes(supp), self.shape(supp)
        dS = shape.size
        # one contiguous (dS, R) copy per support, so that each shift
        # gathers whole rows u + x; the rows (u, r) in flat order
        col, val = (np.ascontiguousarray(np.moveaxis(a, axes, range(len(axes))).reshape(dS, -1))
                    for a in (self.col, self.val))
        # each row (u, r) binned by its column j and u, j dS + u; one row
        # of each column, rep[j]; masks only when some row has no column
        j = col.ravel()
        by_col = j * dS + np.arange(dS).repeat(col.shape[1])
        on = np.flatnonzero(j >= 0)
        rep = np.empty(K, dtype=np.int64)
        rep[j[on]] = on
        nz = j >= 0 if len(on) < len(j) else None
        for x in range(dS):
            to = shape.shifted(x)
            i, w = col[to].ravel(), val[to].ravel()
            np.conj(w, out=w)
            w *= val.ravel()
            i_of, ju, bins = i[rep], j, by_col
            if nz is not None:
                hit = nz & (i >= 0)
                i, w, ju, bins = i[hit], w[hit], j[hit], by_col[hit]
            # number the pairs that occur: through the partner map i_of[j],
            # read off rep, when every row of column j meets column i_of[j]
            # (every shift of a stabilizer eigenbasis): its at most K keys
            # sorted, and the bins by column taken in pair order; else by
            # sorting every hit's key
            if np.array_equal(i_of[ju], i):
                js = np.flatnonzero(i_of >= 0)
                keys = i_of[js] * K + js
                order = keys.argsort()
                pairs, take, size = keys[order], js[order], K * dS
            else:
                pairs, at = np.unique(i * K + ju, return_inverse=True)
                take, size = np.arange(len(pairs)), len(pairs) * dS
                bins = at * dS + bins % dS
            T = np.empty(size, dtype=complex)
            T.real = np.bincount(bins, w.real, size)
            T.imag = np.bincount(bins, w.imag, size)
            yield x, pairs, T.reshape(-1, dS)[take].T

    def grams(self, supp: tuple[int, ...]):
        """Yield (x, pairs, T) for every flat shift x on S of a code with a
        dense basis: all K^2 pairs i K + j, and T[u, i K + j] the entries of
        G_x[u] = A[u + x]^dag A[u] over the flat index u, one batched
        product per shift."""
        axes, shape, K = self.axes(supp), self.shape(supp), self.K
        rest = [a for a in range(len(self.flat)) if a not in axes]
        # one contiguous (dS, R, K) copy per support, as BLAS and numpy's
        # syrk test need
        A = np.ascontiguousarray(self.Bt.transpose(axes + rest + [len(self.flat)])
                                 .reshape(shape.size, -1, K))
        # A itself when real: then x = 0 reads one buffer, and numpy's
        # matmul forms it by a symmetric rank-k update (syrk)
        AcT = A.conj().transpose(0, 2, 1)
        pairs = np.arange(K * K)
        for x in range(shape.size):
            G = (AcT if x == 0 else AcT[shape.shifted(x)]) @ A
            yield x, pairs, G.reshape(shape.size, K * K)


def check_tol(tol: float) -> float:
    """``tol`` itself if it is a finite number > 0, else ValueError: no
    deviation exceeds a NaN or infinite tolerance, so every check would
    pass."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be a finite number > 0, got {tol!r}")
    return tol


def kl_verify_numeric(code: Code, d: int | None = None, tol: float = 1e-9) -> KLReport:
    """Direct KL check: for every error of weight below d, the K x K
    matrix of inner products must be f times the identity within tol."""
    check_tol(tol)
    d = code.d if d is None else d
    scan, radices = _SupportScan(code), word_radices(code.system)
    reducer = _KLReducer(code.system, tol)
    for supp in supports(code.n, d - 1):
        shape = scan.shape(supp)
        grids = np.empty((2, shape.size ** 2), complex)  # f and the deviation over (x, z)
        for xs, pairs, M in scan.matrices(supp):
            at = slice(xs.start * shape.size, xs.stop * shape.size)
            grids[0, at], grids[1, at] = _KLReducer.fit(M, pairs, code.K)
        f, dev = grids[:, shape.positions]  # the words of weight |S|, in order
        reducer.add(f, dev.real, lambda j: word_from_row(  # the j-th word of weight |S|
            code.system, supp, support_rows(radices, supp, j, j + 1)[0].tolist()))
    return reducer.report("numeric")


def kl_verify_words(code: Code, words: Sequence[ErrorWord], tol: float = 1e-9) -> KLReport:
    """KL check for an explicit word list, fitted by ``_word_fits`` in list order."""
    check_tol(tol)
    fits = _word_fits(code.system, _real(code.basis()), words)
    reducer = _KLReducer(code.system, tol)
    reducer.add(fits[0], fits[1].real, words.__getitem__)
    return reducer.report("words")


def _word_rows(whole: _Shape, words: Sequence[ErrorWord]):
    """Per word: the flat index of its shift, its z digits and its phase."""
    digits = np.array([[a for part in (e.x, e.z) for p in part for a in p] for e in words],
                      dtype=np.int64).reshape(len(words), 2, len(whole.dims)) % whole.moduli.T
    turns = {p: phase_as_complex(p) for p in {e.phase for e in words}}
    return (np.ravel_multi_index(digits[:, 0].T, whole.dims), digits[:, 1],
            _real(np.array([turns[e.phase] for e in words])))


def _word_fits(sys: MixedSystem, B: np.ndarray, words: Sequence[ErrorWord]) -> np.ndarray:
    """f and the deviation (rows 0 and 1, in list order) of B^dag E B for
    the words E = phase X^x Z^z, |u> -> phase chi_z(u) |u + x>: grouped by
    shift x, B[u + x] is gathered once per group, and each word's matrix is
    one product B[u + x]^dag (phase chi_z(u) B[u]), D K^2 work and D K memory."""
    K, whole = B.shape[1], _Shape(sys.factors)
    shifts, z, phases = _word_rows(whole, words)
    fits = np.empty((2, len(words)), complex)
    for x in dict.fromkeys(shifts.tolist()):
        at, BxH = np.flatnonzero(shifts == x), B[whole.shifted(x)].conj().T
        C = whole.characters(z[at]) * phases[at, None]
        M = np.empty((len(at), K, K), np.result_type(B, C))
        for c, m in zip(C, M):
            np.matmul(BxH, c[:, None] * B, out=m)
        fits[:, at] = _KLReducer.fit(M.reshape(len(at), -1), np.arange(K * K), K)
    return fits


def code_distance(code: Code, w_cap: int | None = None, tol: float = 1e-9,
                  w_min: int = 1) -> int:
    """Smallest error weight at which KL fails; w_cap + 1 if none found
    up to w_cap.  Supports come by size, so the first failing shift
    settles it.  A shift's row also holds the words that leave part of S
    untouched: each passed at this tol on a smaller support (equal up to
    rounding), so they change no answer; only the identity is skipped.
    Weights below w_min are taken as passing (``kl_verify_numeric`` at d = w_min)."""
    check_tol(tol)
    w_cap = code.n if w_cap is None else w_cap
    scan = _SupportScan(code)
    for supp in supports(code.n, w_cap):
        if len(supp) >= w_min and any((dev[x == 0:] > tol).any()
                                      for x, _, dev in scan.fits(supp)):
            return len(supp)
    return w_cap + 1


# --- stabilizer rows ---------------------------------------------------


# The row notation: on each factor the digits (x, z) in {0, 1} are the
# symbol _SYMBOLS[x + 2 z], and Y stands for i X Z on a qubit factor.
_SYMBOLS = tuple("IXZY")


@dataclass(frozen=True)
class StabilizerRow:
    """One generator, parsed from per-layer symbol strings such as
    ("ZZXXZ", "III"), with its exact phase in the word."""

    text: tuple[str, ...]
    word: ErrorWord


def parse_stabilizer_row(sys: MixedSystem, layer_strings: Sequence[str],
                         phase: Phase = PHASE_ONE) -> StabilizerRow:
    """The row the symbol strings name, times ``phase``."""
    layers = sys.layers
    if layers is None:
        raise ValueError("stabilizer rows require a layered system")
    if len(layer_strings) != len(layers):
        raise ValueError(f"expected {len(layers)} layer strings")
    x = [[0] * len(f) for f in sys.factors]
    z = [[0] * len(f) for f in sys.factors]
    ph = phase
    for l, ((m, nl), text) in enumerate(zip(layers, layer_strings)):
        if len(text) != nl:
            raise ValueError(f"layer {l} needs {nl} symbols, got {text!r}")
        for i, sym in enumerate(text):
            try:
                k = _SYMBOLS.index(sym)
            except ValueError:
                raise ValueError(f"unknown symbol {sym!r} in layer {l}") from None
            if k == 3:
                if m != 2:
                    raise ValueError("Y is only defined on qubit factors")
                ph = phase_mul(ph, PHASE_I)
            x[i][l], z[i][l] = k % 2, k // 2
    word = ErrorWord(tuple(tuple(r) for r in x), tuple(tuple(r) for r in z), ph)
    return StabilizerRow(tuple(layer_strings), word)


def _row_text(sys: MixedSystem, w: ErrorWord) -> tuple[str, ...]:
    """Per-layer symbol strings for a word with digits in {0, 1}.  A
    qubit factor carrying both a shift and a phase prints as Y; the exact
    phase lives in the word, not the text.  A larger digit, or both
    digits 1 on a factor of modulus above 2, has no symbol that
    ``parse_stabilizer_row`` reads back, which makes the rows bad input
    to a pasting."""
    out = []
    for l, (m, nl) in enumerate(sys.layers):
        syms = []
        for i in range(nl):
            a, b = w.x[i][l], w.z[i][l]
            if a > 1 or b > 1 or a == b == 1 and m != 2:
                raise ConstructionInputError(
                    "symbol notation only covers digits 0/1, and Y only on qubit factors")
            syms.append(_SYMBOLS[a + 2 * b])
        out.append("".join(syms))
    return tuple(out)


class _Tableau:
    """Stabilizer rows as integer arrays: row r is
    w_N^P[r] prod_f X^X[r, f] Z^Z[r, f] over the flat factors f, with N
    the lcm of the factor moduli m_f and the phase denominators, and
    w_f = N / m_f.  An element is a pair (digits, P), digits = [X | Z].

    * Rows a and b commute when sum_f w_f (Z[a, f] X[b, f] - X[a, f] Z[b, f])
      is 0 mod N.
    * The product of elements a and b has digits a + b and phase
      P_a + P_b + sum_f w_f Z_a X_b, from moving Z^z_a past X^x_b.
    * Hence g^k has digits k x, k z and phase k P + k(k-1)/2 t with
      t = sum_f w_f x_f z_f.  At the order o, the smallest k with
      k x = k z = 0, that phase is the closing exponent: 0 exactly when
      g^o = I, so that +1 is in the spectrum of g.
    """

    def __init__(self, sys: MixedSystem, words: Sequence[ErrorWord]):
        flat = sys.flat_dims()
        self.sys = sys
        self.N = math.lcm(*flat, *(w.phase.L for w in words))
        # every product below is of two residues mod N, summed over factors
        if self.N ** 2 * len(flat) >= 2 ** 63:
            raise IntegerRangeError(
                f"phase exponents exceed int64: the common denominator N = "
                f"{self.N} of the factor moduli and phases needs "
                f"N^2 * {len(flat)} < 2^63")
        self.w = self.N // np.array(flat, dtype=np.int64)
        self.m = np.tile(flat, 2)  # the moduli of the digits
        self.digits = np.array([[a for part in (w.x, w.z) for d in part for a in d]
                                for w in words], dtype=np.int64
                               ).reshape(len(words), len(self.m)) % self.m
        self.P = np.array([w.phase.k * (self.N // w.phase.L) for w in words],
                          dtype=np.int64)

    @property
    def X(self) -> np.ndarray:
        return self.digits[:, :len(self.w)]

    @property
    def Z(self) -> np.ndarray:
        return self.digits[:, len(self.w):]

    @property
    def orders(self) -> np.ndarray:
        """The order of each row's label: the lcm of m / gcd(digit, m)."""
        return np.lcm.reduce(self.m // np.gcd(self.digits, self.m), axis=1)

    def _power_phase(self, r, k):
        """The phase exponent of row r to the power k (arrays broadcast)."""
        N = self.N
        t = (self.X[r] * self.Z[r] * self.w).sum(axis=-1) % N
        return (k * self.P[r] % N + k * (k - 1) // 2 % N * t) % N

    def closing(self) -> np.ndarray:
        """The phase exponent of each row to the power of its order."""
        return self._power_phase(slice(None), self.orders)

    def powers(self, r: int, k: np.ndarray):
        """The elements row r to each power in k."""
        return k[:, None] * self.digits[r] % self.m, self._power_phase(r, k)

    def mul(self, a, b):
        """The elements a_i b_j for all i, j of two element sets, i major."""
        (da, pa), (db, pb) = a, b
        F = len(self.w)
        return (((da[:, None] + db) % self.m).reshape(-1, 2 * F),
                ((da[:, F:] * self.w) @ db[:, :F].T % self.N + pa[:, None] + pb
                 ).ravel() % self.N)

    def commutators(self) -> np.ndarray:
        """C with g_a g_b = w_N^C[a, b] g_b g_a for every pair of rows."""
        return ((self.Z * self.w) @ self.X.T - (self.X * self.w) @ self.Z.T) % self.N

    def noncommuting_pair(self) -> tuple[int, int] | None:
        """The first pair i < j, in row-major order, whose rows do not
        commute."""
        pairs = np.argwhere(np.triu(self.commutators(), 1))
        return tuple(pairs[0].tolist()) if len(pairs) else None

    def eigenspace_dim(self) -> float:
        """Dimension of the joint +1 eigenspace of commuting rows.

        The rows generate an abelian group G of operators, and the joint
        projector is the average over G.  Its trace is D/|G| when no two
        elements of G share a label, and 0 when some do, since their
        quotient is then a nontrivial scalar in G.  G grows one row g at a
        time as the union of the cosets g^k G, k < s, where g^s is the
        first power whose label lands in G: if g^s is not the element of
        G with that label, phase included, G holds a nontrivial scalar.
        Labels are keyed as mixed-radix numbers of the digits."""
        D = self.sys.total_dim
        if D * D >= 2 ** 63:
            raise IntegerRangeError(f"label space exceeds int64 keys: D = {D} "
                                    f"needs D^2 < 2^63")
        radix = np.cumprod(np.append(1, self.m[:0:-1]))[::-1]
        G, P = np.zeros((1, len(self.m)), np.int64), np.zeros(1, np.int64)
        for r, o in enumerate(self.orders.tolist()):
            g, gP = self.powers(r, np.arange(1, o + 1))
            keys, gkeys = G @ radix, g @ radix
            order = np.argsort(keys)
            at = order[np.minimum(np.searchsorted(keys, gkeys, sorter=order),
                                  len(keys) - 1)]
            s = int(np.argmax(keys[at] == gkeys))  # g^(s+1) lands in G
            if gP[s] != P[at[s]]:
                return 0.0
            new, newP = self.mul((g[:s], gP[:s]), (G, P))
            G, P = np.concatenate([G, new]), np.concatenate([P, newP])
        return D / len(G)

    def words(self) -> list[ErrorWord]:
        """The rows as error words."""
        cuts = np.cumsum([0] + [len(f) for f in self.sys.factors])
        split = lambda row: tuple(tuple(row[a:b]) for a, b in zip(cuts, cuts[1:]))
        return [ErrorWord(split(x), split(z), Phase(p, self.N))
                for x, z, p in zip(self.X.tolist(), self.Z.tolist(), self.P.tolist())]


def _project_columns(sys: MixedSystem, words: Sequence[ErrorWord],
                     orders: Sequence[int], mat: np.ndarray) -> np.ndarray:
    """Apply the joint projector as the product of per-row cyclic
    averages (each exact because the adjusted phase closes the order)."""
    whole, out = _Shape(sys.factors), mat.astype(complex)
    for x, z, phase, ordw in zip(*_word_rows(whole, words), orders):
        # the u of each row u + x, and phase chi_z(u) as a column: O(D) a row
        back, c = np.argsort(whole.shifted(x)), (whole.characters(z[None]) * phase).T
        acc = cur = out
        for _ in range(ordw - 1):
            cur = (c * cur)[back]
            acc = acc + cur
        out = acc / ordw
    return out


@dataclass(frozen=True)
class StabilizerReport:
    ok: bool
    commuting: bool
    row_orders: tuple[int, ...]
    chosen_phases: tuple[Phase, ...]
    eigenspace_dim: float
    projector_diff: float | None
    witness: dict | None = None

    def to_json(self) -> dict:
        out = {
            "verdict": "pass" if self.ok else "fail",
            "commuting": self.commuting,
            "row_orders": list(self.row_orders),
            "chosen_phases": [[p.k, p.L] for p in self.chosen_phases],
            "eigenspace_dim": self.eigenspace_dim,
        }
        if self.projector_diff is not None:
            out["projector_diff"] = self.projector_diff
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def verify_stabilizer(rows: Sequence[StabilizerRow], code: Code,
                      tol: float = 1e-9) -> StabilizerReport:
    """Check rows pairwise commute, close cyclically, and stabilize
    exactly the code space once each row's free phase is fixed.

    The phase of each published row is only defined up to its cyclic
    order; the verified multiplier per row is reported.
    """
    check_tol(tol)
    sys = code.system
    words = [r.word for r in rows]
    tab = _Tableau(sys, words)
    orders = tuple(tab.orders.tolist())
    pair = tab.noncommuting_pair()
    if pair is not None:
        return StabilizerReport(False, False, orders, (PHASE_ONE,) * len(words),
                                float("nan"), None, {"noncommuting_pair": list(pair)})

    B = code.basis()
    witness: dict | None = None
    chosen: list[Phase] = []
    adjusted: list[ErrorWord] = []
    fits = _word_fits(sys, _real(B), words)
    for idx, (w, o, e, c, dev) in enumerate(zip(words, orders, tab.closing().tolist(),
                                                 fits[0], fits[1].real)):
        if dev > tol or abs(abs(c) - 1) > tol:
            if witness is None:
                witness = {"row_not_scalar_on_code": idx}
        # the multipliers lam making (lam w)^o exactly the identity
        cands = [Phase(j * tab.N - e, tab.N * o) for j in range(o)]
        lam = min(cands, key=lambda p: abs(phase_as_complex(p) - np.conj(c)))
        if witness is None and abs(phase_as_complex(lam) - np.conj(c)) > tol:
            witness = {"row_phase_outside_cyclic_group": idx}
        chosen.append(lam)
        adjusted.append(ErrorWord(w.x, w.z, phase_mul(w.phase, lam)))

    # the eigenspace is still reported when a row fails to act as a
    # scalar: the dimension mismatch is itself informative
    dim = _Tableau(sys, adjusted).eigenspace_dim()
    # code space inside eigenspace + equal dimension => projector equality;
    # the norm below is ||P - B B^dagger||_F computed without forming P
    PB = _project_columns(sys, adjusted, orders, B)
    tr_bpb = float(np.trace(B.conj().T @ PB).real)
    diff = float(np.sqrt(max(dim + code.K - 2 * tr_bpb, 0.0)))
    ok = witness is None and abs(dim - code.K) < tol and diff < np.sqrt(tol)
    if not ok and witness is None:
        witness = {"eigenspace_dim": dim, "projector_diff": diff}
    return StabilizerReport(ok, True, orders, tuple(chosen), dim, diff, witness)


def stabilizer_eigenbasis(sys: MixedSystem,
                          rows: Sequence[StabilizerRow]) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the joint +1 eigenspace, in the monomial form
    ``(col, val)`` that ``Code.from_monomial`` takes, from one walk over
    the standard basis in exact integers.

    Row r maps |j> to w_N^(P_r + sum_f w_f Z[r, f] j_f) |j + x_r>, so a
    joint eigenvector on the orbit j + H of the shifts H the rows generate
    is fixed by its entry at the orbit's smallest index s: walking from s
    along the rows adds each step's exponent.  A running minimum over
    rolls by each shift, repeated until stable, finds s for every index
    and carries the exponent e of one walk from s.  The orbit spans an
    eigenvector when every row maps those exponents onto themselves;
    otherwise some element of the group acts on it as a nontrivial
    scalar.  The surviving orbits, in ascending order of s, are the
    columns, each entry w_N^e / sqrt(|H|); rows of no such orbit get
    column -1."""
    _check_cap(sys.total_dim)
    tab = _Tableau(sys, [r.word for r in rows])
    for i, (ordw, c) in enumerate(zip(tab.orders.tolist(), tab.closing().tolist())):
        if c:
            raise ValueError(
                f"row {i} does not close: its power of order {ordw} is a "
                f"nontrivial scalar, so +1 is not in its spectrum as given; "
                f"adjust the row's phase")
    pair = tab.noncommuting_pair()
    if pair is not None:
        raise ValueError(f"rows {pair[0]} and {pair[1]} do not commute")
    flat, N, D = sys.flat_dims(), tab.N, sys.total_dim
    axes = tuple(range(len(flat)))
    digits = np.ogrid[tuple(slice(m) for m in flat)]
    # per row, its shift and the exponent it adds on leaving each index
    steps = [(x, (p + sum(c * j for c, j in zip(zw, digits))) % N)
             for x, zw, p in zip(tab.X.tolist(), (tab.Z * tab.w).tolist(),
                                 tab.P.tolist())]
    low = np.arange(D).reshape(flat)
    e = np.zeros(flat, dtype=np.int64)
    while True:
        moved, clash = False, np.zeros(flat, dtype=bool)
        for x, step in steps:
            to_low = np.roll(low, x, axis=axes)
            to_e = np.roll((e + step) % N, x, axis=axes)
            better = to_low < low
            if better.any():
                low, e = np.where(better, to_low, low), np.where(better, to_e, e)
                moved = True
            clash |= to_e != e  # settles in the last pass, when nothing moves
        if not moved:
            break
    low, e = low.ravel(), e.ravel()
    seed = low == np.arange(D)
    seed[low[clash.ravel()]] = False
    if not seed.any():
        raise ValueError("eigenspace dimension 0.0 is not a positive integer")
    col = np.where(seed, np.cumsum(seed) - 1, -1)[low]
    i = np.flatnonzero(col >= 0)
    val = np.zeros(D, dtype=complex)
    val[i] = roots_of_unity(N, e[i]) / np.sqrt(np.bincount(low)[low[i]])
    return col, val
