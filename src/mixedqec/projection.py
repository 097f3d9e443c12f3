"""Projecting an ancilla code onto a mixed-alphabet system.

A per-particle level projector turns a code over a uniform alphabet into
a mixed-alphabet code: each particle keeps a subset of its levels and the
codewords are renormalized.  The price is a larger set of errors the
ancilla code must detect, obtained by expanding P^dag E P in the ancilla
Pauli basis.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConstructionInputError, ErrorWord, MixedSystem, supports
from .verifier import Code

_COEFF_TOL = 1e-12
_VANISH_TOL = 1e-9  # a projected codeword's squared norm at or below this vanishes


@dataclass(frozen=True)
class ProjectorSpec:
    """Kept-level subsets per ancilla particle.

    A particle keeping all its levels is untouched; a proper subset
    projects it down to a smaller alphabet.
    """

    system: MixedSystem
    keep: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if any(len(f) != 1 for f in self.system.factors):
            raise ValueError("projector acts on single-factor particles")
        if len(self.keep) != self.system.n:
            raise ValueError("one kept set per particle required")
        fixed = []
        for i, (s, f) in enumerate(zip(self.keep, self.system.factors)):
            # levels index the particle's axis: 1.0 or True is not a level
            if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                       for v in s):
                raise ValueError(f"kept levels on particle {i + 1} must be integers, "
                                 f"got {list(s)!r}")
            s = tuple(sorted({int(v) for v in s}))
            if len(s) < 2:
                raise ValueError(f"particle {i + 1} keeps {len(s)} level(s); "
                                 "a projected particle needs at least two")
            if s[0] < 0 or s[-1] >= f[0]:
                raise ValueError(f"kept levels out of range on particle {i + 1}")
            fixed.append(s)
        object.__setattr__(self, "keep", tuple(fixed))

    @property
    def kept_dims(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.keep)

    def mixed_system(self) -> MixedSystem:
        return MixedSystem(tuple((p,) for p in self.kept_dims))

    def to_json(self) -> dict:
        out = {}
        for i, (s, f) in enumerate(zip(self.keep, self.system.factors)):
            if len(s) != f[0]:
                out[str(i + 1)] = list(s)
        return {"keep": out}

    @staticmethod
    def from_json(system: MixedSystem, data: dict) -> "ProjectorSpec":
        given = data.get("keep", {}) if isinstance(data, dict) else None
        if not isinstance(given, dict):
            raise ValueError("expected an object with a 'keep' object")
        keep = [tuple(range(f[0])) for f in system.factors]
        for key, levels in given.items():
            idx = int(key) - 1
            if not 0 <= idx < system.n:
                raise ValueError(f"no particle {key}")
            keep[idx] = tuple(levels)
        return ProjectorSpec(system, tuple(keep))


def _particle_tables(P: ProjectorSpec) -> list[np.ndarray]:
    """Per particle, c[a, b, alpha, beta]: the coefficient of the ancilla
    word X^alpha Z^beta in the kept-level word X^a Z^b.

    With q levels and kept levels k_0 < ... < k_{p-1}, X^a Z^b maps |k_j>
    to w_p^(b j) |k_(j+a mod p)>, so c is 1/q times the sum, over the j
    with k_(j+a mod p) - k_j = alpha (mod q), of w_p^(b j) w_q^(-beta k_j).
    """
    out = []
    for (q,), kept in zip(P.system.factors, P.keep):
        ks = np.asarray(kept)
        j = np.arange(len(ks))
        shift = (ks[np.add.outer(j, j) % len(ks)] - ks) % q      # [a, j]
        out.append(np.einsum("ajx,bj,jy->abxy", shift[:, :, None] == np.arange(q),
                             np.exp(2j * np.pi * np.outer(j, j) / len(ks)),
                             np.exp(-2j * np.pi * np.outer(ks, np.arange(q)) / q)) / q)
    return out


def _digits(mask: np.ndarray) -> list[tuple[int, int]]:
    """The (alpha, beta) where a q x q mask is set, in lexicographic order."""
    return list(map(tuple, np.argwhere(mask).tolist()))


def _word(digits: Sequence[tuple[int, int]]) -> ErrorWord:
    """The ancilla word with digits (alpha, beta) on each particle."""
    return ErrorWord(tuple((a,) for a, _ in digits), tuple((b,) for _, b in digits))


def required_detectable_set(P: ProjectorSpec, d: int = 2) -> list[ErrorWord]:
    """Ancilla words the ancilla code must detect so that the projected
    code reaches distance d: the union of the Pauli supports of P^dag E P
    over the mixed-system errors E of weight below d.

    A term is nonzero exactly when every particle's coefficient is, so
    over the errors on support S the union is a product: on S the words
    any non-identity digit reaches, off S the projector's own words.  A
    non-identity kept-level word is traceless, so no term is the identity.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    mixed = P.mixed_system()
    touched, untouched = [], []
    for c in _particle_tables(P):
        hit = np.abs(c) > _COEFF_TOL
        untouched.append(_digits(hit[0, 0]))
        hit[0, 0] = False
        touched.append(_digits(hit.any(axis=(0, 1))))
    seen = set()
    for supp in supports(mixed.n, d - 1):
        seen.update(itertools.product(*(touched[i] if i in supp else untouched[i]
                                        for i in range(mixed.n))))
    return sorted(map(_word, seen), key=lambda w: (w.x, w.z))


def project_code(ancilla_code: Code, P: ProjectorSpec) -> Code:
    """Renormalized projected codewords over the mixed system.

    The projected rows are the ancilla's rows on the kept levels, so a
    code in monomial form stays in it.  Fails if any codeword loses all
    its weight under the projector.
    """
    if ancilla_code.system.dims != P.system.dims:
        raise ConstructionInputError("projector system does not match the code")
    mixed = P.mixed_system()
    shape = tuple(f[0] for f in P.system.factors)
    grid = np.ix_(*[list(s) for s in P.keep])
    rows = np.arange(P.system.total_dim).reshape(shape)[grid].reshape(-1)
    K = ancilla_code.K
    if ancilla_code.monomial is not None:
        col, val = (a[rows] for a in ancilla_code.monomial)
        # each norm over a full-length column, as a dense column sums it
        order, buf = np.argsort(col, kind="stable"), np.zeros(len(rows), dtype=complex)
        bounds = np.searchsorted(col, np.arange(K + 1), sorter=order).tolist()
        out = np.zeros_like(val)
        for l, (a, b) in enumerate(zip(bounds, bounds[1:])):
            at = order[a:b]
            buf[at] = val[at]
            norm2 = float(np.sum(np.abs(buf) ** 2))
            buf[at] = 0
            if norm2 <= _VANISH_TOL:
                raise ValueError(f"codeword {l} vanishes under the projector")
            out[at] = val[at] / np.sqrt(norm2)
        return Code(mixed, K, ancilla_code.d, monomial=(col, out))
    B = ancilla_code.basis()
    cols = []
    for l in range(K):
        amp = B[rows, l]
        norm2 = float(np.sum(np.abs(amp) ** 2))
        if norm2 <= _VANISH_TOL:
            raise ValueError(f"codeword {l} vanishes under the projector")
        cols.append(amp / np.sqrt(norm2))
    return Code.from_basis(mixed, np.stack(cols, axis=1), ancilla_code.d)
