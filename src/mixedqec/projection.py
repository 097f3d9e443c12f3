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

from .errors import ErrorWord, MixedSystem, enumerate_errors
from .verifier import Code

_COEFF_TOL = 1e-12


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
            s = tuple(sorted(set(s)))
            if not s:
                raise ValueError(f"particle {i + 1} keeps no levels")
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
        keep = [tuple(range(f[0])) for f in system.factors]
        for key, levels in data.get("keep", {}).items():
            idx = int(key) - 1
            if not 0 <= idx < system.n:
                raise ValueError(f"no particle {key}")
            keep[idx] = tuple(levels)
        return ProjectorSpec(system, tuple(keep))


def _pauli_matrix(q: int, a: int, b: int) -> np.ndarray:
    """X^a Z^b on one q-level particle: |j> -> w^(b j) |j + a>."""
    m = np.zeros((q, q), dtype=complex)
    for j in range(q):
        m[(j + a) % q, j] = np.exp(2j * np.pi * b * j / q)
    return m


def _expand_matrix(q: int, M: np.ndarray) -> list[tuple[complex, tuple[int, int]]]:
    """Coefficients of M in the X^a Z^b basis, zero terms dropped."""
    out = []
    for a in range(q):
        for b in range(q):
            c = np.trace(_pauli_matrix(q, a, b).conj().T @ M) / q
            if abs(c) > _COEFF_TOL:
                out.append((complex(c), (a, b)))
    return out


def _embedded_particle_op(P: ProjectorSpec, particle: int, a: int, b: int) -> np.ndarray:
    """The mixed-alphabet X^a Z^b of the particle, written on the kept
    levels inside the full q-level space."""
    q = P.system.factors[particle][0]
    kept = P.keep[particle]
    p = len(kept)
    M = np.zeros((q, q), dtype=complex)
    for j in range(p):
        M[kept[(j + a) % p], kept[j]] = np.exp(2j * np.pi * b * j / p)
    return M


def projected_error(e: ErrorWord, P: ProjectorSpec) -> list[tuple[complex, ErrorWord]]:
    """Expansion of P^dag E P over the ancilla Pauli words.

    Everything factorizes per particle, so each particle is expanded
    separately and the terms are combined as products.
    """
    sys = P.system
    per_particle = []
    for i in range(sys.n):
        q = sys.factors[i][0]
        a, b = e.x[i][0], e.z[i][0]
        kept = P.keep[i]
        proj = np.zeros((q, q), dtype=complex)
        for level in kept:
            proj[level, level] = 1.0
        op = proj @ _embedded_particle_op(P, i, a, b) @ proj
        per_particle.append(_expand_matrix(q, op))
    out = []
    for combo in itertools.product(*per_particle):
        coeff = complex(np.prod([c for c, _ in combo]))
        if abs(coeff) <= _COEFF_TOL:
            continue
        xs = tuple((ab[0],) for _, ab in combo)
        zs = tuple((ab[1],) for _, ab in combo)
        out.append((coeff, ErrorWord(xs, zs)))
    return out


def required_detectable_set(P: ProjectorSpec, sys: MixedSystem | None = None,
                            d: int = 2) -> list[ErrorWord]:
    """Ancilla words the ancilla code must detect so that the projected
    code reaches distance d.

    The union of the Pauli supports of P^dag E P over all mixed-system
    errors E of weight below d.  The identity word is dropped: its
    matrix element is a norm, not a detectable syndrome.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    mixed = P.mixed_system()
    if sys is not None and sys.dims != mixed.dims:
        raise ValueError("system does not match the projector's kept dims")
    seen = {}
    for e in enumerate_errors(mixed, d - 1):
        for _, w in projected_error(e, P):
            if not w.label_is_identity():
                seen.setdefault((w.x, w.z), w)
    return sorted(seen.values(), key=lambda w: (w.x, w.z))


def project_code(ancilla_code: Code, P: ProjectorSpec,
                 tol: float = 1e-9) -> Code:
    """Renormalized projected codewords over the mixed system.

    Fails if any codeword loses all its weight under the projector.
    """
    if ancilla_code.system.dims != P.system.dims:
        raise ValueError("projector system does not match the code")
    B = ancilla_code.basis()
    mixed = P.mixed_system()
    shape = tuple(f[0] for f in P.system.factors)
    grid = np.ix_(*[list(s) for s in P.keep])
    cols = []
    for l in range(ancilla_code.K):
        amp = B[:, l].reshape(shape)[grid].reshape(-1)
        norm2 = float(np.sum(np.abs(amp) ** 2))
        if norm2 <= tol:
            raise ValueError(f"codeword {l} vanishes under the projector")
        cols.append(amp / np.sqrt(norm2))
    return Code.from_basis(mixed, np.stack(cols, axis=1), ancilla_code.d)
