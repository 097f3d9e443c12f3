"""Exact arithmetic: roots of unity and vectors over Z_m.

Phases are tracked as exact rational angles so that stabilizer phase
checks and clique phase conditions never pass or fail by floating-point
accident.  Floats only appear when bridging to a numeric oracle, through
``roots_of_unity``, whose quarter turns are exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable

import numpy as np


@dataclass(frozen=True, order=True)
class Phase:
    """The root of unity e^{2*pi*i*k/L}, stored in lowest terms."""

    k: int
    L: int

    def __post_init__(self) -> None:
        if self.L < 1:
            raise ValueError(f"phase order must be positive, got {self.L}")
        k = self.k % self.L
        g = gcd(k, self.L)  # gcd(0, L) = L, so zero reduces to (0, 1)
        object.__setattr__(self, "k", k // g)
        object.__setattr__(self, "L", self.L // g)


PHASE_ONE = Phase(0, 1)
PHASE_MINUS_ONE = Phase(1, 2)
PHASE_I = Phase(1, 4)


def phase_mul(a: Phase, b: Phase) -> Phase:
    M = lcm(a.L, b.L)
    return Phase(a.k * (M // a.L) + b.k * (M // b.L), M)


def phase_as_complex(a: Phase) -> complex:
    """The root as ``roots_of_unity(a.L)[a.k]`` gives it, quarter turns exact."""
    return complex(roots_of_unity(a.L, [a.k])[0])


def roots_of_unity(L: int, k=None) -> np.ndarray:
    """exp(2 pi i k / L) for k = 0 .. L - 1, or the given k in [0, L), with
    the quarter turns (4 k = 0 mod L) exactly 1, i, -1 and -i: no rounding
    noise in the imaginary part of a real root, so a basis or character
    table built from +-1 and +-i alone is exactly real or imaginary."""
    k = np.arange(L) if k is None else np.asarray(k)
    w = np.exp(2j * np.pi * k / L)
    quarter = 4 * k % L == 0
    w[quarter] = np.array([1, 1j, -1, -1j])[4 * k[quarter] // L]
    return w


@dataclass(frozen=True, order=True)
class ModVec:
    """A fixed-length vector with entries in Z_m."""

    m: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"modulus must be >= 2, got {self.m}")
        object.__setattr__(self, "entries", tuple(int(e) % self.m for e in self.entries))

    @staticmethod
    def zeros(m: int, n: int) -> "ModVec":
        return ModVec(m, (0,) * n)

    @staticmethod
    def of(m: int, entries: Iterable[int]) -> "ModVec":
        return ModVec(m, tuple(entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __add__(self, other: "ModVec") -> "ModVec":
        self._check(other)
        return ModVec(self.m, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "ModVec") -> "ModVec":
        self._check(other)
        return ModVec(self.m, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "ModVec":
        return ModVec(self.m, tuple(-a for a in self.entries))

    def _check(self, other: "ModVec") -> None:
        if self.m != other.m:
            raise ValueError(f"modulus mismatch: {self.m} vs {other.m}")
        if len(self.entries) != len(other.entries):
            raise ValueError(f"length mismatch: {len(self.entries)} vs {len(other.entries)}")
