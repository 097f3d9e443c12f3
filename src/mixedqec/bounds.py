"""Singleton and Hamming bounds over mixed alphabets."""
from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence


def singleton_bound(dims: Sequence[int], d: int) -> int:
    """Largest K allowed by the mixed-alphabet Singleton bound: the
    product of the n - 2(d - 1) smallest local dimensions.

    Returns 0 when n < 2(d - 1): the bound admits no code with K > 1 in
    that regime, and the explicit marker keeps short codes from being
    classified against a silent 1.
    """
    dims = _checked(dims)
    if d < 1:
        raise ValueError("d must be >= 1")
    keep = len(dims) - 2 * (d - 1)
    if keep < 0:
        return 0
    return prod(sorted(dims)[:keep])


def hamming_bound(dims: Sequence[int], d: int) -> int:
    """Sphere-packing bound: K times the number of correctable error
    words cannot exceed the total dimension.  Correction radius is
    t = (d - 1) // 2; each touched particle contributes dims_i^2 - 1
    distinct nonidentity operators."""
    dims = _checked(dims)
    if d < 1:
        raise ValueError("d must be >= 1")
    t = (d - 1) // 2
    # e[k]: the elementary symmetric sum of degree k of the dims_i^2 - 1 so far
    e = [1] + [0] * t
    for x in dims:
        for k in range(t, 0, -1):
            e[k] += (x * x - 1) * e[k - 1]
    return prod(dims) // sum(e)


def _checked(dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(x) for x in dims)
    if not dims or any(x < 2 for x in dims):
        raise ValueError("dims must be a nonempty list of integers >= 2")
    return dims


@dataclass(frozen=True)
class BoundReport:
    """K_hamming is None when d < 3: the correction radius is zero, so
    sphere packing constrains nothing beyond the total dimension."""

    dims: tuple[int, ...]
    d: int
    K_singleton: int
    K_hamming: int | None
    verdict: str | None = None

    def to_json(self) -> dict:
        out = {
            "dims": list(self.dims),
            "d": self.d,
            "singleton": self.K_singleton,
            "hamming": self.K_hamming,
        }
        if self.verdict is not None:
            out["verdict"] = self.verdict
        return out


def bound_report(dims: Sequence[int], d: int, K: int | None = None) -> BoundReport:
    """Both bounds at once, with a verdict when a claimed K is given."""
    s = singleton_bound(dims, d)
    h = hamming_bound(dims, d) if d >= 3 else None
    verdict = None if K is None else classify((dims, K, d))
    return BoundReport(tuple(int(x) for x in dims), d, s, h, verdict)


def classify(code_params: tuple[Sequence[int], int, int]) -> str:
    """Singleton-saturating codes are optimal; the Hamming bound can
    only rule a claim out, never confer optimality."""
    dims, K, d = code_params
    s = singleton_bound(dims, d)
    h = hamming_bound(dims, d)
    if K > min(s, h):
        return "violates"
    if K == s:
        return "optimal"
    return "suboptimal"
