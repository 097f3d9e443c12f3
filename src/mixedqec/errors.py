"""Mixed-radix Pauli error words: systems, weights, enumeration, matrices.

A particle of composite dimension q = r*p is modelled as a pair of
factors (a p-level and an r-level subsystem), so an error word carries
independent shift/phase digits per factor.  Systems whose particles all
share the same factor layout prefix-wise ("layered" systems, e.g. every
particle a qupit and the first n1 particles additionally a qurit) admit
a per-layer vector view, which is what the clique machinery works in.

``support_rows`` defines the one order of error words, support by
support: ``error_blocks`` yields them as int64 digit rows to the label
engine and the symbolic check, and ``_Shape`` holds the positions of a
support's words in its (x, z) grid for the numeric one.
"""
from __future__ import annotations

import itertools
import os
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from math import lcm, log10, prod
from typing import Iterator, Sequence

import numpy as np

from .algebra import PHASE_ONE, Phase, phase_as_complex, roots_of_unity
from .graphs import _json_int

DEFAULT_DIM_CAP = 65536
DIM_CAP_ENV = "MIXEDQEC_DIM_CAP"
# the cap of the running CLI command, set by cli.main; None reads the environment
_cli_cap: ContextVar[int | None] = ContextVar("_cli_cap", default=None)


def dim_cap() -> int:
    """Largest total Hilbert-space dimension of a dense array (a basis,
    eigenbasis or product) or of a clique's numeric scan: the running CLI
    command's cap, else MIXEDQEC_DIM_CAP as read at this call, else 65536.
    Library functions take no cap argument; ``_check_cap`` enforces it
    where arrays are built and scans start."""
    if (cli := _cli_cap.get()) is not None:
        return cli
    raw = os.environ.get(DIM_CAP_ENV)
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{DIM_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 2:
        raise ValueError(f"{DIM_CAP_ENV} must be >= 2, got {cap}")
    return cap


class DimensionCapError(Exception):
    """Raised when a numeric routine would exceed the dimension cap."""

    def __init__(self, total: int, cap: int) -> None:
        # past 100 digits, the total is printed by its digit count: str()
        # refuses an int of more than 4300 digits
        digits = int(total.bit_length() * log10(2))
        self.dimension = (str(total) if total < 10 ** 100
                          else f"of {digits + (10 ** digits <= total)} digits")
        super().__init__(f"total dimension {self.dimension} exceeds cap {cap}")
        self.total = total
        self.cap = cap


class IntegerRangeError(Exception):
    """Raised when input values exceed the int64 range that the integer
    stabilizer tableau or the label keys compute in: bad input, not a
    failed check."""


class ConstructionInputError(ValueError):
    """Raised when the inputs of a construction do not fit together (a
    pasting's blocks and its base, a projector and its code): bad input,
    not a failed check."""


def _check_cap(total: int) -> None:
    if total > (limit := dim_cap()):
        raise DimensionCapError(total, limit)


@dataclass(frozen=True)
class MixedSystem:
    """n particles, particle i of dimension prod(factors[i]).

    factors[i] lists the cyclic factor dimensions of particle i in
    layer order.  A system is *layered* when the factor layout is a
    nested prefix: layer l exists on exactly the first n_l particles
    and has one modulus m_l there (n = n_1 >= n_2 >= ... >= 1).
    """

    factors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("system needs at least one particle")
        facs = tuple(tuple(int(m) for m in f) for f in self.factors)
        for i, f in enumerate(facs):
            if not f:
                raise ValueError(f"particle {i} has no factors")
            if any(m < 2 for m in f):
                raise ValueError(f"particle {i} has a factor < 2")
        object.__setattr__(self, "factors", facs)

    @staticmethod
    def layered(layers: Sequence[tuple[int, int]]) -> "MixedSystem":
        """Build from [(modulus, particle_count), ...]; the first layer
        covers every particle and later layers cover prefixes."""
        if not layers:
            raise ValueError("need at least one layer")
        n = layers[0][1]
        prev = n
        for m, nl in layers:
            if nl < 1 or nl > prev:
                raise ValueError(f"layer coverage must nest: got {nl} after {prev}")
            prev = nl
        facs = []
        for i in range(n):
            facs.append(tuple(m for m, nl in layers if i < nl))
        return MixedSystem(tuple(facs))

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        out = []
        for f in self.factors:
            d = 1
            for m in f:
                d *= m
            out.append(d)
        return tuple(out)

    @property
    def total_dim(self) -> int:
        d = 1
        for f in self.factors:
            for m in f:
                d *= m
        return d

    @property
    def layers(self) -> tuple[tuple[int, int], ...] | None:
        """[(modulus, coverage), ...] if the factor layout nests
        prefix-wise with a uniform modulus per layer, else None."""
        depth = max(len(f) for f in self.factors)
        out = []
        for l in range(depth):
            cov = [i for i, f in enumerate(self.factors) if len(f) > l]
            if cov != list(range(len(cov))):
                return None
            mods = {self.factors[i][l] for i in cov}
            if len(mods) != 1:
                return None
            out.append((mods.pop(), len(cov)))
        return tuple(out)

    def flat_dims(self) -> tuple[int, ...]:
        """All factor dimensions in particle-major order; the tensor
        axis layout every numeric routine in this package uses."""
        return tuple(m for f in self.factors for m in f)

    def to_json(self) -> dict:
        return {"n": self.n, "factors": [list(f) for f in self.factors],
                "dims": list(self.dims)}

    @staticmethod
    def from_json(obj: dict) -> "MixedSystem":
        return MixedSystem(tuple(tuple(_json_int(m, "a factor") for m in f)
                                 for f in obj["factors"]))


@dataclass(frozen=True)
class ErrorWord:
    """prod_i prod_f X_{m}^{x[i][f]} Z_{m}^{z[i][f]} times an exact phase,
    digits aligned with a system's factor layout."""

    x: tuple[tuple[int, ...], ...]
    z: tuple[tuple[int, ...], ...]
    phase: Phase = PHASE_ONE

    def __post_init__(self) -> None:
        if len(self.x) != len(self.z):
            raise ValueError("x and z particle counts differ")
        for xi, zi in zip(self.x, self.z):
            if len(xi) != len(zi):
                raise ValueError("x and z factor counts differ on a particle")
        object.__setattr__(self, "x", tuple(tuple(int(a) for a in xi) for xi in self.x))
        object.__setattr__(self, "z", tuple(tuple(int(a) for a in zi) for zi in self.z))

    @staticmethod
    def identity(sys: MixedSystem) -> "ErrorWord":
        zero = tuple(tuple(0 for _ in f) for f in sys.factors)
        return ErrorWord(zero, zero)

    def label(self) -> tuple:
        """Hashable (x, z) pair ignoring the phase."""
        return (self.x, self.z)


def weight(e: ErrorWord, sys: MixedSystem) -> int:
    """Number of particles on which the word acts nontrivially: the size
    of the union of the shift and phase supports across all factors."""
    if len(e.x) != sys.n:
        raise ValueError("word does not match system")
    return sum(1 for i in range(sys.n)
               if any(e.x[i]) or any(e.z[i]))


# rows per enumerated block: bounds the memory of a block and how far a
# check runs past its first failing error
_BLOCK_ROWS = 1 << 16


def word_radices(sys: MixedSystem) -> tuple[tuple[int, ...], ...]:
    """Per particle, the moduli of its digits x0, z0, x1, z1, ... of an
    error word, x and z interleaved factor by factor."""
    return tuple(tuple(m for m in f for _ in "xz") for f in sys.factors)


def supports(n: int, w_max: int) -> Iterator[tuple[int, ...]]:
    """Every set of 1..w_max of n particles: smaller sets first, each
    size in itertools.combinations order.

    w_max is d - 1 for a distance d, which must lie in [1, n + 1]: a
    word acts on at most n particles, so a larger d claims nothing more
    and is rejected here, for every check that enumerates errors."""
    if w_max < 0 or w_max > n:
        raise ValueError(f"distance d = {w_max + 1} must be in [1, n + 1] "
                         f"with n + 1 = {n + 1}")
    return itertools.chain.from_iterable(
        itertools.combinations(range(n), k) for k in range(1, w_max + 1))


def support_rows(radices: Sequence[Sequence[int]], supp: Sequence[int],
                 start: int, stop: int) -> np.ndarray:
    """Rows start:stop of the block of support supp: every assignment of
    a nonzero digit tuple to each particle i of supp (digit moduli
    radices[i]), the first particle's tuple varying slowest and each
    particle's tuples in lexicographic order.  One int64 column per
    digit, particle after particle."""
    counts = [prod(radices[i]) - 1 for i in supp]
    stop = min(stop, prod(counts))
    choice = np.unravel_index(np.arange(start, stop), counts)
    # a particle's c-th nonzero tuple is c + 1 read in its radices
    cols = [digits for i, c in zip(supp, choice)
            for digits in np.unravel_index(c + 1, radices[i])]
    return np.stack(cols, axis=1).astype(np.int64, copy=False)


def in_support_order(radices: Sequence[Sequence[int]], supp: Sequence[int],
                     grid: np.ndarray) -> np.ndarray:
    """The entries grid[x, z], over the flat shift and phase indices x
    and z on support supp, of the words that act on every particle of
    supp, in ``support_rows`` order."""
    dims = [m for i in supp for m in radices[i][::2]]
    # axes x_0, z_0, x_1, z_1, ...: each particle's digits as it lists them
    order = np.arange(2 * len(dims)).reshape(2, -1).T.ravel()
    g = grid.reshape(dims * 2).transpose(order).reshape([prod(radices[i]) for i in supp])
    return g[(slice(1, None),) * len(supp)].ravel()


def _real(a: np.ndarray) -> np.ndarray:
    """The real part of a, a view, when a has no imaginary part; else a."""
    return a.real if not a.imag.any() else a


class _Shape:
    """The numeric checks' geometry of the supports of one shape (their
    particles' factor tuples): the digits U[:, u] of the size flat indices
    u on S, their moduli and ``shifted(x)``, the index of u + x for every
    u; formed when first read, the character table chi and the (x, z) grid
    positions of the words of weight |S|, in order."""

    def __init__(self, factors: tuple[tuple[int, ...], ...]):
        self.factors, self.dims = factors, tuple(m for f in factors for m in f)
        self.U = np.indices(self.dims).reshape(len(self.dims), -1)
        self.size, self.moduli = self.U.shape[1], np.array(self.dims)[:, None]
        self.roots = _real(roots_of_unity(lcm(*self.dims)))

    def shifted(self, x: int) -> np.ndarray:
        return np.ravel_multi_index((self.U + self.U[:, x:x + 1]) % self.moduli, self.dims)

    def characters(self, z: np.ndarray) -> np.ndarray:
        """chi_z(u) = exp(2 pi i sum_a z_a u_a / m_a) for each digit row z
        and every u, exact mod L; real on qubit factors, as a real basis."""
        L = len(self.roots)
        return self.roots[(z * (L // self.moduli.T)) @ self.U % L]

    chi = cached_property(lambda self: self.characters(self.U.T))
    positions = cached_property(lambda self: in_support_order(
        word_radices(MixedSystem(self.factors)), range(len(self.factors)),
        np.arange(self.size ** 2)))


def error_blocks(radices: Sequence[Sequence[int]],
                 w_max: int) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """(S, rows) for each support S of ``supports(n, w_max)``, its block
    in slices of at most _BLOCK_ROWS rows: with ``word_radices`` digits,
    every error word of weight 1..w_max once, phase one, in order."""
    for supp in supports(len(radices), w_max):
        total = prod(prod(radices[i]) - 1 for i in supp)
        for start in range(0, total, _BLOCK_ROWS):
            yield supp, support_rows(radices, supp, start, start + _BLOCK_ROWS)


def word_from_row(sys: MixedSystem, supp: Sequence[int],
                  row: Sequence[int], phase: Phase = PHASE_ONE) -> ErrorWord:
    """The error word of one ``word_radices`` row on support supp, times
    phase."""
    x = [(0,) * len(f) for f in sys.factors]
    z = list(x)
    a = 0
    for i in supp:
        b = a + 2 * len(sys.factors[i])
        x[i], z[i] = tuple(row[a:b:2]), tuple(row[a + 1:b:2])
        a = b
    return ErrorWord(tuple(x), tuple(z), phase)


def count_errors(sys: MixedSystem, w_max: int) -> int:
    """Closed-form count of the rows of error_blocks: sum over supports of
    the product of per-particle non-identity operator counts."""
    dims = sys.dims
    return sum(prod(dims[i] ** 2 - 1 for i in supp) for supp in supports(sys.n, w_max))


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


def format_word(sys: MixedSystem, e: ErrorWord) -> str:
    """Printable form like "Z^{2345}Z^{1'}": superscripts list 1-based
    vertices, one prime per extra layer, digits repeated for powers."""
    layers = sys.layers
    if layers is None:
        raise ValueError("notation requires a layered system")
    if sys.n > 9:
        raise ValueError("digit notation supports at most 9 vertices")
    parts = []
    for sym, digits in (("X", e.x), ("Z", e.z)):
        for l, (m, nl) in enumerate(layers):
            marks = "'" * l
            sup = ""
            for i in range(nl):
                d = digits[i][l]
                sup += (str(i + 1) + marks) * d
            if sup:
                parts.append(f"{sym}^{{{sup}}}")
    if not parts:
        return "I"
    return "".join(parts)


def parse_word(sys: MixedSystem, text: str, phase: Phase = PHASE_ONE) -> ErrorWord:
    """Inverse of format_word.  Repeated vertex digits accumulate powers;
    primes select the layer."""
    layers = sys.layers
    if layers is None:
        raise ValueError("notation requires a layered system")
    x = [[0] * len(f) for f in sys.factors]
    z = [[0] * len(f) for f in sys.factors]
    s = text.strip()
    if s == "I":
        return ErrorWord(tuple(tuple(r) for r in x), tuple(tuple(r) for r in z), phase)
    pos = 0
    while pos < len(s):
        sym = s[pos]
        if sym not in "XZ":
            raise ValueError(f"expected X or Z at position {pos} of {text!r}")
        if s[pos + 1:pos + 3] != "^{":
            raise ValueError(f"expected ^{{...}} after {sym} in {text!r}")
        end = s.index("}", pos + 3)
        body = s[pos + 3:end]
        i = 0
        while i < len(body):
            if not body[i].isdigit():
                raise ValueError(f"expected vertex digit in {text!r}")
            vertex = int(body[i]) - 1
            i += 1
            layer = 0
            while i < len(body) and body[i] == "'":
                layer += 1
                i += 1
            if vertex < 0 or vertex >= sys.n or layer >= len(sys.factors[vertex]):
                raise ValueError(f"vertex {vertex + 1} layer {layer} out of range")
            m = sys.factors[vertex][layer]
            if sym == "X":
                x[vertex][layer] = (x[vertex][layer] + 1) % m
            else:
                z[vertex][layer] = (z[vertex][layer] + 1) % m
        pos = end + 1
    return ErrorWord(tuple(tuple(r) for r in x), tuple(tuple(r) for r in z), phase)
