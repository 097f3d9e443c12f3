import cmath

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mixedqec.algebra import (
    PHASE_I,
    PHASE_MINUS_ONE,
    PHASE_ONE,
    ModVec,
    Phase,
    phase_as_complex,
    phase_mul,
    roots_of_unity,
)
from mixedqec.errors import MixedSystem, weight
from oracles import dot_mod, omega, word_from_layers

phases = st.builds(Phase, st.integers(-200, 200), st.integers(1, 96))


def test_canonical_form():
    assert Phase(2, 4) == Phase(1, 2)
    assert Phase(6, 4) == Phase(1, 2)
    assert Phase(-1, 4) == Phase(3, 4)
    assert Phase(0, 7) == PHASE_ONE
    assert Phase(4, 6) == Phase(2, 3)


def test_order_must_be_positive():
    with pytest.raises(ValueError):
        Phase(1, 0)


def test_phase_mul_examples():
    assert phase_mul(PHASE_MINUS_ONE, PHASE_MINUS_ONE) == PHASE_ONE
    assert phase_mul(PHASE_I, PHASE_MINUS_ONE) == Phase(3, 4)
    got = phase_mul(Phase(1, 3), PHASE_MINUS_ONE)
    assert got == Phase(5, 6)
    assert abs(phase_as_complex(got) - cmath.exp(2j * cmath.pi * 5 / 6)) < 1e-12


def test_phase_as_complex_examples():
    assert phase_as_complex(PHASE_ONE) == pytest.approx(1)
    assert phase_as_complex(PHASE_MINUS_ONE) == pytest.approx(-1)
    assert phase_as_complex(Phase(1, 3)) == pytest.approx(-0.5 + 0.8660254037844386j, abs=1e-12)


def test_complex_homomorphism_same_order_exhaustive():
    # all pairs within each order up to 24 keeps this quick and still exhaustive per order
    for L in range(1, 25):
        for k1 in range(L):
            for k2 in range(L):
                a, b = Phase(k1, L), Phase(k2, L)
                want = phase_as_complex(a) * phase_as_complex(b)
                assert abs(phase_as_complex(phase_mul(a, b)) - want) < 1e-12


def test_roots_of_unity_match_exp_and_are_exact_at_quarter_turns():
    for L in range(1, 13):
        w = roots_of_unity(L)
        assert w.dtype == complex and w.shape == (L,)
        assert np.abs(w - np.exp(2j * np.pi * np.arange(L) / L)).max() <= 1e-15
        # the quarter turns k = q L / 4: both parts exact, no rounding noise
        for q, want in enumerate((1, 1j, -1, -1j)):
            if q * L % 4 == 0:
                k = q * L // 4
                assert w[k].real == want.real and w[k].imag == want.imag
    assert not roots_of_unity(2).imag.any()
    assert not roots_of_unity(4)[[1, 3]].real.any()


def test_phase_as_complex_reads_roots_of_unity():
    # bit for bit the entry of roots_of_unity, so quarter turns are exact
    assert phase_as_complex(PHASE_I) == 1j and phase_as_complex(Phase(3, 4)) == -1j
    assert phase_as_complex(PHASE_MINUS_ONE) == -1 and phase_as_complex(PHASE_I).real == 0
    for L in range(1, 25):
        w = roots_of_unity(L)
        for k in range(L):
            a = Phase(k, L)  # in lowest terms, which the entry is read at
            got = phase_as_complex(a)
            assert type(got) is complex and got == roots_of_unity(a.L)[a.k]
        assert np.array_equal(roots_of_unity(L, np.arange(L)[::-1]), w[::-1])


@given(phases, phases)
def test_complex_homomorphism(a, b):
    want = phase_as_complex(a) * phase_as_complex(b)
    assert abs(phase_as_complex(phase_mul(a, b)) - want) < 1e-12


@given(phases, phases, phases)
def test_group_laws(a, b, c):
    assert phase_mul(a, b) == phase_mul(b, a)
    assert phase_mul(phase_mul(a, b), c) == phase_mul(a, phase_mul(b, c))
    assert phase_mul(a, PHASE_ONE) == a
    assert phase_mul(a, Phase(-a.k, a.L)) == PHASE_ONE


@given(phases, st.integers(-8, 8))
def test_phase_pow_matches_repeated_mul(a, e):
    # a^e is Phase(e*k, L): the exponent form closed-form powers rely on
    want = PHASE_ONE
    for _ in range(abs(e)):
        want = phase_mul(want, a if e >= 0 else Phase(-a.k, a.L))
    assert Phase(a.k * e, a.L) == want


def test_omega():
    assert omega(4) == PHASE_I
    assert omega(3, 2) == Phase(2, 3)
    assert omega(2, 2) == PHASE_ONE


def test_modvec_reduces_entries():
    v = ModVec(3, (4, -1, 0))
    assert v.entries == (1, 2, 0)
    assert len(v) == 3
    assert v[1] == 2


def test_modvec_rejects_bad_modulus():
    with pytest.raises(ValueError):
        ModVec(1, (0,))


def test_modvec_arithmetic():
    u = ModVec(3, (1, 2, 0))
    v = ModVec(3, (2, 2, 1))
    assert (u + v).entries == (0, 1, 1)
    assert (u - v).entries == (2, 0, 2)
    assert (-u).entries == (2, 1, 0)
    assert not any(ModVec.zeros(3, 3).entries) and any(u.entries)


def test_modvec_mismatch_errors():
    with pytest.raises(ValueError):
        ModVec(2, (1, 0)) + ModVec(3, (1, 0))
    with pytest.raises(ValueError):
        dot_mod(ModVec(2, (1, 0)), ModVec(2, (1, 0, 1)))


def word_weight(x, z=None):
    """Particles touched by the single-layer word X^x Z^z: the support
    of a label vector is measured by ``weight``."""
    sys = MixedSystem.layered([(x.m, len(x))])
    return weight(word_from_layers(sys, [x], [z]), sys)


def test_support():
    assert word_weight(ModVec(2, (0, 0, 0))) == 0
    assert word_weight(ModVec(2, (1, 0, 0, 1, 0, 0))) == 2
    assert word_weight(ModVec(3, (0, 1, 0, 2, 0))) == 2
    assert word_weight(ModVec(3, (0, 1, 0, 2, 0)), ModVec(3, (1, 1, 0, 0, 0))) == 3


def test_dot_mod():
    assert dot_mod(ModVec(2, (1, 1, 0)), ModVec(2, (1, 0, 1))) == 1
    assert dot_mod(ModVec(3, (1, 2, 0, 1, 0)), ModVec(3, (2, 2, 0, 0, 1))) == 0
    assert dot_mod(ModVec(5, (0, 0)), ModVec(5, (3, 4))) == 0


@st.composite
def vec_pairs(draw):
    m = draw(st.integers(2, 7))
    n = draw(st.integers(1, 8))
    u = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    v = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    return ModVec(m, tuple(u)), ModVec(m, tuple(v))


@given(vec_pairs())
def test_support_subadditive(pair):
    u, v = pair
    # supp(u + v) is inside supp(u) | supp(v), the support of X^u Z^v
    assert word_weight(u + v) <= word_weight(u, v) <= word_weight(u) + word_weight(v)


@given(vec_pairs())
def test_dot_symmetric(pair):
    u, v = pair
    assert dot_mod(u, v) == dot_mod(v, u)
