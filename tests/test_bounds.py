"""Singleton/Hamming bound values, the optimality verdicts, and
agreement with brute-force definitional scans."""
from __future__ import annotations

import itertools
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedqec.bounds import (
    BoundReport,
    bound_report,
    classify,
    hamming_bound,
    singleton_bound,
)


def subset_min_oracle(dims, d):
    """Direct definition: min over size-(n-2(d-1)) subsets of the product."""
    keep = len(dims) - 2 * (d - 1)
    if keep < 0:
        return 0
    return min(prod(c) for c in itertools.combinations(dims, keep))


def sphere_count_oracle(dims, t):
    """Count per-particle (shift, phase) tuples touching at most t particles."""
    count = 0
    ranges = [range(q * q) for q in dims]
    for word in itertools.product(*ranges):
        if sum(1 for v in word if v != 0) <= t:
            count += 1
    return count


dims_lists = st.lists(st.integers(min_value=2, max_value=7), min_size=1, max_size=7)


class TestSingleton:
    def test_six_particle_mixed(self):
        assert singleton_bound((4, 4, 4, 4, 4, 2), 3) == 8

    def test_six_particle_two_qubits(self):
        assert singleton_bound((4, 4, 4, 4, 2, 2), 3) == 4

    def test_five_particle_distance_two(self):
        assert singleton_bound((3, 3, 3, 3, 2), 2) == 18

    def test_distance_one_is_full_product(self):
        assert singleton_bound((5, 3, 2, 2), 1) == 60

    def test_short_code_regime_flagged(self):
        # n < 2(d-1): explicit 0 rather than a silent 1
        assert singleton_bound((2, 2, 2), 3) == 0

    def test_boundary_regime_is_one(self):
        assert singleton_bound((2, 2, 2, 2), 3) == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            singleton_bound((), 2)
        with pytest.raises(ValueError):
            singleton_bound((4, 1), 2)
        with pytest.raises(ValueError):
            singleton_bound((4, 4), 0)

    @settings(max_examples=150, deadline=None)
    @given(dims_lists, st.integers(min_value=1, max_value=5))
    def test_matches_subset_min_oracle(self, dims, d):
        assert singleton_bound(dims, d) == subset_min_oracle(tuple(dims), d)

    @settings(max_examples=100, deadline=None)
    @given(dims_lists, st.integers(min_value=1, max_value=4))
    def test_monotone_nonincreasing_in_d(self, dims, d):
        assert singleton_bound(dims, d + 1) <= singleton_bound(dims, d)

    @settings(max_examples=100, deadline=None)
    @given(dims_lists, st.integers(min_value=1, max_value=4), st.data())
    def test_nondecreasing_under_dim_increase(self, dims, d, data):
        i = data.draw(st.integers(min_value=0, max_value=len(dims) - 1))
        bigger = list(dims)
        bigger[i] += data.draw(st.integers(min_value=1, max_value=3))
        assert singleton_bound(bigger, d) >= singleton_bound(dims, d)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=4),
    )
    def test_uniform_dims_power_form(self, p, n, d):
        expect = 0 if n < 2 * (d - 1) else p ** (n - 2 * (d - 1))
        assert singleton_bound((p,) * n, d) == expect


class TestHamming:
    def test_distance_two_is_full_product(self):
        assert hamming_bound((4, 4, 4), 2) == 64
        assert hamming_bound((3, 3, 3, 3, 2), 2) == 162

    def test_distance_one_is_full_product(self):
        assert hamming_bound((4, 2), 1) == 8

    def test_six_ququarts_distance_three(self):
        assert hamming_bound((4,) * 6, 3) == 45

    def test_five_qubits_distance_three(self):
        # saturated by the perfect five-qubit code
        assert hamming_bound((2,) * 5, 3) == 2

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            hamming_bound((4, 4), 0)
        with pytest.raises(ValueError):
            hamming_bound((1, 4), 3)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=7),
    )
    def test_matches_word_count_oracle(self, dims, d):
        t = (d - 1) // 2
        sphere = sphere_count_oracle(dims, t)
        assert hamming_bound(dims, d) == prod(dims) // sphere

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=2, max_value=9), min_size=1, max_size=10),
        st.integers(min_value=1, max_value=11),
    )
    def test_matches_subset_enumeration(self, dims, d):
        # the sphere summed subset by subset of the touched particles
        t = (d - 1) // 2
        sphere = sum(prod(x * x - 1 for x in subset)
                     for k in range(t + 1) for subset in itertools.combinations(dims, k))
        assert hamming_bound(dims, d) == prod(dims) // sphere

    def test_many_uniform_particles(self):
        # 72 qutrits at d = 13: about 1.7e8 subsets of at most 6 particles,
        # against the closed form sum_k C(n, k) (q^2 - 1)^k
        n, q, d = 72, 3, 13
        sphere = sum(comb(n, k) * (q * q - 1) ** k for k in range((d - 1) // 2 + 1))
        assert hamming_bound((q,) * n, d) == q ** n // sphere


class TestClassify:
    def test_mixed_six_particle_optimal(self):
        assert classify(((4, 4, 4, 4, 4, 2), 8, 3)) == "optimal"
        assert classify(((4, 4, 4, 4, 2, 2), 4, 3)) == "optimal"

    def test_projected_five_particle_suboptimal(self):
        assert classify(((3, 3, 3, 3, 2), 9, 2)) == "suboptimal"

    def test_six_ququart_optimal(self):
        assert classify(((4,) * 6, 16, 3)) == "optimal"

    def test_three_ququart_optimal(self):
        assert classify(((4, 4, 4), 4, 2)) == "optimal"

    def test_singleton_violation(self):
        assert classify(((4,) * 6, 17, 3)) == "violates"

    def test_hamming_violation_despite_singleton_slack(self):
        # dims 2^9, d=3: singleton 2^5=32 but sphere packing caps at
        # 512 // 28 = 18
        assert hamming_bound((2,) * 9, 3) == 18
        assert classify(((2,) * 9, 20, 3)) == "violates"
        assert classify(((2,) * 9, 18, 3)) == "suboptimal"


class TestReport:
    def test_fields_and_json(self):
        rep = bound_report((4,) * 6, 3, K=16)
        assert rep == BoundReport((4,) * 6, 3, 16, 45, "optimal")
        js = rep.to_json()
        assert js == {
            "dims": [4, 4, 4, 4, 4, 4],
            "d": 3,
            "singleton": 16,
            "hamming": 45,
            "verdict": "optimal",
        }

    def test_hamming_marker_below_distance_three(self):
        rep = bound_report((3, 3, 3, 3, 2), 2)
        assert rep.K_singleton == 18
        assert rep.K_hamming is None
        assert rep.verdict is None
        assert "verdict" not in rep.to_json()

    def test_verdict_only_from_bounds(self):
        rep = bound_report((4, 4, 4), 2, K=3)
        assert rep.verdict == "suboptimal"
