"""Unit tests for domination-count bounds (Section IV-D/E)."""

import numpy as np
import pytest

from repro.core import (
    DominationCountBounds,
    combine_weighted_bounds,
    domination_count_bounds,
    poisson_binomial_pmf,
)
from repro.core.generating_functions import UncertainGeneratingFunction


class TestDominationCountBounds:
    def test_exact_constructor(self):
        pmf = np.array([0.2, 0.5, 0.3])
        bounds = DominationCountBounds.exact(pmf)
        assert bounds.is_exact()
        assert bounds.uncertainty() == pytest.approx(0.0)
        assert bounds.pmf_bounds(1) == (0.5, 0.5)

    def test_vacuous_constructor(self):
        bounds = DominationCountBounds.vacuous(4)
        assert len(bounds) == 4
        assert bounds.uncertainty() == pytest.approx(4.0)
        assert not bounds.is_exact()

    def test_vacuous_invalid_length_raises(self):
        with pytest.raises(ValueError):
            DominationCountBounds.vacuous(0)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            DominationCountBounds(lower=np.array([0.5]), upper=np.array([0.4]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DominationCountBounds(lower=np.zeros(2), upper=np.ones(3))

    def test_pmf_bounds_out_of_range(self):
        bounds = DominationCountBounds.exact([1.0])
        assert bounds.pmf_bounds(5) == (0.0, 0.0)
        with pytest.raises(ValueError):
            bounds.pmf_bounds(-1)

    def test_cdf_bounds_exact_case(self):
        pmf = np.array([0.1, 0.2, 0.3, 0.4])
        bounds = DominationCountBounds.exact(pmf)
        cdf = np.cumsum(pmf)
        for k in range(4):
            lower, upper = bounds.cdf_bounds(k)
            assert lower == pytest.approx(cdf[k])
            assert upper == pytest.approx(cdf[k])

    def test_cdf_bounds_use_complementary_mass(self):
        # lower bounds all zero, but upper tail mass restricts the CDF too
        lower = np.zeros(3)
        upper = np.array([0.1, 0.2, 1.0])
        bounds = DominationCountBounds(lower, upper)
        cdf_lower, cdf_upper = bounds.cdf_bounds(1)
        assert cdf_lower == pytest.approx(0.0)
        assert cdf_upper == pytest.approx(0.3)
        cdf_lower, _ = bounds.cdf_bounds(0)
        # P(count <= 0) >= 1 - upper[1] - upper[2] = -0.2 -> clamped to 0
        assert cdf_lower == pytest.approx(0.0)

    def test_less_than_is_shifted_cdf(self):
        pmf = np.array([0.25, 0.25, 0.5])
        bounds = DominationCountBounds.exact(pmf)
        assert bounds.less_than(0) == (0.0, 0.0)
        assert bounds.less_than(1)[0] == pytest.approx(0.25)
        assert bounds.less_than(2)[0] == pytest.approx(0.5)
        assert bounds.less_than(3)[0] == pytest.approx(1.0)

    def test_expected_count_bounds_exact(self):
        pmf = np.array([0.2, 0.3, 0.5])
        bounds = DominationCountBounds.exact(pmf)
        lower, upper = bounds.expected_count_bounds()
        expected = 0.3 + 2 * 0.5
        assert lower == pytest.approx(expected)
        assert upper == pytest.approx(expected)

    def test_expected_count_bounds_reject_truncated(self):
        bounds = DominationCountBounds(np.zeros(3), np.ones(3), k_cap=1)
        with pytest.raises(ValueError):
            bounds.expected_count_bounds()

    @pytest.mark.parametrize("length", [1, 2, 3, 17, 200])
    def test_expected_count_bounds_match_the_per_count_loop(self, length):
        """The prefix/suffix-sum form against the tail-sum loop it replaced."""

        def loop_reference(bounds):
            lower_total = upper_total = 0.0
            for k in range(1, len(bounds)):
                cdf_lower, cdf_upper = bounds.cdf_bounds(k - 1)
                lower_total += 1.0 - cdf_upper
                upper_total += 1.0 - cdf_lower
            return lower_total, upper_total

        rng = np.random.default_rng(length)
        for scale in (0.5, 1.0, 3.0):
            lower = rng.dirichlet(np.ones(length)) * rng.uniform(0.2, 1.0)
            upper = np.minimum(lower + scale * rng.uniform(0.0, 1.0, length) / length, 1.0)
            for bounds in (
                DominationCountBounds(lower, upper),
                DominationCountBounds(np.zeros(length), np.ones(length)),
                DominationCountBounds.exact(rng.dirichlet(np.ones(length))),
            ):
                got = bounds.expected_count_bounds()
                want = loop_reference(bounds)
                for value, reference in zip(got, want):
                    tolerance = 4 * length * np.finfo(float).eps * max(1.0, abs(reference))
                    assert abs(value - reference) <= tolerance
                assert got[0] <= got[1]
        assert DominationCountBounds.exact([1.0]).expected_count_bounds() == (0.0, 0.0)

    def test_truncated_query_above_cap_raises(self):
        bounds = DominationCountBounds(np.zeros(5), np.ones(5), k_cap=2)
        with pytest.raises(ValueError):
            bounds.pmf_bounds(3)


class TestDominationCountBuilder:
    def test_exact_probabilities_give_poisson_binomial(self):
        probs = [0.3, 0.6, 0.9]
        bounds = domination_count_bounds(probs, probs)
        exact = poisson_binomial_pmf(probs)
        np.testing.assert_allclose(bounds.lower, exact, atol=1e-12)
        np.testing.assert_allclose(bounds.upper, exact, atol=1e-12)

    def test_complete_count_shifts_pmf(self):
        probs = [0.5]
        bounds = domination_count_bounds(probs, probs, complete_count=2)
        assert len(bounds) == 4
        np.testing.assert_allclose(bounds.lower, [0.0, 0.0, 0.5, 0.5])
        # counts below the complete-domination count are impossible
        assert bounds.upper[0] == 0.0
        assert bounds.upper[1] == 0.0

    def test_total_objects_pads_with_impossible_counts(self):
        bounds = domination_count_bounds([0.5], [0.5], complete_count=1, total_objects=5)
        assert len(bounds) == 6
        # counts above complete + influence are impossible
        np.testing.assert_allclose(bounds.upper[3:], 0.0)

    def test_no_influence_objects(self):
        bounds = domination_count_bounds([], [], complete_count=3, total_objects=5)
        assert bounds.pmf_bounds(3) == (1.0, 1.0)
        assert bounds.pmf_bounds(2) == (0.0, 0.0)
        assert bounds.pmf_bounds(4) == (0.0, 0.0)

    def test_bounds_bracket_truth_for_any_consistent_probabilities(self):
        rng = np.random.default_rng(0)
        lower = rng.uniform(0, 0.5, size=6)
        upper = np.minimum(1.0, lower + rng.uniform(0, 0.5, size=6))
        bounds = domination_count_bounds(lower, upper, complete_count=2)
        for _ in range(20):
            truth = rng.uniform(lower, upper)
            exact = poisson_binomial_pmf(truth)
            shifted = np.concatenate([np.zeros(2), exact])
            assert np.all(bounds.lower <= shifted + 1e-9)
            assert np.all(bounds.upper >= shifted - 1e-9)

    def test_k_cap_bounds_match_untruncated_below_cap(self):
        rng = np.random.default_rng(1)
        lower = rng.uniform(0, 0.5, size=10)
        upper = np.minimum(1.0, lower + rng.uniform(0, 0.5, size=10))
        full = domination_count_bounds(lower, upper, complete_count=1)
        k = 4
        capped = domination_count_bounds(lower, upper, complete_count=1, k_cap=k)
        for count in range(k + 1):
            assert capped.pmf_bounds(count)[0] == pytest.approx(full.pmf_bounds(count)[0])
            assert capped.pmf_bounds(count)[1] == pytest.approx(full.pmf_bounds(count)[1])
            assert capped.less_than(count)[0] == pytest.approx(full.less_than(count)[0])
            assert capped.less_than(count)[1] == pytest.approx(full.less_than(count)[1])

    def test_k_cap_below_complete_count(self):
        bounds = domination_count_bounds([0.5, 0.5], [0.7, 0.7], complete_count=4, k_cap=2)
        # every count up to the cap is impossible: fewer objects than the
        # complete-domination count can never dominate
        for count in range(3):
            assert bounds.pmf_bounds(count) == (0.0, 0.0)
        assert bounds.less_than(2) == (0.0, 0.0)

    def test_mismatched_probability_lengths_raise(self):
        with pytest.raises(ValueError):
            domination_count_bounds([0.5], [0.5, 0.6])

    def test_negative_complete_count_raises(self):
        with pytest.raises(ValueError):
            domination_count_bounds([0.5], [0.5], complete_count=-1)

    def test_too_small_total_objects_raises(self):
        with pytest.raises(ValueError):
            domination_count_bounds([0.5, 0.5], [0.5, 0.5], complete_count=2, total_objects=3)


def full_length_truncated(lower, upper, complete_count, total_objects, k_cap):
    """The former layout of a truncated result: one cell per database object.

    Kept here as the referee for the compact representation, which must be
    exactly this array cut at index ``k_cap + 2``.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = lower.shape[0]
    ugf_cap = 0 if k_cap < complete_count else min(n, k_cap - complete_count)
    pmf_lower, pmf_upper = UncertainGeneratingFunction(
        lower, upper, k_cap=ugf_cap
    ).pmf_bounds()
    out_lower = np.zeros(total_objects + 1)
    out_upper = np.ones(total_objects + 1)
    out_upper[:complete_count] = 0.0
    out_upper[complete_count + n + 1 :] = 0.0
    top = pmf_lower.shape[0]
    out_lower[complete_count : complete_count + top] = pmf_lower
    out_upper[complete_count : complete_count + top] = pmf_upper
    out_lower[k_cap + 1 :] = 0.0
    out_upper[k_cap + 1 :] = np.arange(k_cap + 1, total_objects + 1) <= complete_count + n
    return out_lower, out_upper


class TestTruncatedRepresentation:
    """``k_cap`` results store ``min(total, k_cap + 1) + 1`` cells, not ``total + 1``."""

    def setup_method(self):
        rng = np.random.default_rng(3)
        self.lower = rng.uniform(0.0, 0.5, size=4)
        self.upper = self.lower + rng.uniform(0.0, 0.5, size=4)

    @pytest.mark.parametrize(
        "num_influence, complete_count, total_objects, k_cap",
        [
            (4, 0, 30, 2),    # the ordinary case: cap inside the influence range
            (4, 7, 30, 3),    # k_cap < complete_count, window wholly outside
            (4, 4, 30, 3),    # window starts on the overflow cell
            (4, 2, 30, 3),    # window clipped by the overflow cell
            (4, 1, 30, 9),    # complete_count + influence <= k_cap
            (4, 1, 30, 5),    # complete_count + influence == k_cap
            (0, 3, 30, 5),    # zero influence objects
            (0, 3, 30, 1),    # zero influence objects below the cap
            (4, 0, 30, 0),    # k_cap = 0
            (4, 2, 30, 0),    # k_cap = 0 < complete_count
            (4, 1, 5, 4),     # k_cap = total_objects - 1: last cell is the overflow
        ],
    )
    def test_compact_is_the_full_length_array_cut_at_the_cap(
        self, num_influence, complete_count, total_objects, k_cap
    ):
        lower, upper = self.lower[:num_influence], self.upper[:num_influence]
        bounds = domination_count_bounds(
            lower, upper, complete_count=complete_count,
            total_objects=total_objects, k_cap=k_cap,
        )
        ref_lower, ref_upper = full_length_truncated(
            lower, upper, complete_count, total_objects, k_cap
        )
        assert len(bounds) == k_cap + 2
        assert bounds.max_count == total_objects
        assert bounds.k_cap == k_cap
        assert np.array_equal(bounds.lower, ref_lower[: k_cap + 2])
        assert np.array_equal(bounds.upper, ref_upper[: k_cap + 2])
        full = DominationCountBounds(ref_lower, ref_upper, k_cap=k_cap)
        for k in range(k_cap + 2):
            assert bounds.less_than(k) == full.less_than(k)
        for k in range(k_cap + 1):
            assert bounds.pmf_bounds(k) == full.pmf_bounds(k)
            assert bounds.cdf_bounds(k) == full.cdf_bounds(k)
        assert bounds.is_exact() == full.is_exact()

    @pytest.mark.parametrize("k_cap", [5, 6, 40])
    def test_cap_at_or_above_total_equals_untruncated(self, k_cap):
        untruncated = domination_count_bounds(
            self.lower, self.upper, complete_count=1, total_objects=5
        )
        capped = domination_count_bounds(
            self.lower, self.upper, complete_count=1, total_objects=5, k_cap=k_cap
        )
        assert len(capped) == len(untruncated) == 6  # no overflow cell
        assert np.array_equal(capped.lower, untruncated.lower)
        assert np.array_equal(capped.upper, untruncated.upper)
        assert capped.cdf_bounds(5) == (1.0, 1.0)

    def test_overflow_cell_is_vacuous_or_impossible(self):
        reachable = domination_count_bounds(
            self.lower, self.upper, complete_count=2, total_objects=30, k_cap=3
        )
        assert (reachable.lower[-1], reachable.upper[-1]) == (0.0, 1.0)
        unreachable = domination_count_bounds(
            self.lower, self.upper, complete_count=1, total_objects=30, k_cap=5
        )
        assert (unreachable.lower[-1], unreachable.upper[-1]) == (0.0, 0.0)

    def test_more_certain_dominators_than_the_cap_decides_at_once(self):
        bounds = domination_count_bounds(
            self.lower, self.upper, complete_count=50_000, total_objects=100_000, k_cap=5
        )
        assert len(bounds) == 7
        assert np.array_equal(bounds.upper, [0, 0, 0, 0, 0, 0, 1])
        assert not bounds.lower.any()
        assert bounds.less_than(5) == (0.0, 0.0)
        assert bounds.less_than(6) == (0.0, 0.0)

    def test_queries_beyond_the_cap_still_raise(self):
        bounds = domination_count_bounds(self.lower, self.upper, total_objects=30, k_cap=2)
        with pytest.raises(ValueError):
            bounds.pmf_bounds(3)
        with pytest.raises(ValueError):
            bounds.cdf_bounds(3)
        with pytest.raises(ValueError):
            bounds.expected_count_bounds()

    def test_uncertainty_is_the_width_of_the_stored_cells(self):
        bounds = domination_count_bounds(
            self.lower, self.upper, complete_count=1, total_objects=1000, k_cap=2
        )
        assert bounds.uncertainty() == float(np.sum(bounds.upper - bounds.lower))
        assert bounds.uncertainty() <= len(bounds)

    def test_negative_cap_raises(self):
        with pytest.raises(ValueError):
            domination_count_bounds(self.lower, self.upper, k_cap=-1)

    def test_max_count_must_agree_with_the_stored_cells(self):
        DominationCountBounds(np.zeros(4), np.ones(4), k_cap=2, max_count=90)
        DominationCountBounds(np.zeros(4), np.ones(4), k_cap=7, max_count=3)
        assert DominationCountBounds(np.zeros(4), np.ones(4)).max_count == 3
        with pytest.raises(ValueError):
            DominationCountBounds(np.zeros(4), np.ones(4), max_count=90)
        with pytest.raises(ValueError):
            DominationCountBounds(np.zeros(4), np.ones(4), k_cap=5, max_count=90)

    def test_combining_truncated_parts_keeps_the_logical_range(self):
        parts = [
            (0.5, domination_count_bounds(self.lower, self.upper, total_objects=30, k_cap=2)),
            (0.5, domination_count_bounds(self.upper, self.upper, total_objects=30, k_cap=2)),
        ]
        combined = combine_weighted_bounds(parts, k_cap=2)
        assert len(combined) == 4
        assert combined.max_count == 30
        other = domination_count_bounds(self.lower, self.upper, total_objects=31, k_cap=2)
        with pytest.raises(ValueError):
            combine_weighted_bounds([parts[0], (0.5, other)], k_cap=2)


class TestCombineWeightedBounds:
    def test_single_part_identity(self):
        part = DominationCountBounds.exact([0.4, 0.6])
        combined = combine_weighted_bounds([(1.0, part)])
        np.testing.assert_allclose(combined.lower, part.lower)
        np.testing.assert_allclose(combined.upper, part.upper)

    def test_two_exact_parts_mix(self):
        part_a = DominationCountBounds.exact([1.0, 0.0])
        part_b = DominationCountBounds.exact([0.0, 1.0])
        combined = combine_weighted_bounds([(0.25, part_a), (0.75, part_b)])
        np.testing.assert_allclose(combined.lower, [0.25, 0.75])
        np.testing.assert_allclose(combined.upper, [0.25, 0.75])

    def test_missing_weight_is_conservative(self):
        part = DominationCountBounds.exact([1.0, 0.0])
        combined = combine_weighted_bounds([(0.5, part)])
        # the unaccounted half of the worlds could have any count
        np.testing.assert_allclose(combined.lower, [0.5, 0.0])
        np.testing.assert_allclose(combined.upper, [1.0, 0.5])

    def test_empty_parts_raise(self):
        with pytest.raises(ValueError):
            combine_weighted_bounds([])

    def test_mismatched_lengths_raise(self):
        part_a = DominationCountBounds.exact([1.0, 0.0])
        part_b = DominationCountBounds.exact([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            combine_weighted_bounds([(0.5, part_a), (0.5, part_b)])

    def test_excessive_weight_raises(self):
        part = DominationCountBounds.exact([1.0, 0.0])
        with pytest.raises(ValueError):
            combine_weighted_bounds([(0.8, part), (0.8, part)])

    def test_negative_weight_raises(self):
        part = DominationCountBounds.exact([1.0, 0.0])
        with pytest.raises(ValueError):
            combine_weighted_bounds([(-0.1, part), (1.1, part)])

    def test_weighted_bracket_property(self):
        """If each part brackets its conditional truth, the mix brackets the mixture."""
        rng = np.random.default_rng(2)
        truth_a = poisson_binomial_pmf(rng.uniform(0, 1, size=3))
        truth_b = poisson_binomial_pmf(rng.uniform(0, 1, size=3))
        part_a = DominationCountBounds(truth_a * 0.9, np.minimum(1.0, truth_a * 1.1 + 0.01))
        part_b = DominationCountBounds(truth_b * 0.9, np.minimum(1.0, truth_b * 1.1 + 0.01))
        combined = combine_weighted_bounds([(0.3, part_a), (0.7, part_b)])
        mixture = 0.3 * truth_a + 0.7 * truth_b
        assert np.all(combined.lower <= mixture + 1e-9)
        assert np.all(combined.upper >= mixture - 1e-9)
