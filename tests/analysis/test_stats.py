"""Unit and property tests for the statistics helpers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.stats import (
    confidence_interval,
    geometric_mean,
    mean,
    median,
    stdev,
    t_critical,
)


class TestMeanStdev:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty(self):
        with pytest.raises(ValueError):
            mean([])

    def test_stdev_known(self):
        assert stdev([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == pytest.approx(
            2.13809, rel=1e-4
        )

    def test_stdev_short(self):
        assert stdev([1.0]) == 0.0

    def test_median_odd_and_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5

    def test_median_empty(self):
        with pytest.raises(ValueError):
            median([])


class TestGeometricMean:
    def test_known(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_matches_paper_style_factors(self):
        # geomean of identical factors is the factor
        assert geometric_mean([1.06] * 6) == pytest.approx(1.06)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    @given(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=20))
    def test_bounded_by_min_and_max(self, xs):
        g = geometric_mean(xs)
        assert min(xs) - 1e-12 <= g <= max(xs) + 1e-12

    @given(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=10))
    def test_scale_invariance(self, xs):
        g = geometric_mean(xs)
        assert geometric_mean([x * 2 for x in xs]) == pytest.approx(2 * g)


class TestConfidenceInterval:
    def test_t_critical_small_samples(self):
        assert t_critical(1) == pytest.approx(12.706, rel=1e-3)
        assert t_critical(29) == pytest.approx(2.045, rel=1e-3)

    def test_t_critical_bad_df(self):
        with pytest.raises(ValueError):
            t_critical(0)

    def test_single_sample_has_zero_width(self):
        mu, half = confidence_interval([3.0])
        assert (mu, half) == (3.0, 0.0)

    def test_known_interval(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        mu, half = confidence_interval(xs)
        assert mu == 3.0
        # s = sqrt(2.5), t(4, .975) = 2.776
        assert half == pytest.approx(2.776 * math.sqrt(2.5) / math.sqrt(5), rel=1e-3)

    def test_wider_at_higher_confidence(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        _, h95 = confidence_interval(xs, 0.95)
        _, h99 = confidence_interval(xs, 0.99)
        assert h99 > h95

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=30))
    def test_interval_contains_mean(self, xs):
        mu, half = confidence_interval(xs)
        assert half >= 0
        assert min(xs) - 1e-9 <= mu <= max(xs) + 1e-9
