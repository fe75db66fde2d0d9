"""Tests for waterfilling capacity and the flat-spectrum upper bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectmimo import dof_bound, optimal_stream_count, spacing_snr, waterfill
from reflectmimo.capacity import _waterfill_rows


class TestWaterfill:
    def test_single_mode(self):
        result = waterfill([4.0], 2.0)
        assert result.capacity == pytest.approx(math.log2(1.0 + 2.0 * 4.0), rel=1e-12)
        assert result.powers == pytest.approx([2.0])
        assert result.water_level == pytest.approx(2.0 + 0.25)

    def test_flat_spectrum_splits_evenly(self):
        n, snr = 6, 3.0
        result = waterfill(np.full(n, 2.5), snr)
        assert result.powers == pytest.approx(np.full(n, snr / n), rel=1e-12)
        expected = n * math.log2(1.0 + snr * 2.5 / n)
        assert result.capacity == pytest.approx(expected, rel=1e-12)

    def test_rank_one_spectrum(self):
        result = waterfill([9.0, 0.0, 0.0], 1.5)
        assert result.capacity == pytest.approx(math.log2(1.0 + 1.5 * 9.0), rel=1e-12)
        assert result.powers == pytest.approx([1.5, 0.0, 0.0])

    def test_power_budget_saturated(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0.01, 5.0, 10)
        for snr in (0.1, 1.0, 10.0, 1000.0):
            result = waterfill(values, snr)
            assert float(result.powers.sum()) == pytest.approx(snr, rel=1e-9)
            assert np.all(result.powers >= -1e-15)

    def test_low_snr_beamforms(self):
        values = np.array([5.0, 1.0, 0.5])
        result = waterfill(values, 1e-6)
        assert result.powers[0] == pytest.approx(1e-6, rel=1e-9)
        assert np.all(result.powers[1:] == 0.0)

    def test_active_modes_obey_water_level(self):
        values = np.array([8.0, 4.0, 2.0, 1.0, 0.25])
        result = waterfill(values, 2.0)
        nu = result.water_level
        for lam, p in zip(values, result.powers):
            if p > 0.0:
                assert p == pytest.approx(nu - 1.0 / lam, rel=1e-12)
            else:
                assert nu <= 1.0 / lam + 1e-12

    def test_beats_uniform_and_random_allocations(self):
        rng = np.random.default_rng(17)
        values = rng.uniform(0.0, 4.0, 8)
        snr = 2.5
        best = waterfill(values, snr).capacity
        uniform = float(np.sum(np.log2(1.0 + snr / values.size * values)))
        assert best >= uniform - 1e-12
        for seed in range(20):
            weights = np.random.default_rng(seed).uniform(0.0, 1.0, values.size)
            powers = snr * weights / weights.sum()
            rate = float(np.sum(np.log2(1.0 + powers * values)))
            assert best >= rate - 1e-9

    @given(
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=12).filter(
            lambda v: max(v) > 1e-300
        ),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_snr(self, values, snr):
        lower = waterfill(values, snr).capacity
        higher = waterfill(values, 2.0 * snr).capacity
        assert higher >= lower - 1e-9

    def test_error_paths(self):
        with pytest.raises(ValueError, match="snr"):
            waterfill([1.0], 0.0)
        for snr in (math.nan, math.inf):
            with pytest.raises(ValueError, match="snr"):
                waterfill([4.0, 1.0], snr)
        with pytest.raises(ValueError, match="zero"):
            waterfill([0.0, 0.0], 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            waterfill([1.0, -0.5], 1.0)
        with pytest.raises(ValueError, match="1-D"):
            waterfill(np.eye(2), 1.0)
        for bad in (math.nan, math.inf, -math.inf):  # no NaN or infinite capacity
            with pytest.raises(ValueError, match="finite"):
                waterfill([bad, 1.0], 1.0)


def _spectrum_rows(count):
    """Rows of ``count`` eigenvalues: all zero, a single mode, or modes
    with zeros among them."""
    mode = st.one_of(st.just(0.0), st.floats(1e-6, 1e3))
    single = st.tuples(st.integers(0, count - 1), st.floats(1e-6, 1e3)).map(
        lambda pick: [pick[1] if i == pick[0] else 0.0 for i in range(count)])
    return st.one_of(st.just([0.0] * count), single,
                     st.lists(mode, min_size=count, max_size=count))


class TestWaterfillRows:
    @given(st.integers(1, 12).flatmap(lambda count: st.lists(
        st.tuples(_spectrum_rows(count), st.floats(1e-3, 1e4)), min_size=1, max_size=8)))
    @settings(max_examples=100, deadline=None)
    def test_each_row_is_one_waterfill(self, rows):
        values = np.array([row for row, _ in rows])
        snr = np.array([s for _, s in rows])
        capacity = _waterfill_rows(values, snr)[0]
        for row, s, c in zip(values, snr, capacity):
            if not np.any(row > 0.0):
                assert c == 0.0
            else:
                expected = waterfill(row, s).capacity
                assert abs(c - expected) <= 1e-14 * expected


class TestDofBound:
    def test_frozen_reference_point(self):
        result = dof_bound(8, 10.0)
        assert result.bound == pytest.approx(27.67545294909838, rel=1e-13)
        assert round(result.bound, 2) == 27.68

    def test_single_antenna(self):
        result = dof_bound(1, 5.0)
        assert result.rho_star == 1
        assert result.bound == pytest.approx(math.log2(1.0 + 5.0), rel=1e-12)

    def test_matches_exhaustive_formula(self):
        n, snr = 8, 2.0
        values = [r * math.log2(1.0 + snr * n * n / r**2) for r in range(1, n + 1)]
        result = dof_bound(n, snr)
        assert result.bound == pytest.approx(max(values), rel=1e-12)
        assert values[result.rho_star - 1] == pytest.approx(max(values), rel=1e-12)

    def test_stream_count_nondecreasing_in_snr(self):
        counts = [
            optimal_stream_count(8, 10.0 ** (db / 10.0)) for db in range(-10, 41, 2)
        ]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert counts[0] >= 1
        assert counts[-1] == 8

    def test_known_stream_counts(self):
        assert optimal_stream_count(8, 1.0) == 4
        assert optimal_stream_count(8, 10.0) == 8

    def test_bounds_waterfill_of_matching_total(self):
        rng = np.random.default_rng(29)
        n = 8
        for seed in range(50):
            raw = np.random.default_rng(seed).uniform(0.0, 1.0, n)
            values = raw * (n * n / raw.sum())
            snr = float(rng.uniform(0.1, 100.0))
            achieved = waterfill(values, snr).capacity
            assert achieved <= dof_bound(n, snr).bound + 1e-9

    def test_flat_optimal_spectrum_attains_bound(self):
        n, snr = 8, 10.0
        bound = dof_bound(n, snr)
        rho = bound.rho_star
        values = np.zeros(n)
        values[:rho] = n * n / rho
        assert waterfill(values, snr).capacity == pytest.approx(
            bound.bound, rel=1e-12
        )

    def test_high_snr_slope_is_full_rank(self):
        n = 8
        snr = 1e6
        b1 = dof_bound(n, snr).bound
        b2 = dof_bound(n, 2.0 * snr).bound
        assert b2 - b1 == pytest.approx(n, rel=1e-2)

    def test_error_paths(self):
        with pytest.raises(ValueError, match="count"):
            dof_bound(0, 1.0)
        with pytest.raises(ValueError, match="snr"):
            dof_bound(8, -1.0)
        for snr in (math.nan, math.inf):
            with pytest.raises(ValueError, match="snr"):
                dof_bound(8, snr)
            with pytest.raises(ValueError, match="snr"):
                optimal_stream_count(8, snr)

    @pytest.mark.parametrize("count", [2.5, True, math.nan, "8"])
    def test_non_integer_counts_refused_by_name(self, count):
        """A count must be an integer: 2.5 no longer fails in ``range`` and
        ``True`` is no longer one antenna.  The stream count and the matched
        spacing inherit the check."""
        for call in (lambda: dof_bound(count, 1.0), lambda: optimal_stream_count(count, 1.0),
                     lambda: spacing_snr(0.005, 10.0, count, 1.0)):
            with pytest.raises(ValueError, match="count must be an integer"):
                call()

    def test_numpy_integer_count_accepted(self):
        assert dof_bound(np.int64(8), 10.0) == dof_bound(8, 10.0)
