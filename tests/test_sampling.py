import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from skellam_fields import (
    BoxRegion,
    GridPoint,
    RngStream,
    ValidationError,
    count_at,
    mittag_leffler2,
    moment_z_check,
    sample_inverse_subordinator,
    sample_inverse_subordinator_path,
    sample_point_field,
    sample_poisson,
    sample_stable_unit,
)

UNIT = BoxRegion((0.0, 0.0), (1.0, 1.0))


class TestRngStream:
    def test_determinism_bit_for_bit(self):
        a = RngStream(123, 5).generator.random(100)
        b = RngStream(123, 5).generator.random(100)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 0).generator.random(10)
        b = RngStream(123, 1).generator.random(10)
        assert not np.array_equal(a, b)

    def test_substream_determinism(self):
        a = RngStream(9).substream(3).generator.random(4)
        b = RngStream(9).substream(3).generator.random(4)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValidationError):
            RngStream(-1)
        with pytest.raises(ValidationError):
            RngStream(0, 1 << 64)


class TestBoxRegion:
    def test_measure(self):
        box = BoxRegion((0.0, 1.0), (2.0, 4.0))
        assert box.measure == 6.0
        assert box.dims == 2

    def test_intersection(self):
        a = BoxRegion((0.0, 0.0), (1.0, 1.0))
        b = BoxRegion((0.5, 0.0), (1.5, 1.0))
        assert a.intersection_measure(b) == pytest.approx(0.5)
        c = BoxRegion((2.0, 2.0), (3.0, 3.0))
        assert a.intersection_measure(c) == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            BoxRegion((0.0,), (1.0, 2.0))
        with pytest.raises(ValidationError):
            BoxRegion((1.0,), (0.0,))


class TestSamplePoisson:
    def test_zero_mean(self):
        rng = RngStream(1)
        assert all(sample_poisson(0.0, rng) == 0 for _ in range(50))

    def test_law_of_large_numbers(self):
        draws = sample_poisson(4.0, RngStream(2), size=100_000)
        z_mean = abs(draws.mean() - 4.0) / math.sqrt(4.0 / draws.size)
        assert z_mean < 4.0
        # variance of the sample variance of Poisson: (mu + 2 mu^2)/n
        z_var = abs(draws.var(ddof=1) - 4.0) / math.sqrt((4.0 + 32.0) / draws.size)
        assert z_var < 4.0

    def test_negative_mean_rejected(self):
        with pytest.raises(ValidationError):
            sample_poisson(-0.1, RngStream(0))


class TestPointField:
    def test_mean_count(self):
        rng = RngStream(3)
        counts = np.array([sample_point_field(2.0, UNIT, rng).count for _ in range(4000)])
        z = abs(counts.mean() - 2.0) / math.sqrt(2.0 / counts.size)
        assert z < 4.0

    def test_degenerate_region(self):
        region = BoxRegion((0.0, 0.0), (0.0, 1.0))
        rng = RngStream(4)
        assert all(sample_point_field(5.0, region, rng).count == 0 for _ in range(20))

    def test_quadrant_counts_independent_poisson(self):
        # one scatter per replicate; counts on disjoint quadrants
        gen = RngStream(5).generator
        n = 100_000
        counts = gen.poisson(1.0, size=n)
        total = int(counts.sum())
        x, y = gen.random(total), gen.random(total)
        rep = np.repeat(np.arange(n), counts)
        quad = (x >= 0.5).astype(np.int64) * 2 + (y >= 0.5).astype(np.int64)
        per_quad = np.zeros((n, 4), dtype=np.int64)
        np.add.at(per_quad, (rep, quad), 1)
        q0, q1 = per_quad[:, 0], per_quad[:, 3]
        # pairwise covariance of disjoint-quadrant counts near zero
        z_cov = abs(np.cov(q0, q1)[0, 1]) / math.sqrt(0.25 * 0.25 / n)
        assert z_cov < 4.0
        # chi-square goodness of fit of one quadrant count against Poisson(1/4)
        kmax = 6
        observed = np.bincount(np.minimum(q0, kmax), minlength=kmax + 1)
        probs = np.array([math.exp(-0.25) * 0.25 ** k / math.factorial(k) for k in range(kmax)])
        probs = np.append(probs, 1.0 - probs.sum())
        chi2 = ((observed - n * probs) ** 2 / (n * probs)).sum()
        assert chi2 < stats.chi2.ppf(0.99, df=kmax)
        # independence of the pair via a contingency table at the 1% level
        table = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                table[i, j] = ((np.minimum(q0, 2) == i) & (np.minimum(q1, 2) == j)).sum()
        _, p_value, _, _ = stats.chi2_contingency(table)
        assert p_value > 0.01


class TestPointFieldPublicApi:
    def test_disjoint_quadrant_counts_uncorrelated(self):
        # increments of one scatter over disjoint quadrants, via count_at
        rng = RngStream(55)
        n = 20_000
        q_low = np.empty(n)
        q_high = np.empty(n)
        for i in range(n):
            sample = sample_point_field(1.0, UNIT, rng)
            at = lambda x, y: count_at(sample, (x, y))
            q_low[i] = at(0.5, 0.5)
            q_high[i] = (sample.count - at(0.5, 1.0) - at(1.0, 0.5) + at(0.5, 0.5))
        z = abs(np.cov(q_low, q_high)[0, 1]) / math.sqrt(0.25 * 0.25 / n)
        assert z < 4.0
        assert abs(q_low.mean() - 0.25) / math.sqrt(0.25 / n) < 4.0


class TestCountAt:
    def test_corners(self):
        sample = sample_point_field(30.0, UNIT, RngStream(6))
        assert count_at(sample, UNIT.lower) == 0
        assert count_at(sample, UNIT.upper) == sample.count

    def test_outside_corner_rejected(self):
        sample = sample_point_field(1.0, UNIT, RngStream(7))
        with pytest.raises(ValidationError):
            count_at(sample, (1.5, 0.5))

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_corner(self, a, b, c, d):
        sample = sample_point_field(20.0, UNIT, RngStream(8))
        lo = (min(a, c), min(b, d))
        hi = (max(a, c), max(b, d))
        assert count_at(sample, lo) <= count_at(sample, hi)


class TestStableUnit:
    def test_positive_support(self):
        draws = sample_stable_unit(0.6, RngStream(9), size=5000)
        assert np.all(draws > 0.0)

    @pytest.mark.parametrize("alpha,u", [(0.5, 1.0), (0.8, 2.0)])
    def test_laplace_transform(self, alpha, u):
        draws = sample_stable_unit(alpha, RngStream(10), size=100_000)
        vals = np.exp(-u * draws)
        target = math.exp(-u ** alpha)
        var = math.exp(-(2.0 * u) ** alpha) - target ** 2
        z = abs(vals.mean() - target) / math.sqrt(var / vals.size)
        assert z < 4.0

    def test_alpha_domain(self):
        with pytest.raises(ValidationError):
            sample_stable_unit(1.0, RngStream(0))


class TestInverseSubordinator:
    def test_order_one_is_identity(self):
        assert sample_inverse_subordinator(1.0, 3.7, RngStream(11)) == 3.7

    def test_mean_and_variance(self):
        draws = sample_inverse_subordinator(0.6, 1.0, RngStream(12), size=100_000)
        mean = 1.0 / math.gamma(1.6)
        var = 2.0 / math.gamma(2.2) - mean ** 2
        z_mean = abs(draws.mean() - mean) / math.sqrt(var / draws.size)
        assert z_mean < 4.0
        centered = draws - draws.mean()
        se_var = math.sqrt(((centered ** 4).mean() - draws.var() ** 2) / draws.size)
        assert abs(draws.var(ddof=1) - var) / se_var < 4.0

    @pytest.mark.parametrize("u", [0.5, 1.0, 2.0])
    def test_laplace_pair_against_mittag_leffler(self, u):
        alpha, t = 0.7, 1.3
        draws = sample_inverse_subordinator(alpha, t, RngStream(13), size=100_000)
        vals = np.exp(-u * draws)
        target = mittag_leffler2(alpha, -u * t ** alpha)
        var = mittag_leffler2(alpha, -2.0 * u * t ** alpha) - target ** 2
        z = abs(vals.mean() - target) / math.sqrt(var / vals.size)
        assert z < 4.0

    def test_zero_time(self):
        assert sample_inverse_subordinator(0.5, 0.0, RngStream(14)) == 0.0

    @pytest.mark.parametrize("alpha", [1e-3, 0.01])
    def test_small_orders_are_finite_and_positive(self, alpha):
        # t^alpha (W/A)^(1-alpha) never forms H(1), which overflows here
        t = 2.0
        draws = sample_inverse_subordinator(alpha, t, RngStream(18), size=200_000)
        assert np.all(np.isfinite(draws)) and np.all(draws > 0.0)
        mean = t ** alpha / math.gamma(1.0 + alpha)
        var = 2.0 * t ** (2.0 * alpha) / math.gamma(1.0 + 2.0 * alpha) - mean ** 2
        assert moment_z_check(draws, mean, var).passed

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        for alpha in (0.5, 1.0):
            with pytest.raises(ValidationError, match="t: must be finite"):
                sample_inverse_subordinator(alpha, t, RngStream(19), size=10)
        with pytest.raises(ValidationError, match="finite"):
            sample_inverse_subordinator_path(0.5, [1.0, t], 1e-3, RngStream(19))
        for s, u in ((t, 1.0), (1.0, t)):
            with pytest.raises(ValidationError, match="s/t: must be finite"):
                GridPoint(s, u)


class TestInverseSubordinatorPath:
    def test_order_one_equals_grid(self):
        grid = [0.5, 1.0, 2.0]
        vals = sample_inverse_subordinator_path(1.0, grid, 1e-3, RngStream(15))
        assert np.array_equal(vals, np.asarray(grid))

    def test_nondecreasing(self):
        vals = sample_inverse_subordinator_path(0.6, [0.3, 0.7, 1.0, 1.4], 5e-3,
                                                RngStream(16), size=300)
        assert np.all(np.diff(vals, axis=1) >= 0.0)
        assert np.all(vals >= 0.0)

    def test_marginal_matches_exact_sampler(self):
        # single-element grid: path-sampler mean vs the self-similarity draw
        alpha, t, n = 0.7, 1.0, 20_000
        path_vals = sample_inverse_subordinator_path(alpha, [t], 1e-3,
                                                     RngStream(17), size=n)[:, 0]
        mean = t ** alpha / math.gamma(alpha + 1.0)
        var = t ** (2 * alpha) * (2.0 / math.gamma(2 * alpha + 1.0)
                                  - 1.0 / math.gamma(alpha + 1.0) ** 2)
        z = abs(path_vals.mean() - mean) / math.sqrt(var / n)
        assert z < 4.0

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            sample_inverse_subordinator_path(0.5, [1.0, 0.5], 1e-3, RngStream(18))
        with pytest.raises(ValidationError):
            sample_inverse_subordinator_path(0.5, [0.5], 0.0, RngStream(18))

    def test_determinism(self):
        a = sample_inverse_subordinator_path(0.6, [0.5, 1.0], 1e-2, RngStream(19), size=50)
        b = sample_inverse_subordinator_path(0.6, [0.5, 1.0], 1e-2, RngStream(19), size=50)
        assert np.array_equal(a, b)
