import math

import numpy as np
import pytest
from scipy.integrate import quad

from skellam_fields import (
    ArgumentRangeError,
    ConvergenceGuardError,
    FracOrders,
    FsrfModel,
    GridPoint,
    RngStream,
    SeriesNonConvergenceError,
    SkellamParams,
    ValidationError,
    empirical_pmf,
    fprf_moments,
    fprf_pmf,
    fprf_sample,
    fprf_sample_pair,
    fsrf1_moments,
    fsrf1_pgf_pde_residual,
    fsrf1_pmf,
    fsrf1_sample,
    fsrf2_moments,
    fsrf2_pgf,
    fsrf2_pmf,
    fsrf2_sample,
    fsrf3_moments,
    fsrf3_pmf,
    fsrf3_sample,
    singular_cov_integral,
    singular_cov_integral_checked,
    srf_pde_residual,
    srf_pgf,
    srf_pmf,
    tv_distance,
)

PARAMS = SkellamParams(1.0, 0.5)
P11 = GridPoint(1.0, 1.0)


def series_table(pmf, n_min, n_max):
    from skellam_fields import PmfTable

    return PmfTable.from_probs(n_min, [pmf(n) for n in range(n_min, n_max + 1)])


class TestFracTypes:
    def test_orders_validation(self):
        with pytest.raises(ValidationError):
            FracOrders(0.0)
        with pytest.raises(ValidationError):
            FracOrders(0.5, 1.2)
        with pytest.raises(ValidationError):
            FracOrders(0.5, 0.5, 0.7, None)

    def test_model_validation(self):
        with pytest.raises(ValidationError):
            FsrfModel("IV", PARAMS, FracOrders(0.5, 0.5))
        with pytest.raises(ValidationError):
            FsrfModel("III", PARAMS, FracOrders(0.5, 0.5))

    def test_kind_mismatch_rejected(self):
        model = FsrfModel("I", PARAMS, FracOrders(0.5, 0.5))
        with pytest.raises(ValidationError):
            fsrf2_pmf(model, 1.0, 1.0, 0)


class TestFprf:
    def test_poisson_reduction(self):
        lam, st_ = 1.3, 1.0
        for n in range(0, 12):
            poisson = math.exp(-lam * st_ + n * math.log(lam * st_) - math.lgamma(n + 1))
            assert fprf_pmf(lam, 1.0, 1.0, 1.0, st_, n) == pytest.approx(poisson, abs=1e-12)

    def test_zero_area(self):
        assert fprf_pmf(1.0, 0.7, 0.7, 0.0, 1.0, 0) == 1.0
        assert fprf_pmf(1.0, 0.7, 0.7, 0.0, 1.0, 3) == 0.0

    def test_negative_n_rejected(self):
        with pytest.raises(ValidationError):
            fprf_pmf(1.0, 0.7, 0.7, 1.0, 1.0, -1)

    def test_divergent_orders_rejected(self):
        with pytest.raises(ConvergenceGuardError):
            fprf_pmf(1.0, 0.5, 0.3, 1.0, 1.0, 0)
        assert fprf_pmf(1.0, 0.5, 0.3, 0.0, 1.0, 0) == 1.0  # zero area: no series

    def test_overflowing_term_raises(self):
        with pytest.raises(SeriesNonConvergenceError):
            fprf_pmf(60.0, 0.7, 0.7, 1.0, 1.0, 0)

    def test_series_vs_sampler(self):
        draws = fprf_sample(1.0, 0.7, 0.7, 1.0, 1.0, RngStream(21), size=30_000)
        analytic = series_table(lambda n: fprf_pmf(1.0, 0.7, 0.7, 1.0, 1.0, n), 0, 10)
        assert tv_distance(empirical_pmf(draws, 0, 10), analytic) < 0.03

    def test_mean_at_half_orders(self):
        mean, _, _ = fprf_moments(1.0, 0.5, 0.5, P11, P11)
        assert mean == pytest.approx(4.0 / math.pi, abs=1e-12)

    def test_covariance_equals_variance_at_coincident_points(self):
        for alpha, beta in [(0.5, 0.5), (0.7, 0.9), (1.0, 1.0)]:
            mean, var, cov = fprf_moments(1.3, alpha, beta, P11, P11)
            assert cov == pytest.approx(var, abs=1e-10)

    def test_poisson_field_moment_reduction(self):
        mean, var, cov = fprf_moments(1.0, 1.0, 1.0, P11, GridPoint(1.5, 1.2))
        assert mean == pytest.approx(1.0)
        assert var == pytest.approx(1.0)
        assert cov == pytest.approx(1.0)  # lam * min(s,s') * min(t,t')

    def test_joint_sampler_orders(self):
        with pytest.raises(ValidationError):
            fprf_sample_pair(1.0, 0.7, 0.7, GridPoint(1.5, 1.0), P11, RngStream(0), size=10)

    def test_joint_sampler_marginals_and_monotone(self):
        pairs = fprf_sample_pair(1.0, 0.7, 0.7, P11, GridPoint(1.5, 1.2),
                                 RngStream(22), size=4000, step=5e-3)
        assert np.all(pairs[:, 1] >= pairs[:, 0])
        mean, var, _ = fprf_moments(1.0, 0.7, 0.7, P11, P11)
        z = abs(pairs[:, 0].mean() - mean) / math.sqrt(var / pairs.shape[0])
        assert z < 4.0


class TestCovarianceQuadrature:
    def test_node_doubling_stability(self):
        for s, sp, alpha in [(1.0, 1.5, 0.7), (1.0, 1.0, 0.5), (1.2, 1.2, 0.9)]:
            _, rel = singular_cov_integral_checked(s, sp, alpha)
            assert rel < 1e-9

    def test_against_adaptive_quadrature(self):
        s, sp, alpha = 1.0, 1.5, 0.7
        target, err = quad(lambda x: ((s - x) ** alpha + (sp - x) ** alpha) * x ** (alpha - 1.0),
                           0.0, 1.0, points=[0.0], limit=200)
        assert err < 1e-9
        assert singular_cov_integral(s, sp, alpha) == pytest.approx(target, rel=1e-10)

    def test_closed_form_at_coincidence(self):
        c, alpha = 1.3, 0.6
        expected = 2.0 * c ** (2 * alpha) * math.gamma(alpha) * math.gamma(alpha + 1.0) \
            / math.gamma(2 * alpha + 1.0)
        assert singular_cov_integral(c, c, alpha) == pytest.approx(expected, rel=1e-14)


class TestFsrf1:
    def test_orders_one_collapse(self):
        params = SkellamParams(2.0, 1.0)
        model = FsrfModel("I", params, FracOrders(1.0, 1.0))
        for n in range(-15, 16):
            assert fsrf1_pmf(model, 1.0, 1.0, n) == pytest.approx(
                srf_pmf(params, 1.0, 1.0, n), abs=1e-10)

    def test_zero_area(self):
        model = FsrfModel("I", PARAMS, FracOrders(0.7, 0.7))
        assert fsrf1_pmf(model, 0.0, 1.0, 0) == 1.0
        assert fsrf1_sample(model, 0.0, 1.0, RngStream(23)) == 0

    def test_equal_rate_symmetry(self):
        model = FsrfModel("I", SkellamParams(0.6, 0.6), FracOrders(0.7, 0.7))
        for n in (1, 2, 3):
            assert fsrf1_pmf(model, 1.0, 1.0, n) == fsrf1_pmf(model, 1.0, 1.0, -n)

    def test_cancellation_guard_outside_stable_envelope(self):
        from skellam_fields import SeriesNonConvergenceError

        model = FsrfModel("I", SkellamParams(2.0, 1.0), FracOrders(0.7, 0.7))
        with pytest.raises(SeriesNonConvergenceError):
            fsrf1_pmf(model, 1.0, 1.0, 0)

    def test_series_vs_sampler(self):
        model = FsrfModel("I", PARAMS, FracOrders(0.7, 0.7))
        draws = fsrf1_sample(model, 1.0, 1.0, RngStream(24), size=30_000)
        analytic = series_table(lambda n: fsrf1_pmf(model, 1.0, 1.0, n), -8, 8)
        assert tv_distance(empirical_pmf(draws, -8, 8), analytic) < 0.03

    def test_against_extended_precision_oracle(self):
        # frozen values from an adaptive-truncation mpmath (150 dps) run of
        # the defining double series; the double-precision evaluator carries
        # about 1e-6 of cancellation noise at these parameters
        model = FsrfModel("I", PARAMS, FracOrders(0.7, 0.7))
        assert fsrf1_pmf(model, 1.0, 1.0, 0) == pytest.approx(0.43428216678199076, abs=4e-6)
        assert fsrf1_pmf(model, 1.0, 1.0, 5) == pytest.approx(0.010875559851933328, abs=4e-6)

    def test_moment_reduction_at_orders_one(self):
        model = FsrfModel("I", SkellamParams(2.0, 1.0), FracOrders(1.0, 1.0))
        mean, var, cov = fsrf1_moments(model, P11, GridPoint(1.5, 1.2))
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert var == pytest.approx(3.0, abs=1e-12)
        assert cov == pytest.approx(3.0, abs=1e-10)  # (l1+l2) * min(s,s') * min(t,t')

    def test_mean_at_half_orders(self):
        model = FsrfModel("I", SkellamParams(2.0, 1.0), FracOrders(0.5, 0.5))
        mean, _, _ = fsrf1_moments(model, P11, P11)
        assert mean == pytest.approx(4.0 / math.pi, abs=1e-12)

    def test_covariance_equals_variance_at_coincident_points(self):
        model = FsrfModel("I", SkellamParams(2.0, 1.0), FracOrders(0.7, 0.6))
        _, var, cov = fsrf1_moments(model, P11, P11)
        assert cov == pytest.approx(var, abs=1e-10)

    def test_moments_vs_mc(self):
        model = FsrfModel("I", PARAMS, FracOrders(0.7, 0.7))
        draws = fsrf1_sample(model, 1.0, 1.0, RngStream(25), size=50_000)
        mean, var, _ = fsrf1_moments(model, P11, P11)
        assert abs(draws.mean() - mean) / math.sqrt(var / draws.size) < 4.0
        centered = draws - draws.mean()
        se = math.sqrt(((centered ** 4).mean() - draws.var() ** 2) / draws.size)
        assert abs(draws.var(ddof=1) - var) / se < 4.0

    def test_pgf_residual_orders_one_matches_classical(self):
        model = FsrfModel("I", SkellamParams(2.0, 1.0), FracOrders(1.0, 1.0))
        check = fsrf1_pgf_pde_residual(model, 0.4, 1.0, 1.0, 1e-3, rng=RngStream(26),
                                       replicates=2000)
        res = srf_pde_residual(SkellamParams(2.0, 1.0), 0.4, 1.0, 1.0, 1e-3)
        assert check.residual_pgf == res[0]
        assert check.residual_pmf == res[1]
        # orders one: the time change is deterministic, MC equals the pgf
        assert check.mc_pgf == pytest.approx(srf_pgf(SkellamParams(2.0, 1.0), 0.4, 1.0, 1.0),
                                             rel=1e-12)

    def test_pgf_series_vs_mc_time_change(self):
        model = FsrfModel("I", PARAMS, FracOrders(0.7, 0.7))
        check = fsrf1_pgf_pde_residual(model, 0.6, 1.0, 1.0, 1e-3, rng=RngStream(27),
                                       replicates=20_000)
        assert check.mc_z < 4.0

    def test_pgf_normalization_at_u_one(self):
        model = FsrfModel("I", PARAMS, FracOrders(0.7, 0.7))
        check = fsrf1_pgf_pde_residual(model, 1.0, 1.0, 1.0, 1e-3, rng=RngStream(28),
                                       replicates=2000)
        # the window truncates tail mass of a few 1e-6
        assert check.series_pgf == pytest.approx(1.0, abs=2e-5)
        assert check.mc_pgf == pytest.approx(1.0, abs=1e-12)


def fsrf2_laplace_closed_form(params, alpha, t, n, w, k_terms=60):
    """s-domain Laplace transform of the kind-II pmf, summed in closed form."""
    l1, l2 = params.lambda1, params.lambda2
    m0 = abs(n)
    y = math.sqrt(l1 * l2) * t
    lam = (l1 + l2) * t
    total = 0.0
    for k in range(k_terms):
        m = m0 + 2 * k
        total += (math.exp(_lg(m + 1) - _lg(m0 + k + 1) - _lg(k + 1) + m * math.log(y))
                  * w ** (alpha - 1.0) / (w ** alpha + lam) ** (m + 1))
    return (l1 / l2) ** (n / 2.0) * total


def _lg(x):
    return math.lgamma(x)


class TestFsrf2:
    def test_alpha_one_collapse(self):
        model = FsrfModel("II", PARAMS, FracOrders(1.0))
        for n in range(-15, 16):
            assert fsrf2_pmf(model, 1.0, 1.0, n) == pytest.approx(
                srf_pmf(PARAMS, 1.0, 1.0, n), abs=1e-10)

    def test_zero_area(self):
        model = FsrfModel("II", PARAMS, FracOrders(0.7))
        assert fsrf2_pmf(model, 1.0, 0.0, 0) == 1.0
        assert fsrf2_pmf(model, 1.0, 0.0, 2) == 0.0
        assert fsrf2_sample(model, 1.0, 0.0, RngStream(29)) == 0

    def test_laplace_inversion_oracle(self):
        # quadrature of the series pmf against the closed-form transform; this
        # is what forces the +1 in the Mittag-Leffler second parameter.  The
        # integration stops at s = 8 (the series' stable range at these
        # rates); with w >= 2 the neglected tail is ~1e-8 relative.
        model = FsrfModel("II", PARAMS, FracOrders(0.7))
        for n, w in ((0, 2.0), (1, 2.5), (-2, 3.0)):
            numeric, err = quad(lambda s: math.exp(-w * s) * fsrf2_pmf(model, s, 1.0, n),
                                0.0, 8.0, limit=300)
            closed = fsrf2_laplace_closed_form(PARAMS, 0.7, 1.0, n, w)
            assert err < 1e-7
            assert numeric == pytest.approx(closed, rel=1e-5)

    def test_printed_subscript_variant_fails_normalization(self):
        # the same series with second parameter alpha*m (no +1) is not a pmf
        from skellam_fields import mittag_leffler3

        l1, l2, alpha, t = PARAMS.lambda1, PARAMS.lambda2, 0.7, 1.0
        y = math.sqrt(l1 * l2) * t

        def variant(n):
            m0 = abs(n)
            total = 0.0
            for k in range(40):
                m = m0 + 2 * k
                if alpha * m <= 0.0:
                    continue
                coef = math.exp(_lg(m + 1) - _lg(m0 + k + 1) - _lg(k + 1) + m * math.log(y))
                total += coef * mittag_leffler3(alpha, alpha * m, m + 1.0, -(l1 + l2) * t)
            return (l1 / l2) ** (n / 2.0) * total

        mass_variant = sum(variant(n) for n in range(-25, 26))
        mass_implemented = sum(fsrf2_pmf(FsrfModel("II", PARAMS, FracOrders(alpha)),
                                         1.0, 1.0, n) for n in range(-25, 26))
        assert abs(mass_implemented - 1.0) < 1e-6
        assert abs(mass_variant - 1.0) > 0.1

    def test_series_vs_sampler(self):
        model = FsrfModel("II", PARAMS, FracOrders(0.7))
        draws = fsrf2_sample(model, 1.0, 1.0, RngStream(30), size=30_000)
        analytic = series_table(lambda n: fsrf2_pmf(model, 1.0, 1.0, n), -8, 8)
        assert tv_distance(empirical_pmf(draws, -8, 8), analytic) < 0.03

    def test_pgf_values(self):
        model = FsrfModel("II", PARAMS, FracOrders(0.7))
        assert fsrf2_pgf(model, 1.0, 1.0, 1.0) == 1.0
        model1 = FsrfModel("II", PARAMS, FracOrders(1.0))
        assert fsrf2_pgf(model1, 0.6, 1.2, 0.8) == pytest.approx(
            srf_pgf(PARAMS, 0.6, 1.2, 0.8), rel=1e-12)

    def test_pgf_pmf_consistency(self):
        model = FsrfModel("II", PARAMS, FracOrders(0.7))
        u = 0.8
        series = sum(fsrf2_pmf(model, 1.0, 1.0, n) * u ** n for n in range(-25, 26))
        assert abs(series - fsrf2_pgf(model, u, 1.0, 1.0)) < 1e-6

    def test_moments(self):
        model1 = FsrfModel("II", PARAMS, FracOrders(1.0))
        mean, var = fsrf2_moments(model1, 1.3, 0.9)
        st_ = 1.3 * 0.9
        assert mean == pytest.approx((1.0 - 0.5) * st_, abs=1e-12)
        assert var == pytest.approx(1.5 * st_, abs=1e-12)
        model = FsrfModel("II", SkellamParams(2.0, 1.0), FracOrders(0.5))
        mean_h, _ = fsrf2_moments(model, 1.0, 1.0)
        assert mean_h == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-12)

    def test_moments_vs_mc(self):
        model = FsrfModel("II", PARAMS, FracOrders(0.7))
        draws = fsrf2_sample(model, 1.0, 1.0, RngStream(31), size=50_000)
        mean, var = fsrf2_moments(model, 1.0, 1.0)
        assert abs(draws.mean() - mean) / math.sqrt(var / draws.size) < 4.0


class TestFsrf3:
    MODEL = FsrfModel("III", PARAMS, FracOrders(0.7, 0.7, 0.9, 0.9))

    def test_all_orders_one_collapse(self):
        params = SkellamParams(2.0, 1.0)
        model = FsrfModel("III", params, FracOrders(1.0, 1.0, 1.0, 1.0))
        for n in range(-5, 6):
            assert fsrf3_pmf(model, 1.0, 1.0, n) == pytest.approx(
                srf_pmf(params, 1.0, 1.0, n), abs=1e-8)

    def test_symmetric_case_exactly_even(self):
        model = FsrfModel("III", SkellamParams(0.8, 0.8), FracOrders(0.7, 0.8, 0.7, 0.8))
        for n in (1, 2, 3, 4):
            assert fsrf3_pmf(model, 1.0, 1.0, n) == fsrf3_pmf(model, 1.0, 1.0, -n)

    def test_support_cap(self):
        with pytest.raises(ArgumentRangeError):
            fsrf3_pmf(self.MODEL, 1.0, 1.0, 13)

    def test_zero_area(self):
        assert fsrf3_pmf(self.MODEL, 0.0, 1.0, 0) == 1.0
        assert fsrf3_sample(self.MODEL, 0.0, 1.0, RngStream(32)) == 0

    def test_series_vs_sampler(self):
        draws = fsrf3_sample(self.MODEL, 1.0, 1.0, RngStream(33), size=30_000)
        analytic = series_table(lambda n: fsrf3_pmf(self.MODEL, 1.0, 1.0, n), -5, 5)
        assert tv_distance(empirical_pmf(draws, -5, 5), analytic) < 0.04

    def test_moment_reduction_at_orders_one(self):
        params = SkellamParams(2.0, 1.0)
        model = FsrfModel("III", params, FracOrders(1.0, 1.0, 1.0, 1.0))
        mean, var, cov = fsrf3_moments(model, P11, GridPoint(1.5, 1.2))
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert var == pytest.approx(3.0, abs=1e-12)
        assert cov == pytest.approx(3.0, abs=1e-10)

    def test_mean_formula(self):
        model = FsrfModel("III", SkellamParams(2.0, 1.0), FracOrders(0.6, 0.6, 0.8, 0.8))
        mean, _, _ = fsrf3_moments(model, P11, P11)
        expected = 2.0 / math.gamma(1.6) ** 2 - 1.0 / math.gamma(1.8) ** 2
        assert mean == pytest.approx(expected, abs=1e-12)

    def test_moments_vs_mc(self):
        draws = fsrf3_sample(self.MODEL, 1.0, 1.0, RngStream(34), size=50_000)
        mean, var, _ = fsrf3_moments(self.MODEL, P11, P11)
        assert abs(draws.mean() - mean) / math.sqrt(var / draws.size) < 4.0


class TestReductionLattice:
    """Every fractional evaluator at unit orders agrees with its classical
    counterpart."""

    def test_monotone_fractional_mean(self):
        params = SkellamParams(2.0, 1.0)
        gammas, means = [], []
        for alpha in (0.4, 0.6, 0.8, 1.0):
            model = FsrfModel("I", params, FracOrders(alpha, alpha))
            mean, _, _ = fsrf1_moments(model, P11, P11)
            gammas.append(math.gamma(alpha + 1.0) ** 2)
            means.append(mean)
        order = np.argsort(gammas)
        assert np.all(np.diff(np.asarray(means)[order]) <= 0.0)

    def test_moments_vs_mc_at_second_order_setting(self):
        # each model checked at a second pair of fractional orders (the
        # closed-form moments and samplers, unlike the series pmfs, have no
        # stability envelope to respect)
        n = 30_000
        m1 = FsrfModel("I", PARAMS, FracOrders(0.9, 0.5))
        d1 = fsrf1_sample(m1, 1.0, 1.0, RngStream(61), size=n)
        mean, var, _ = fsrf1_moments(m1, P11, P11)
        assert abs(d1.mean() - mean) / math.sqrt(var / n) < 4.0
        m2 = FsrfModel("II", PARAMS, FracOrders(0.4))
        d2 = fsrf2_sample(m2, 1.0, 1.0, RngStream(62), size=n)
        mean2, var2 = fsrf2_moments(m2, 1.0, 1.0)
        assert abs(d2.mean() - mean2) / math.sqrt(var2 / n) < 4.0
        m3 = FsrfModel("III", PARAMS, FracOrders(0.8, 0.6, 0.7, 0.9))
        d3 = fsrf3_sample(m3, 1.0, 1.0, RngStream(63), size=n)
        mean3, var3, _ = fsrf3_moments(m3, P11, P11)
        assert abs(d3.mean() - mean3) / math.sqrt(var3 / n) < 4.0

    def test_normalization_of_truncated_tables(self):
        # kind I on the window where the series is double-precision clean
        model1 = FsrfModel("I", PARAMS, FracOrders(0.7, 0.7))
        t1 = series_table(lambda n: fsrf1_pmf(model1, 1.0, 1.0, n), -12, 12)
        assert t1.tail_mass < 1e-4
        model2 = FsrfModel("II", PARAMS, FracOrders(0.7))
        t2 = series_table(lambda n: fsrf2_pmf(model2, 1.0, 1.0, n), -25, 25)
        assert t2.tail_mass < 1e-4
