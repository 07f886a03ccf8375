import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_jacobi

from skellam_fields import (
    ArgumentRangeError,
    BoxRegion,
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
    gsrf_moments,
    singular_cov_integral,
    srf_pde_residual,
    srf_pgf,
    srf_pmf,
    tv_distance,
)
from skellam_fields.series import sum_series_tracked
from skellam_fields.specfun import WrightSpec, wright_tracked

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
        # orders a kind does not read are rejected, not ignored
        with pytest.raises(ValidationError, match="beta"):
            FsrfModel("II", PARAMS, FracOrders(0.5, 0.7))
        for kind in ("I", "II"):
            with pytest.raises(ValidationError, match="alpha2/beta2"):
                FsrfModel(kind, PARAMS, FracOrders(0.5, 1.0, 0.7, 0.7))

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
        # x = 60 is past the Wright evaluator's declared range |x| <= 20
        with pytest.raises(ArgumentRangeError, match="fprf_pmf"):
            fprf_pmf(60.0, 0.7, 0.7, 1.0, 1.0, 0)

    def test_orders_summing_to_one(self):
        # at alpha + beta = 1 the series converges for x < 0.5^0.5 0.5^0.5 = 0.5;
        # values frozen from the earlier dedicated FPRF series
        for n, value in enumerate((0.805246097673246, 0.14977206347537314,
                                   0.03389808640448826, 0.008257377455765418)):
            assert fprf_pmf(0.2, 0.5, 0.5, 1.0, 1.0, n) == pytest.approx(value, abs=1e-12)
        with pytest.raises(SeriesNonConvergenceError, match="fprf_pmf"):
            fprf_pmf(0.6, 0.5, 0.5, 1.0, 1.0, 0)

    def test_cancellation_noise_raises(self):
        # at rate 2 the alternating series for n = 12 cancels down to noise
        with pytest.raises(SeriesNonConvergenceError, match="cancellation noise"):
            fprf_pmf(2.0, 0.7, 0.7, 1.0, 1.0, 12)

    @pytest.mark.parametrize("lam, alpha, beta", [(6.0, 0.7, 0.7), (3.0, 0.5, 0.52)],
                             ids=["term-cap", "term-range"])
    def test_inner_cancellation_names_the_noise(self, lam, alpha, beta):
        # the inner Wright sum stops before the outer sum sees its noise: at
        # rate 6 at its term cap, at orders (0.5, 0.52) at the e^700 guard on
        # its terms, after which its noise is known from the terms before
        with pytest.raises(SeriesNonConvergenceError) as info:
            fprf_pmf(lam, alpha, beta, 1.0, 1.0, 0)
        assert str(info.value) == (
            f"fprf_pmf(n=0): wright(x=-{lam}): cancellation noise exceeds 0.001; "
            "arguments are outside the double-precision-stable envelope")

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


def _gauss_jacobi_cov_integral(s, sp, alpha, nodes):
    """Gauss-Jacobi oracle for singular_cov_integral: the weight x^(alpha-1)
    absorbs the left-endpoint singularity, and a coincident piece, whose
    right endpoint has a cusp, is the Beta integral in closed form."""
    xi, w = roots_jacobi(nodes, 0.0, alpha - 1.0)
    c = min(s, sp)
    total = 0.0
    for sigma in (s, sp):
        if sigma == c:
            total += c ** (2 * alpha) * math.gamma(alpha) * math.gamma(alpha + 1.0) \
                / math.gamma(2 * alpha + 1.0)
        else:
            total += (c / 2.0) ** alpha * float(np.sum(w * (sigma - c * (xi + 1.0) / 2.0) ** alpha))
    return total


def _hyp2f1_cov_integral(s, sp, alpha):
    """40-digit oracle: each piece is (sigma c)^a / a 2F1(-a, a; a+1; c/sigma)."""
    with mpmath.workdps(40):
        a, s, sp = mpmath.mpf(alpha), mpmath.mpf(s), mpmath.mpf(sp)
        c = min(s, sp)
        return sum((sigma * c) ** a / a * mpmath.hyp2f1(-a, a, a + 1, c / sigma)
                   for sigma in (s, sp))


class TestCovarianceQuadrature:
    def test_node_doubling_stability(self):
        # the closed form against the Gauss-Jacobi rule, itself stable under
        # node doubling at these pairs
        for s, sp, alpha in [(1.0, 1.5, 0.7), (1.0, 1.0, 0.5), (1.2, 1.2, 0.9)]:
            v64 = _gauss_jacobi_cov_integral(s, sp, alpha, 64)
            v128 = _gauss_jacobi_cov_integral(s, sp, alpha, 128)
            assert abs(v128 / v64 - 1.0) < 1e-9
            assert abs(singular_cov_integral(s, sp, alpha) / v128 - 1.0) < 1e-9

    @pytest.mark.parametrize("alpha", [1e-3, 0.05, 0.3, 0.7, 1.0])
    def test_against_hypergeometric_oracle(self, alpha):
        # near-coincident pairs, where a quadrature meets the right-endpoint
        # cusp, and pairs sixteen decades apart
        for s, sp in [(1.0, 1.0 + 1e-12), (1.0, 1.0 + 1e-9), (1.0 + 1e-9, 1.0),
                      (1.0, 1.0 + 1e-6), (1.0, 2.0), (1e-8, 1e8), (1e8, 1e-8)]:
            exact = _hyp2f1_cov_integral(s, sp, alpha)
            value = singular_cov_integral(s, sp, alpha)
            assert abs(value - exact) <= 2e-15 * exact, (s, sp)

    def test_out_of_range(self):
        with pytest.raises(ArgumentRangeError, match="double range"):
            singular_cov_integral(1e300, 1e300, 0.9)
        with pytest.raises(ValidationError, match="s/sp"):
            singular_cov_integral(math.nan, 1.0, 0.7)
        with pytest.raises(ValidationError, match="alpha"):
            singular_cov_integral(1.0, 1.5, 0.0)

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
        # frozen 52-digit values of the defining double series (mpmath; an
        # 80-digit and a 110-digit run agree); the double-precision evaluator
        # carries up to ~2e-6 of cancellation noise at these parameters
        model = FsrfModel("I", PARAMS, FracOrders(0.7, 0.7))
        assert fsrf1_pmf(model, 1.0, 1.0, 0) == pytest.approx(
            0.434282163377504803036717377756526514779573107339338, abs=4e-6)
        assert fsrf1_pmf(model, 1.0, 1.0, 5) == pytest.approx(
            0.01087564887119464555882444814563889295312995203100642, abs=4e-6)

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

    def test_covariance_of_an_unordered_pair(self):
        p1, p2 = GridPoint(1.0, 2.0), GridPoint(2.0, 1.0)
        model = FsrfModel("I", PARAMS, FracOrders(1.0, 1.0))
        box = BoxRegion((0.0, 0.0), (1.0, 2.0)), BoxRegion((0.0, 0.0), (2.0, 1.0))
        assert gsrf_moments(PARAMS.to_gsrf(), *box)[2] == pytest.approx(1.5, abs=1e-12)
        assert fsrf1_moments(model, p1, p2)[2] == pytest.approx(1.5, abs=1e-10)
        model = FsrfModel("I", PARAMS, FracOrders(0.7, 0.8))
        assert fsrf1_moments(model, p1, p2)[2] == fsrf1_moments(model, p2, p1)[2]

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
        # quadrature of the pmf (the kind-I Wright series at beta = 1) against
        # the closed-form s-domain transform of the paper's kind-II pmf.  The
        # integration stops at s = 5, inside the series' stable range at these
        # rates (the noise cap fires from s ~ 5.5); since 0 <= p <= 1 the
        # neglected tail is at most e^{-5w}/w, which is <= 5e-7 of each
        # closed value at these (n, w).
        model = FsrfModel("II", PARAMS, FracOrders(0.7))
        for n, w in ((0, 3.0), (1, 3.5), (-2, 4.0)):
            numeric, err = quad(lambda s: math.exp(-w * s) * fsrf2_pmf(model, s, 1.0, n),
                                0.0, 5.0, limit=300)
            closed = fsrf2_laplace_closed_form(PARAMS, 0.7, 1.0, n, w)
            assert err < 1e-7
            assert numeric == pytest.approx(closed, rel=1e-5)

    def test_cancellation_noise_raises(self):
        # at s = 7 the alternating series cancels down to noise (its partial
        # sum is off by 0.04 from the true 0.1702)
        model = FsrfModel("II", PARAMS, FracOrders(0.7))
        with pytest.raises(SeriesNonConvergenceError, match="fsrf2_pmf"):
            fsrf2_pmf(model, 7.0, 1.0, 0)

    def test_against_extended_precision_oracle(self):
        # frozen 52-digit values of the paper's Mittag-Leffler series
        # (mpmath) at the desk model
        model = FsrfModel("II", PARAMS, FracOrders(0.7))
        for n, value in ((-3, 0.006318595699068940620142072173486359583328061700822745),
                         (0, 0.3960976558548974942623473423722243442437113706751526),
                         (5, 0.00601597173195616894742875065827081392286944439520965)):
            assert fsrf2_pmf(model, 1.0, 1.0, n) == pytest.approx(value, abs=1e-12)

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


def _paper_double_series(model, s, t, n):
    """The paper's kind-III pmf: a double series over rows r and columns l
    with an inner 4Psi5 Wright function, kept as a reference for the
    convolution.  It swaps the components for n < 0 as the library does."""
    l1, l2 = model.params.lambda1, model.params.lambda2
    o = model.orders
    if n >= 0:
        la, aa, ba = l1, o.alpha, o.beta
        lb, ab, bb = l2, o.alpha2, o.beta2
    else:
        la, aa, ba = l2, o.alpha2, o.beta2
        lb, ab, bb = l1, o.alpha, o.beta
    m = abs(n)
    lya = math.log(la * s ** aa * t ** ba)
    lyb = math.log(lb * s ** ab * t ** bb)
    x = l1 * l2 * s ** (o.alpha + o.alpha2) * t ** (o.beta + o.beta2)

    def row(r):
        def terms():
            for l in itertools.count():
                spec = WrightSpec(
                    upper=((r + m + 1.0, 1.0), (r + m + 1.0, 1.0),
                           (l + 1.0, 1.0), (l + 1.0, 1.0)),
                    lower=((m + 1.0, 1.0),
                           ((r + m) * aa + 1.0, aa), ((r + m) * ba + 1.0, ba),
                           (l * ab + 1.0, ab), (l * bb + 1.0, bb)),
                )
                coef = math.exp((r + m) * lya + l * lyb - math.lgamma(r + 1)
                                - math.lgamma(l + 1))
                w, w_noise = wright_tracked(spec, x)[:2]
                yield (-coef * w if (r + l) % 2 else coef * w), coef * w_noise

        return sum_series_tracked(terms())[:2]

    rows = (row(r) for r in itertools.count())
    return sum_series_tracked(rows)[0]


class TestFsrf3:
    MODEL = FsrfModel("III", PARAMS, FracOrders(0.7, 0.7, 0.9, 0.9))
    SYMMETRIC = FsrfModel("III", SkellamParams(0.8, 0.8), FracOrders(0.7, 0.8, 0.7, 0.8))

    def test_all_orders_one_collapse(self):
        params = SkellamParams(2.0, 1.0)
        model = FsrfModel("III", params, FracOrders(1.0, 1.0, 1.0, 1.0))
        for n in range(-5, 6):
            assert fsrf3_pmf(model, 1.0, 1.0, n) == pytest.approx(
                srf_pmf(params, 1.0, 1.0, n), abs=1e-8)

    def test_symmetric_case_exactly_even(self):
        for n in (1, 2, 3, 4):
            assert (fsrf3_pmf(self.SYMMETRIC, 1.0, 1.0, n)
                    == fsrf3_pmf(self.SYMMETRIC, 1.0, 1.0, -n))

    def test_component_refusals_name_the_calling_n(self):
        model = FsrfModel("III", SkellamParams(8.0, 4.0), FracOrders(0.7, 0.7, 0.9, 0.9))
        for n in (0, -2):  # at n = -2 the rate-4 factor at 2 sums, the rate-8 one at 0 refuses
            with pytest.raises(SeriesNonConvergenceError) as info:
                fsrf3_pmf(model, 1.0, 1.0, n)
            assert str(info.value) == (
                f"fsrf3_pmf(n={n}) component pmf(n=0): wright(x=-8.0): cancellation noise "
                "exceeds 0.001; arguments are outside the double-precision-stable envelope")
        with pytest.raises(ValidationError) as info:
            fsrf3_pmf(model, -1.0, 1.0, 0)
        assert str(info.value) == "s/t: must be >= 0"

    def test_window_beyond_twelve(self):
        for n in (13, -13):
            p = fsrf3_pmf(self.MODEL, 1.0, 1.0, n)
            assert math.isfinite(p) and p >= 0.0
        total = sum(fsrf3_pmf(self.MODEL, 1.0, 1.0, n) for n in range(-30, 31))
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("model", [MODEL, SYMMETRIC], ids=["desk", "symmetric"])
    def test_matches_paper_double_series(self, model):
        for n in range(-5, 6):
            assert fsrf3_pmf(model, 1.0, 1.0, n) == pytest.approx(
                _paper_double_series(model, 1.0, 1.0, n), abs=1e-10)

    def test_against_extended_precision_oracle(self):
        # frozen values from a 110-digit mpmath run of the convolution; a
        # 140-digit rerun agrees to 60 digits, and the paper's double series
        # summed in mpmath agrees to 1e-13 or better
        model = FsrfModel("III", SkellamParams(2.0, 1.0), FracOrders(0.7, 0.7, 0.9, 0.9))
        oracle = {-2: 0.070212309131240129526187071334271408304760968358474,
                  0: 0.20831224218160021271527418579841012890242278940546,
                  2: 0.11395699440885067727079252218068927068866628142139}
        for n, value in oracle.items():
            assert fsrf3_pmf(model, 1.0, 1.0, n) == pytest.approx(value, abs=1e-6)

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
