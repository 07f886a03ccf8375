import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from skellam_fields import (
    CfGrid,
    GsrfParams,
    IntegralOrders,
    QuadratureError,
    RngStream,
    ValidationError,
    empirical_cf,
    gsrf_integral_sample,
    gsrf_log_cf,
    levy_integral_cf,
    prf_integral_cf,
    rl_integral_moments,
    rl_integral_sample,
    scaled_compound_sample,
)

GRID = CfGrid.default()
RIEMANN = IntegralOrders(1.0, 1.0)
# log-CF lam (e^{i xi} - 1) of the unit-box Poisson count at lam = 1
POISSON_LOG_CF = gsrf_log_cf(GsrfParams(((1.0, 1.0),)))


class TestTypes:
    def test_orders_validation(self):
        with pytest.raises(ValidationError):
            IntegralOrders(0.0, 1.0)
        with pytest.raises(ValidationError):
            IntegralOrders(1.0, -2.0)

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            CfGrid(())
        with pytest.raises(ValidationError):
            CfGrid((1.0, 2.0))
        assert 0.0 in CfGrid.default().xi_values


class TestRlIntegralSampler:
    def test_no_points_gives_zero(self):
        draws = rl_integral_sample(1e-9, RIEMANN, 1.0, 1.0, RngStream(41), size=200)
        assert np.all(draws == 0.0)

    def test_mean(self):
        draws = rl_integral_sample(1.0, RIEMANN, 1.0, 1.0, RngStream(42), size=50_000)
        mean, var = rl_integral_moments(1.0, RIEMANN, 1.0, 1.0)
        assert mean == 0.25
        assert abs(draws.mean() - mean) / math.sqrt(var / draws.size) < 4.0

    def test_variance_vs_mc(self):
        draws = rl_integral_sample(1.0, RIEMANN, 1.0, 1.0, RngStream(43), size=50_000)
        _, var = rl_integral_moments(1.0, RIEMANN, 1.0, 1.0)
        centered = draws - draws.mean()
        se = math.sqrt(((centered ** 4).mean() - draws.var() ** 2) / draws.size)
        assert abs(draws.var(ddof=1) - var) / se < 4.0

    def test_fractional_orders_mean(self):
        orders = IntegralOrders(0.5, 1.5)
        draws = rl_integral_sample(1.0, orders, 1.0, 1.0, RngStream(44), size=50_000)
        mean, var = rl_integral_moments(1.0, orders, 1.0, 1.0)
        assert abs(draws.mean() - mean) / math.sqrt(var / draws.size) < 4.0

    def test_pathwise_value_matches_mesh_quadrature(self):
        # fixed scatter: closed-form kernel sums vs a 512x512 Riemann mesh of
        # the step count surface
        pts = RngStream(40).generator.random((16, 2))
        s = t = 1.0
        exact = ((s - pts[:, 0]) * (t - pts[:, 1])).sum()
        mesh = 512
        xs = (np.arange(mesh) + 0.5) / mesh * s
        ys = (np.arange(mesh) + 0.5) / mesh * t
        counts = (pts[:, 0][:, None, None] <= xs[None, :, None]) \
            & (pts[:, 1][:, None, None] <= ys[None, None, :])
        riemann = counts.sum(axis=0).sum() * (s / mesh) * (t / mesh)
        assert riemann == pytest.approx(exact, rel=1e-3)


class TestMoments:
    def test_linearity_in_rate(self):
        m1, v1 = rl_integral_moments(1.0, RIEMANN, 1.0, 1.0)
        m2, v2 = rl_integral_moments(2.0, RIEMANN, 1.0, 1.0)
        assert m2 == pytest.approx(2.0 * m1)
        assert v2 == pytest.approx(2.0 * v1)

    def test_cf_derivatives_match_moments(self):
        # second-order stencils of the analytic CF at 0
        lam, s, t = 1.0, 1.0, 1.0
        mean, var = rl_integral_moments(lam, RIEMANN, s, t)
        h = 1e-3
        cf = lambda xi: prf_integral_cf(lam, s, t, xi)
        d1 = (cf(h) - cf(-h)) / (2.0 * h)
        assert d1.imag == pytest.approx(mean, rel=1e-4)
        d2 = (cf(h) - 2.0 + cf(-h)) / (h * h)
        second_moment = -d2.real
        assert second_moment - mean ** 2 == pytest.approx(var, rel=1e-4)


class TestCfIdentities:
    def test_cf_at_zero(self):
        assert prf_integral_cf(1.0, 1.0, 1.0, 0.0) == 1.0
        assert levy_integral_cf(POISSON_LOG_CF, 1.0, 1.0, 0.0) == 1.0

    def test_levy_specializes_to_poisson_field(self):
        for xi in GRID.xi_values:
            a = prf_integral_cf(1.0, 1.0, 1.0, xi)
            b = levy_integral_cf(POISSON_LOG_CF, 1.0, 1.0, xi)
            assert abs(a - b) < 1e-10

    def test_integral_sampler_matches_cf(self):
        draws = rl_integral_sample(1.0, RIEMANN, 1.0, 1.0, RngStream(45), size=30_000)
        emp = empirical_cf(draws, GRID)
        ana = np.array([prf_integral_cf(1.0, 1.0, 1.0, xi) for xi in GRID.xi_values])
        assert np.abs(emp - ana).max() < 0.03

    def test_gsrf_integral_cf(self):
        params = GsrfParams(((1.0, 2.0), (-1.0, 1.0)))
        draws = gsrf_integral_sample(params, 1.0, 1.0, RngStream(46), size=30_000)
        log_phi = gsrf_log_cf(params)
        emp = empirical_cf(draws, GRID)
        ana = np.array([levy_integral_cf(log_phi, 1.0, 1.0, xi) for xi in GRID.xi_values])
        assert np.abs(emp - ana).max() < 0.03

    def test_gsrf_integral_mean(self):
        params = GsrfParams(((1.0, 2.0), (-1.0, 1.0)))
        draws = gsrf_integral_sample(params, 1.0, 1.0, RngStream(47), size=50_000)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 0.25) / se < 4.0  # sum_j j lam_j / 4


class TestScaledCompound:
    def test_zero_counts(self):
        draws = scaled_compound_sample(1e-9, lambda g, n: np.ones(n), 1.0, 1.0,
                                       RngStream(48), size=100)
        assert np.all(draws == 0.0)

    def test_matches_integral_sampler_cf(self):
        ints = rl_integral_sample(1.0, RIEMANN, 1.0, 1.0, RngStream(49), size=30_000)
        comp = scaled_compound_sample(1.0, lambda g, n: np.ones(n), 1.0, 1.0,
                                      RngStream(50), size=30_000)
        da = empirical_cf(ints, GRID)
        db = empirical_cf(comp, GRID)
        assert np.abs(da - db).max() < 0.03

    def test_gsrf_jump_law_matches_levy_cf(self):
        params = GsrfParams(((1.0, 2.0), (-1.0, 1.0)))
        probs = params.rates / params.total_rate
        jumps = params.jump_values

        def jump_law(gen, n):
            return jumps[gen.choice(len(jumps), size=n, p=probs)]

        draws = scaled_compound_sample(params.total_rate, jump_law, 1.0, 1.0,
                                       RngStream(51), size=30_000)
        log_phi = gsrf_log_cf(params)
        emp = empirical_cf(draws, GRID)
        ana = np.array([levy_integral_cf(log_phi, 1.0, 1.0, xi) for xi in GRID.xi_values])
        assert np.abs(emp - ana).max() < 0.03

    def test_uniform_product_interpretation(self):
        # CF of X*U with U the coordinate product of a uniform unit-square
        # point equals the unit-square average of e^{i xi s t x y X}
        gen = RngStream(52).generator
        u = gen.random(100_000) * gen.random(100_000)
        xi, st_ = 1.3, 1.0
        emp = np.exp(1j * xi * st_ * u).mean()
        from skellam_fields.field_integrals import _unit_square_mean

        ana = _unit_square_mean(lambda g: np.exp(1j * xi * st_ * g), 64)
        assert abs(emp - ana) < 0.02

    def test_jump_law_shape_validated(self):
        with pytest.raises(ValidationError):
            scaled_compound_sample(5.0, lambda g, n: np.ones(n + 1), 1.0, 1.0,
                                   RngStream(53), size=10)


def _riemann_cf_oracle(lam, s, t, xi):
    """40-digit CF of the Riemann integral of a Poisson field: with a = xi s t,
    int_0^1 e^{i a u} (-ln u) du - 1 = Si(a)/a - 1 + i Cin(a)/a, where
    Cin(a) = gamma + ln|a| - Ci(|a|)."""
    with mpmath.workdps(40):
        a = mpmath.mpf(xi) * s * t
        inner = (mpmath.si(a) / a - 1
                 + 1j * (mpmath.euler + mpmath.log(abs(a)) - mpmath.ci(abs(a))) / a)
        return complex(mpmath.exp(lam * s * t * inner))


class TestLogWeightRule:
    """The Gauss rule for -ln u on (0, 1) behind every field-integral CF."""

    @pytest.mark.parametrize("nodes", [72, 144])
    def test_moments_are_exact(self, nodes):
        # int_0^1 u^k (-ln u) du = 1 / (k + 1)^2, exact for k < 2 nodes
        from skellam_fields.field_integrals import _log_weight_rule

        x, w = _log_weight_rule(nodes)
        for k in range(2 * nodes):
            assert np.dot(w, x ** k) * (k + 1) ** 2 == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("nodes", [72, 144])
    def test_positive_weights_interior_nodes(self, nodes):
        from skellam_fields.field_integrals import _log_weight_rule

        x, w = _log_weight_rule(nodes)
        assert x.shape == w.shape == (nodes,)
        assert np.all(w > 0.0)
        assert np.all((x > 0.0) & (x < 1.0))

    def test_prf_cf_against_sine_cosine_integral_oracle(self):
        for a in [*np.arange(-150.0, 150.5, 2.5), 1e-6, -1e-3, 0.37]:
            if a == 0.0:
                continue
            for lam, s, t in ((1.0, 1.0, 1.0), (0.3, 2.0, 0.5), (2.5, 0.4, 1.5)):
                xi = a / (s * t)
                assert abs(prf_integral_cf(lam, s, t, xi)
                           - _riemann_cf_oracle(lam, s, t, xi)) < 1e-12, (a, lam, s, t)

    def test_node_doubling_envelope(self):
        # |xi s t| <= 220 passes the 72-against-144 check; 199 passed the
        # earlier tensor rule too
        for a in (199.0, -199.0, 220.0):
            prf_integral_cf(1.0, 1.0, 1.0, a)
        levy_integral_cf(POISSON_LOG_CF, 2.0, 0.5, 199.0)
        for a in (221.0, -230.0, 500.0):
            with pytest.raises(QuadratureError, match="node doubling"):
                prf_integral_cf(1.0, 1.0, 1.0, a)
        with pytest.raises(QuadratureError, match="levy_integral_cf"):
            levy_integral_cf(POISSON_LOG_CF, 2.0, 0.5, 300.0)

    def test_no_rule_is_built_at_import(self):
        code = ("import skellam_fields\n"
                "from skellam_fields.field_integrals import _log_weight_rule\n"
                "print(_log_weight_rule.cache_info().currsize)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert proc.stdout.strip() == "0"
