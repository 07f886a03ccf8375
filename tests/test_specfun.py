import itertools
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from skellam_fields import (
    ArgumentRangeError,
    ConvergenceGuardError,
    GammaDomainError,
    GammaPoleError,
    SeriesNonConvergenceError,
    ValidationError,
    WrightSpec,
    bessel_i,
    log_gamma,
    mittag_leffler2,
    mittag_leffler3,
)
from skellam_fields.series import MAX_TERMS, sum_series, sum_series_tracked
from skellam_fields.specfun import wright_tracked


def bessel_series_oracle(n, x, terms=200, dps=50):
    """Independent extended-precision summation of the defining series."""
    with mpmath.workdps(dps):
        half = mpmath.mpf(x) / 2
        total = mpmath.mpf(0)
        for k in range(terms):
            total += half ** (2 * k + abs(n)) / (mpmath.factorial(k) * mpmath.gamma(abs(n) + k + 1))
        return float(total)


class TestBesselI:
    def test_at_zero(self):
        assert bessel_i(0, 0.0) == 1.0
        assert bessel_i(3, 0.0) == 0.0

    def test_integer_order_symmetry_example(self):
        assert bessel_i(-3, 1.7) == bessel_i(3, 1.7)

    def test_against_extended_precision_oracle(self):
        assert bessel_i(0, 2.0) == pytest.approx(bessel_series_oracle(0, 2.0), rel=1e-14)
        assert bessel_i(5, 7.5) == pytest.approx(bessel_series_oracle(5, 7.5), rel=1e-13)

    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0])
    def test_symmetry_grid(self, x):
        for n in range(-10, 11):
            assert bessel_i(n, x) == bessel_i(-n, x)

    def test_range_guard(self):
        with pytest.raises(ArgumentRangeError):
            bessel_i(0, 51.0)

    def test_negative_argument_parity(self):
        assert bessel_i(2, -1.3) == pytest.approx(bessel_i(2, 1.3), rel=1e-15)
        assert bessel_i(3, -1.3) == pytest.approx(-bessel_i(3, 1.3), rel=1e-15)


class TestMittagLeffler:
    def test_exponential_point(self):
        assert mittag_leffler3(1.0, 1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-14)

    def test_single_term_at_zero(self):
        assert mittag_leffler3(0.7, 2.0, 3.0, 0.0) == pytest.approx(1.0 / math.gamma(2.0), abs=0)

    def test_half_order_erfc_identity(self):
        # E_{1/2,1}(-1) = e * erfc(1), with erfc(1) by independent quadrature
        tail, err = quad(lambda t: math.exp(-t * t), 1.0, math.inf, epsabs=1e-14)
        target = math.e * 2.0 / math.sqrt(math.pi) * tail
        assert err < 1e-9  # quad's error estimate is conservative
        assert mittag_leffler3(0.5, 1.0, 1.0, -1.0) == pytest.approx(target, abs=1e-11)
        assert target == pytest.approx(math.e * math.erfc(1.0), abs=1e-13)

    def test_exponential_reduction_band(self):
        for x in [-3.0, -1.5, -0.2, 0.4, 1.1, 3.0]:
            assert abs(mittag_leffler3(1.0, 1.0, 1.0, x) - math.exp(x)) < 1e-12

    @pytest.mark.parametrize("alpha", [0.3, 0.55, 0.8, 1.0])
    def test_value_one_at_zero(self, alpha):
        assert mittag_leffler2(alpha, 0.0) == 1.0

    def test_two_parameter_is_three_parameter_special_case(self):
        assert mittag_leffler2(0.6, -2.0) == pytest.approx(
            mittag_leffler3(0.6, 1.0, 1.0, -2.0), abs=1e-14)

    @pytest.mark.parametrize("alpha", [0.5, 0.7, 0.9, 1.0])
    @pytest.mark.parametrize("x", [-4.0, -1.0, -0.1])
    def test_complete_monotonicity_bound(self, alpha, x):
        v = mittag_leffler2(alpha, x)
        assert 0.0 < v <= 1.0

    def test_cancellation_guard(self):
        # far-negative argument at small order is outside the stable envelope
        with pytest.raises(SeriesNonConvergenceError):
            mittag_leffler2(0.3, -8.0)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            mittag_leffler3(1.2, 1.0, 1.0, 0.5)
        with pytest.raises(ValidationError):
            mittag_leffler3(0.5, -1.0, 1.0, 0.5)
        with pytest.raises(ArgumentRangeError):
            mittag_leffler2(0.9, -60.0)

    def test_pure_function_determinism(self):
        a = mittag_leffler3(0.7, 1.4, 2.0, -1.1)
        b = mittag_leffler3(0.7, 1.4, 2.0, -1.1)
        assert a == b


def wright_series_oracle(spec, x, terms, dps=60):
    """Direct extended-precision summation with a fixed (large) term count."""
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for n in range(terms):
            num = mpmath.mpf(1)
            for a, al in spec.upper:
                num *= mpmath.gamma(a + n * al)
            den = mpmath.factorial(n)
            for b, be in spec.lower:
                den *= mpmath.gamma(b + n * be)
            total += num * mpmath.mpf(x) ** n / den
        return float(total)


class TestWright:
    def test_termwise_cancellation_is_exponential(self):
        spec = WrightSpec(((1.0, 1.0), (1.0, 1.0)), ((1.0, 1.0), (1.0, 1.0)))
        assert wright_tracked(spec, -1.3)[0] == pytest.approx(math.exp(-1.3), abs=1e-12)
        for x in [-1.0, 0.3, 1.3]:
            assert abs(wright_tracked(spec, x)[0] - math.exp(x)) < 1e-12

    def test_value_at_zero(self):
        spec = WrightSpec(((2.0, 1.0), (1.5, 0.5)), ((1.0, 0.7), (2.5, 0.3), (1.0, 1.0)))
        expected = (math.gamma(2.0) * math.gamma(1.5)
                    / (math.gamma(1.0) * math.gamma(2.5) * math.gamma(1.0)))
        assert wright_tracked(spec, 0.0)[0] == pytest.approx(expected, rel=1e-15)

    def test_against_high_precision_oracle(self):
        # parameter rows of the doubly time-changed pmf at m = 0, orders 0.7
        spec = WrightSpec(((1.0, 1.0), (1.0, 1.0)), ((1.0, 0.7), (1.0, 0.7)))
        oracle = wright_series_oracle(spec, -1.5, terms=2000)
        assert wright_tracked(spec, -1.5)[0] == pytest.approx(oracle, rel=1e-12)

    def test_pole_error(self):
        # argument decreases along the path and lands exactly on 0 at n = 2
        spec = WrightSpec(((0.5, -0.25),), ((1.0, 1.0), (1.0, 1.0)))
        with pytest.raises(GammaPoleError):
            wright_tracked(spec, 0.5)

    def test_domain_error_for_nonpositive_gamma_argument(self):
        spec = WrightSpec(((-0.4, 0.03),), ((1.0, 1.0), (1.0, 1.0)))
        with pytest.raises((GammaDomainError, GammaPoleError)):
            wright_tracked(spec, 0.5)

    def test_convergence_guard(self):
        spec = WrightSpec(((1.0, 1.0), (1.0, 1.0)), ((1.0, 0.4), (1.0, 0.4)))
        with pytest.raises(ConvergenceGuardError):
            wright_tracked(spec, 0.5)

    def test_range_guard(self):
        spec = WrightSpec(((1.0, 1.0),), ((1.0, 1.0), (1.0, 1.0)))
        with pytest.raises(ArgumentRangeError):
            wright_tracked(spec, 25.0)

    def test_margin_zero_converges_inside_radius(self):
        # margin 0: sum n! x^n / Gamma(1 + n/2)^2 has radius 0.5^0.5 0.5^0.5 = 0.5
        spec = WrightSpec(((1.0, 1.0), (1.0, 1.0)), ((1.0, 0.5), (1.0, 0.5)))
        assert spec.convergence_margin == 0.0
        with mpmath.workdps(30):
            oracle = float(mpmath.nsum(
                lambda n: mpmath.factorial(n) * mpmath.mpf(-0.2) ** n
                / mpmath.gamma(1 + n / 2) ** 2, [0, mpmath.inf]))
        assert wright_tracked(spec, -0.2)[0] == pytest.approx(oracle, rel=1e-13)
        for x in (-0.8, 0.8):
            with pytest.raises(SeriesNonConvergenceError):
                wright_tracked(spec, x)

    def test_refusal_is_not_cached(self):
        # margin 0 outside the radius 0.5: a refusal is raised again, not cached
        spec = WrightSpec(((1.0, 1.0), (1.0, 1.0)), ((1.0, 0.5), (1.0, 0.5)))
        for _ in range(2):
            with pytest.raises(SeriesNonConvergenceError, match="no convergence"):
                wright_tracked(spec, 0.8)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValidationError):
            WrightSpec(((1.0, 0.0),), ((1.0, 1.0),))


class TestLogGamma:
    def test_unit_values(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0

    def test_half_by_reflection_recurrence(self):
        # Gamma(0.5) = Gamma(1.5)/0.5 with Gamma(1.5) = sqrt(pi)/2
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-15)

    def test_relative_accuracy_band(self):
        with mpmath.workdps(40):
            for x in [1e-3, 0.02, 0.5, 1.5, 12.0, 340.5, 1e4]:
                exact = float(mpmath.loggamma(x))
                if exact == 0.0:
                    assert abs(log_gamma(x)) < 1e-13
                else:
                    assert log_gamma(x) == pytest.approx(exact, rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(GammaDomainError):
            log_gamma(0.0)
        with pytest.raises(GammaDomainError):
            log_gamma(-1.5)


class TestSeriesControl:
    """The stopping rule of the series core."""

    def test_non_convergence_flag(self):
        with pytest.raises(SeriesNonConvergenceError, match="no convergence within 500 terms"):
            sum_series(itertools.repeat(1.0))

    def test_record_of_a_sum_stopped_by_small_terms(self):
        # 2^-49, 2^-50 and 2^-51 are the first three terms below 1e-15 of 2
        record = sum_series_tracked((0.5 ** k, 0.0) for k in itertools.count())
        assert record.value == pytest.approx(2.0, rel=1e-15)
        assert record.stop == "small" and record.terms == 52
        assert record.noise == pytest.approx(2.220446049250313e-16)
        with pytest.raises(AttributeError):
            record.value = 0.0
        assert record[:2] == (record.value, record.noise)

    def test_record_of_a_finite_sum(self):
        record = sum_series_tracked([(1.0, 1e-9), (2.0, 0.0)])
        assert record == (3.0, 1e-9 + 2.0 * 2.220446049250313e-16, 2, "finite")

    def test_term_cap_refusal_carries_its_record(self):
        with pytest.raises(SeriesNonConvergenceError, match="no convergence") as info:
            sum_series_tracked(itertools.repeat((1.0, 0.0)))
        record = info.value.record
        assert record.terms == MAX_TERMS and record.stop == "term cap"
        assert record.value == MAX_TERMS

    def test_noise_cap_refusal_carries_its_record(self):
        with pytest.raises(SeriesNonConvergenceError,
                           match="^s: cancellation noise exceeds 0.0025; ") as info:
            sum_series_tracked(itertools.repeat((1.0, 1e-3)), "s", noise_cap=2.5e-3)
        record = info.value.record
        assert record.stop == "noise cap" and record.terms == 3
        assert record.noise > 2.5e-3 and record.value == 2.0

    def test_iterator_refusal_carries_the_record_before_it(self):
        def terms():
            yield 1.0, 0.5
            yield 2.0, 0.0
            raise SeriesNonConvergenceError("inner")

        with pytest.raises(SeriesNonConvergenceError, match="^inner$") as info:
            sum_series_tracked(terms(), noise_cap=1.0)
        assert info.value.record == (3.0, 0.5 + 2.0 * 2.220446049250313e-16, 2, "term error")
        # the term-range guard of the power-series terms: the term after 418
        # passes e^700
        spec = WrightSpec(((1.0, 1.0), (1.0, 1.0)), ((1.0, 0.5), (1.0, 0.52)))
        with pytest.raises(SeriesNonConvergenceError, match=r"term magnitude e\^701") as info:
            wright_tracked(spec, -3.0)
        assert info.value.record.stop == "term error" and info.value.record.terms == 418
        assert info.value.record.noise > 1e-3

    @given(st.integers(min_value=-8, max_value=8),
           st.floats(min_value=0.01, max_value=10.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_bessel_symmetry_property(self, n, x):
        assert bessel_i(n, x) == bessel_i(-n, x)
