"""Special functions behind the field pmfs: modified Bessel I, two- and
three-parameter Mittag-Leffler, and the generalized Wright function.

All evaluators sum their defining series under the shared stopping rule.
Per-term gamma products are built from log-gamma differences with a single
exponentiation, which keeps moderate-index terms away from overflow; all
in-scope gamma arguments are positive so no sign tracking is needed.
Arguments are clamped to declared safe ranges (|x| <= 50 for Bessel and
Mittag-Leffler, |x| <= 20 for Wright) instead of silently losing precision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Tuple

from .errors import (
    ArgumentRangeError,
    ConvergenceGuardError,
    GammaDomainError,
    GammaPoleError,
    SeriesNonConvergenceError,
    ValidationError,
)
from .series import SeriesSum, sum_series, sum_series_tracked

__all__ = [
    "log_gamma",
    "bessel_i",
    "mittag_leffler3",
    "mittag_leffler2",
    "WrightSpec",
    "wright_tracked",
    "BESSEL_ML_MAX_ARG",
    "WRIGHT_MAX_ARG",
]

BESSEL_ML_MAX_ARG = 50.0
WRIGHT_MAX_ARG = 20.0

_POLE_TOL = 1e-9


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if not x > 0.0:
        raise GammaDomainError(f"log_gamma: argument must be > 0, got {x}")
    return math.lgamma(x)


def _checked_lgamma(x: float, where: str) -> float:
    """lgamma with the pole/domain distinction used on summation paths."""
    if x > 0.0:
        return math.lgamma(x)
    if abs(x - round(x)) < _POLE_TOL:
        raise GammaPoleError(f"{where}: gamma argument {x} hits a nonpositive integer")
    raise GammaDomainError(f"{where}: gamma argument {x} is nonpositive")


_EPS = 2.220446049250313e-16


def _tracked_power_terms(log_coeffs, x: float) -> Iterator[tuple]:
    """Yield (exp(lg + n*log|x|) * sign(x)^n, term_noise) from (lg, mag) pairs.

    ``log_coeffs`` yields (lg, mag) with mag an upper bound on the summed
    magnitudes of the log-gamma values inside lg.  A term assembled as
    exp(sum of +-lgamma) carries relative rounding error of order mag * eps,
    which is what the noise component records.
    """
    if x == 0.0:
        for n, (lg, mag) in enumerate(log_coeffs):
            yield (math.exp(lg) if n == 0 else 0.0), 0.0
            if n == 0:
                return
        return
    lx = math.log(abs(x))
    neg = x < 0.0
    for n, (lg, mag) in enumerate(log_coeffs):
        le = lg + n * lx
        if le > 700.0:
            raise SeriesNonConvergenceError(
                f"series term magnitude e^{le:.0f} exceeds the double-precision range"
            )
        t = math.exp(le)
        noise = t * (mag + abs(n * lx) + 2.0) * _EPS
        yield (-t if neg and n % 2 else t), noise


def bessel_i(n: int, x: float) -> float:
    """Modified Bessel function I_n(x) of integer order by direct series.

    Uses I_{-n} = I_n and sums (x/2)^{2k+|n|} / (k! Gamma(|n|+k+1)).
    """
    if abs(x) > BESSEL_ML_MAX_ARG:
        raise ArgumentRangeError(f"bessel_i: |x| must be <= {BESSEL_ML_MAX_ARG}, got {x}")
    m = abs(int(n))
    if x == 0.0:
        return 1.0 if m == 0 else 0.0
    lh = math.log(abs(x) / 2.0)
    sign = -1.0 if (x < 0.0 and m % 2) else 1.0

    def terms():
        for k in itertools.count():
            lg = (2 * k + m) * lh - math.lgamma(k + 1) - math.lgamma(m + k + 1)
            yield math.exp(lg)  # uniform sign: no cancellation to track

    return sign * sum_series(terms(), label=f"bessel_i({n}, {x})")


def mittag_leffler3(alpha: float, beta: float, gamma: float, x: float) -> float:
    """Three-parameter Mittag-Leffler E^gamma_{alpha,beta}(x).

    Series sum of (gamma)_r x^r / (Gamma(alpha*r + beta) r!) with the rising
    factorial (gamma)_r.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValidationError(f"alpha: must be in (0, 1], got {alpha}")
    if not beta > 0.0:
        raise ValidationError(f"beta: must be > 0, got {beta}")
    if not gamma > 0.0:
        raise ValidationError(f"gamma: must be > 0, got {gamma}")
    if abs(x) > BESSEL_ML_MAX_ARG:
        raise ArgumentRangeError(
            f"mittag_leffler3: |x| must be <= {BESSEL_ML_MAX_ARG}, got {x}"
        )
    lg_gamma = math.lgamma(gamma)

    def log_coeffs():
        for r in itertools.count():
            parts = (math.lgamma(gamma + r), lg_gamma,
                     math.lgamma(alpha * r + beta), math.lgamma(r + 1))
            yield parts[0] - parts[1] - parts[2] - parts[3], sum(abs(p) for p in parts)

    label = f"mittag_leffler3({alpha}, {beta}, {gamma}, {x})"
    record = sum_series_tracked(_tracked_power_terms(log_coeffs(), x), label=label)
    # The alternating series for strongly negative x cancels catastrophically
    # at small alpha; refuse to return rounding noise.  The noise figure is a
    # conservative upper bound, typically a few orders above realized error.
    if record.noise > 1e-6 * max(1.0, abs(record.value)):
        raise SeriesNonConvergenceError(
            f"{label}: cancellation noise {record.noise:g} exceeds the accuracy budget", record)
    return record.value


def mittag_leffler2(alpha: float, x: float) -> float:
    """Classical Mittag-Leffler E_alpha(x) = E^1_{alpha,1}(x)."""
    return mittag_leffler3(alpha, 1.0, 1.0, x)


@dataclass(frozen=True)
class WrightSpec:
    """Parameter rows (a_i, alpha_i) over (b_j, beta_j) of a pPsi_q function."""

    upper: Tuple[Tuple[float, float], ...]
    lower: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple((float(a), float(al)) for a, al in self.upper))
        object.__setattr__(self, "lower", tuple((float(b), float(be)) for b, be in self.lower))
        for _, al in self.upper:
            if al == 0.0:
                raise ValidationError("upper: weights alpha_i must be nonzero")
        for _, be in self.lower:
            if be == 0.0:
                raise ValidationError("lower: weights beta_j must be nonzero")

    @property
    def convergence_margin(self) -> float:
        """sum(beta_j) - sum(alpha_i) + 1; positive suffices for an entire function."""
        return (sum(be for _, be in self.lower)
                - sum(al for _, al in self.upper) + 1.0)


def _wright_log_coeffs(spec: WrightSpec):
    for n in itertools.count():
        lg = -math.lgamma(n + 1)
        mag = abs(lg)
        for a, al in spec.upper:
            v = _checked_lgamma(a + n * al, "wright upper row")
            lg += v
            mag += abs(v)
        for b, be in spec.lower:
            v = _checked_lgamma(b + n * be, "wright lower row")
            lg -= v
            mag += abs(v)
        yield lg, mag


@lru_cache(maxsize=4096)
def wright_tracked(spec: WrightSpec, x: float) -> SeriesSum:
    """Generalized Wright function pPsi_q at real x, as the series core's record.

    Sums prod_i Gamma(a_i + n*alpha_i) x^n / (prod_j Gamma(b_j + n*beta_j) n!)
    under the stopping rule.  Requires the convergence margin
    sum(beta) - sum(alpha) + 1 >= 0; at margin 0 the series converges only
    inside the radius prod_i alpha_i^-alpha_i prod_j beta_j^beta_j, and the
    stopping rule and term cap refuse x outside it.  The pmf series that call
    this never place a gamma pole on the summation path.  Values are memoized
    per (spec, x) in a bounded process-wide cache; refusals are not cached.
    """
    if spec.convergence_margin < 0.0:
        raise ConvergenceGuardError(
            f"wright: convergence margin {spec.convergence_margin:g} is negative"
        )
    if abs(x) > WRIGHT_MAX_ARG:
        raise ArgumentRangeError(f"wright: |x| must be <= {WRIGHT_MAX_ARG}, got {x}")
    return sum_series_tracked(_tracked_power_terms(_wright_log_coeffs(spec), x),
                              label=f"wright(x={x})")
