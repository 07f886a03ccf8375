"""Fractional Poisson and fractional Skellam random fields on the plane.

Three fractional Skellam variants are covered: the doubly time-changed field
(kind I, Wright-series pmf), the singly time-changed field (kind II,
Mittag-Leffler-series pmf), and the difference of two independent fractional
Poisson fields with separate orders (kind III, double series with an inner
four-over-five Wright function).  Samplers draw the defining time changes
exactly through the inverse-subordinator identities; series evaluators and
closed-form moments provide the analytic side of every cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .errors import (
    ArgumentRangeError,
    ConvergenceGuardError,
    QuadratureError,
    SeriesNonConvergenceError,
    ValidationError,
)
from .rng import RngStream
from .sampling import (
    sample_inverse_subordinator,
    sample_inverse_subordinator_path,
    DEFAULT_PATH_STEP,
)
from .series import DEFAULT_CONTROL, SeriesControl, sum_series, sum_series_tracked
from .skellam_field import GridPoint, SkellamParams, srf_pde_residual
from .specfun import WrightSpec, mittag_leffler2, mittag_leffler3, wright_tracked

__all__ = [
    "FracOrders",
    "FsrfModel",
    "FSRF3_SUPPORT_CAP",
    "fprf_pmf",
    "fprf_moments",
    "fprf_sample",
    "fprf_sample_pair",
    "fsrf1_sample",
    "fsrf1_pmf",
    "fsrf1_moments",
    "fsrf1_pgf_pde_residual",
    "Fsrf1PgfCheck",
    "fsrf2_sample",
    "fsrf2_pmf",
    "fsrf2_pgf",
    "fsrf2_moments",
    "fsrf3_sample",
    "fsrf3_pmf",
    "fsrf3_moments",
    "singular_cov_integral",
    "singular_cov_integral_checked",
]

# Evaluating the kind-III double series costs a triple sum; beyond this the
# sampler is the reference.
FSRF3_SUPPORT_CAP = 12

# Node-doubling agreement demanded of the covariance quadrature.
_QUAD_STABILITY = 1e-9

# Cancellation budget of the Wright-backed pmf series, applied to a
# conservative upper-bound noise estimate (summed log-gamma magnitudes times
# machine epsilon per term).  The alternating inner sums cancel harder as the
# rate sum grows and the orders shrink; outside the stable envelope the
# estimate blows past any cap within a few outer terms and evaluation aborts
# instead of returning rounding garbage.  Desk-scale parameter sets stay
# below ~1e-4 on the estimate; realized absolute errors run one to two
# orders smaller (about 1e-6 at rate sum 1.5 and orders 0.7, checked against
# an extended-precision oracle in the test suite).
SERIES_NOISE_CAP = 1e-3

_lgamma = math.lgamma
_gamma = math.gamma


def _order_ok(x: float) -> bool:
    return 0.0 < x <= 1.0


@dataclass(frozen=True)
class FracOrders:
    """Fractional indices in (0, 1]; the primed pair exists only for kind III."""

    alpha: float
    beta: float = 1.0
    alpha2: float | None = None
    beta2: float | None = None

    def __post_init__(self):
        if not _order_ok(self.alpha):
            raise ValidationError("alpha: must be in (0, 1]")
        if not _order_ok(self.beta):
            raise ValidationError("beta: must be in (0, 1]")
        if (self.alpha2 is None) != (self.beta2 is None):
            raise ValidationError("alpha2/beta2: must be given together")
        if self.alpha2 is not None and not _order_ok(self.alpha2):
            raise ValidationError("alpha2: must be in (0, 1]")
        if self.beta2 is not None and not _order_ok(self.beta2):
            raise ValidationError("beta2: must be in (0, 1]")


@dataclass(frozen=True)
class FsrfModel:
    """A fractional Skellam field: kind, component rates, fractional orders."""

    kind: str  # "I", "II" or "III"
    params: SkellamParams
    orders: FracOrders

    def __post_init__(self):
        if self.kind not in ("I", "II", "III"):
            raise ValidationError("kind: must be one of 'I', 'II', 'III'")
        if self.kind == "III" and self.orders.alpha2 is None:
            raise ValidationError("orders: kind III requires alpha2 and beta2")


# ---------------------------------------------------------------------------
# Fractional Poisson random field


def fprf_pmf(lam: float, alpha: float, beta: float, s: float, t: float, n: int,
             ctrl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Point probability of the doubly time-changed Poisson field.

    Alternating series sum_{k>=n} (-1)^{k-n} k_(k-n) k_(n) x^k /
    (Gamma(k a + 1) Gamma(k b + 1)) with x = lam s^a t^b, written over
    m = k - n with falling factorials expanded through log-gamma.  The log of
    a term grows like k log k (1 - alpha - beta), so for x > 0 the series
    diverges when alpha + beta < 1.
    """
    if n < 0:
        raise ValidationError("n: must be >= 0")
    if not lam > 0.0:
        raise ValidationError("lam: must be > 0")
    if not (_order_ok(alpha) and _order_ok(beta)):
        raise ValidationError("alpha/beta: must be in (0, 1]")
    if s < 0.0 or t < 0.0:
        raise ValidationError("s/t: must be >= 0")
    x = lam * s ** alpha * t ** beta
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    if alpha + beta < 1.0:
        raise ConvergenceGuardError(
            f"fprf_pmf: alpha + beta = {alpha + beta:g} < 1, the series diverges"
        )
    lx = math.log(x)
    lg_n = _lgamma(n + 1)

    def terms():
        for m in range(ctrl.max_terms + 1):
            k = n + m
            lg = (2.0 * _lgamma(k + 1) - lg_n - _lgamma(m + 1) + k * lx
                  - _lgamma(k * alpha + 1.0) - _lgamma(k * beta + 1.0))
            if lg > 700.0:
                raise SeriesNonConvergenceError(
                    f"fprf_pmf(n={n}): series term magnitude e^{lg:.0f} exceeds "
                    "the double-precision range"
                )
            t_ = math.exp(lg)
            yield -t_ if m % 2 else t_

    return sum_series(terms(), ctrl, label=f"fprf_pmf(n={n})")


@lru_cache(maxsize=64)
def _jacobi_rule(nodes: int, alpha: float):
    x, w = roots_jacobi(nodes, 0.0, alpha - 1.0)
    return x, w


def _kernel_piece(sigma: float, c: float, alpha: float, nodes: int) -> float:
    """T(sigma) = int_0^c (sigma - x)^alpha x^(alpha-1) dx for sigma >= c.

    Gauss-Jacobi with weight x^(alpha-1) absorbs the left-endpoint
    singularity; the coincident case sigma = c is a Beta integral in closed
    form, which also keeps the right-endpoint cusp off the quadrature path.
    """
    if c == 0.0:
        return 0.0
    if sigma < c:
        raise ValidationError("sigma: must be >= the integration endpoint")
    if abs(sigma - c) <= 1e-14 * max(sigma, c):
        return c ** (2.0 * alpha) * _gamma(alpha) * _gamma(alpha + 1.0) / _gamma(2.0 * alpha + 1.0)
    xi, w = _jacobi_rule(nodes, alpha)
    x = c * (xi + 1.0) / 2.0
    return (c / 2.0) ** alpha * float(np.sum(w * (sigma - x) ** alpha))


def singular_cov_integral(s: float, sp: float, alpha: float, nodes: int = 64) -> float:
    """int_0^{s ^ sp} ((s-x)^alpha + (sp-x)^alpha) x^(alpha-1) dx."""
    c = min(s, sp)
    return _kernel_piece(s, c, alpha, nodes) + _kernel_piece(sp, c, alpha, nodes)


def singular_cov_integral_checked(s: float, sp: float, alpha: float):
    """Integral value plus its node-doubling relative change (64 vs 128 nodes)."""
    v64 = singular_cov_integral(s, sp, alpha, nodes=64)
    v128 = singular_cov_integral(s, sp, alpha, nodes=128)
    rel = abs(v128 - v64) / max(abs(v64), 1e-300)
    if rel >= _QUAD_STABILITY:
        raise QuadratureError(
            f"covariance quadrature unstable: node doubling moved the value by {rel:g}"
        )
    return v64, rel


def _fprf_mean(lam, alpha, beta, s, t):
    return lam * s ** alpha * t ** beta / (_gamma(alpha + 1.0) * _gamma(beta + 1.0))


def _fprf_var(lam, alpha, beta, s, t):
    m = _fprf_mean(lam, alpha, beta, s, t)
    q = lam * s ** alpha * t ** beta
    return (m + 4.0 * q * q / (_gamma(2.0 * alpha + 1.0) * _gamma(2.0 * beta + 1.0))
            - q * q / (_gamma(alpha + 1.0) ** 2 * _gamma(beta + 1.0) ** 2))


def _fprf_cov(lam, alpha, beta, p1: GridPoint, p2: GridPoint):
    s, t, sp, tp = p1.s, p1.t, p2.s, p2.t
    cs, ct = min(s, sp), min(t, tp)
    i_s = singular_cov_integral(s, sp, alpha)
    i_t = singular_cov_integral(t, tp, beta)
    ga1, gb1 = _gamma(alpha + 1.0), _gamma(beta + 1.0)
    return (lam * cs ** alpha * ct ** beta / (ga1 * gb1)
            - lam * lam * (s * sp) ** alpha * (t * tp) ** beta / (ga1 ** 2 * gb1 ** 2)
            + (lam / (alpha * _gamma(alpha) ** 2)) * i_s
            * (lam / (beta * _gamma(beta) ** 2)) * i_t)


def fprf_moments(lam: float, alpha: float, beta: float,
                 p1: GridPoint, p2: GridPoint):
    """Closed-form (mean, var) at p1 and covariance of the pair."""
    if not lam > 0.0:
        raise ValidationError("lam: must be > 0")
    if not (_order_ok(alpha) and _order_ok(beta)):
        raise ValidationError("alpha/beta: must be in (0, 1]")
    return (_fprf_mean(lam, alpha, beta, p1.s, p1.t),
            _fprf_var(lam, alpha, beta, p1.s, p1.t),
            _fprf_cov(lam, alpha, beta, p1, p2))


def fprf_sample(lam: float, alpha: float, beta: float, s: float, t: float,
                rng: RngStream, size: int | None = None):
    """Draw the field by time-changing both axes and counting."""
    gen = rng.generator
    e1 = sample_inverse_subordinator(alpha, s, rng, size=size)
    e2 = sample_inverse_subordinator(beta, t, rng, size=size)
    out = gen.poisson(lam * np.asarray(e1) * np.asarray(e2), size=size)
    return int(out) if size is None else out


def fprf_sample_pair(lam: float, alpha: float, beta: float,
                     p1: GridPoint, p2: GridPoint, rng: RngStream,
                     size: int, step: float = DEFAULT_PATH_STEP) -> np.ndarray:
    """Joint draws of the field at two ordered grid points.

    Requires p1 <= p2 coordinatewise.  Time changes are drawn jointly along
    each axis; the second count is the first plus an independent Poisson
    increment over the L-shaped region between the two random rectangles.
    Returns an array of shape (size, 2).
    """
    if p2.s < p1.s or p2.t < p1.t:
        raise ValidationError("p1/p2: joint sampling requires p1 <= p2 coordinatewise")
    gen = rng.generator

    def axis_pair(order, t1, t2):
        if t1 == t2:
            e = sample_inverse_subordinator(order, t1, rng, size=size)
            return np.asarray(e), np.asarray(e)
        vals = sample_inverse_subordinator_path(order, [t1, t2], step, rng, size=size)
        return vals[:, 0], vals[:, 1]

    a1, a2 = axis_pair(alpha, p1.s, p2.s)
    b1, b2 = axis_pair(beta, p1.t, p2.t)
    n1 = gen.poisson(lam * a1 * b1)
    inc = gen.poisson(lam * np.maximum(a2 * b2 - a1 * b1, 0.0))
    return np.column_stack([n1, n1 + inc])


# ---------------------------------------------------------------------------
# Fractional Skellam random field of type one


def _require_kind(model: FsrfModel, kind: str):
    if model.kind != kind:
        raise ValidationError(f"kind: expected a kind-{kind} model, got kind {model.kind}")


def fsrf1_sample(model: FsrfModel, s: float, t: float, rng: RngStream,
                 size: int | None = None):
    """Skellam field evaluated at one inverse-subordinator draw per axis."""
    _require_kind(model, "I")
    gen = rng.generator
    e1 = np.asarray(sample_inverse_subordinator(model.orders.alpha, s, rng, size=size))
    e2 = np.asarray(sample_inverse_subordinator(model.orders.beta, t, rng, size=size))
    area = e1 * e2
    out = gen.poisson(model.params.lambda1 * area, size=size) \
        - gen.poisson(model.params.lambda2 * area, size=size)
    return int(out) if size is None else out


def fsrf1_pmf(model: FsrfModel, s: float, t: float, n: int,
              ctrl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Wright-series point probability of the doubly time-changed field."""
    _require_kind(model, "I")
    if s < 0.0 or t < 0.0:
        raise ValidationError("s/t: must be >= 0")
    l1, l2 = model.params.lambda1, model.params.lambda2
    alpha, beta = model.orders.alpha, model.orders.beta
    q = s ** alpha * t ** beta
    if q == 0.0:
        return 1.0 if n == 0 else 0.0
    m0 = abs(n)
    y = math.sqrt(l1 * l2) * q
    x = -(l1 + l2) * q
    ly = math.log(y)
    # fold (l1/l2)^{n/2} into the term logs so the noise cap gates the value
    # actually returned
    lpref = 0.5 * n * math.log(l1 / l2)

    def terms():
        for k in range(ctrl.max_terms + 1):
            m = m0 + 2 * k
            spec = WrightSpec(
                upper=((m + 1.0, 1.0), (m + 1.0, 1.0)),
                lower=((m * alpha + 1.0, alpha), (m * beta + 1.0, beta)),
            )
            coef = math.exp(lpref + m * ly - _lgamma(m0 + k + 1) - _lgamma(k + 1))
            w, w_noise = wright_tracked(spec, x, ctrl)
            yield coef * w, coef * w_noise

    value, _ = sum_series_tracked(terms(), ctrl, label=f"fsrf1_pmf(n={n})",
                                  noise_cap=SERIES_NOISE_CAP)
    return value


def fsrf1_moments(model: FsrfModel, p1: GridPoint, p2: GridPoint):
    """Closed-form (mean, var) at p1 and covariance; covariance needs p1 <= p2."""
    _require_kind(model, "I")
    l1, l2 = model.params.lambda1, model.params.lambda2
    alpha, beta = model.orders.alpha, model.orders.beta
    s, t = p1.s, p1.t
    ga1, gb1 = _gamma(alpha + 1.0), _gamma(beta + 1.0)
    q = s ** alpha * t ** beta
    mean = (l1 - l2) * q / (ga1 * gb1)
    var = ((l1 + l2) * q / (ga1 * gb1)
           + 4.0 * (l1 - l2) ** 2 * q * q / (_gamma(2.0 * alpha + 1.0) * _gamma(2.0 * beta + 1.0))
           - (l1 - l2) ** 2 * q * q / (ga1 ** 2 * gb1 ** 2))
    if p2.s < p1.s or p2.t < p1.t:
        raise ValidationError("p1/p2: covariance requires p1 <= p2 coordinatewise")
    i_s = singular_cov_integral(s, p2.s, alpha)
    i_t = singular_cov_integral(t, p2.t, beta)
    cov = ((l1 - l2) ** 2 * (i_s / (ga1 * _gamma(alpha)) * i_t / (gb1 * _gamma(beta))
                             - (s * p2.s) ** alpha * (t * p2.t) ** beta / (ga1 ** 2 * gb1 ** 2))
           + (l1 + l2) * q / (ga1 * gb1))
    return mean, var, cov


@dataclass(frozen=True)
class Fsrf1PgfCheck:
    """Residuals backing the pgf governing equation of the kind-I field.

    residual_pgf / residual_pmf come from the order-(1,1) specialization,
    where the equation reduces to the classical mixed-derivative form.  At
    fractional orders the pgf series is instead checked against a Monte Carlo
    average of the classical pgf over the simulated time change.
    """

    residual_pgf: float
    residual_pmf: float
    series_pgf: float
    mc_pgf: float
    mc_z: float


def fsrf1_pgf_pde_residual(model: FsrfModel, u: float, s: float, t: float,
                           h: float, rng: RngStream | None = None,
                           replicates: int = 20000, window: int = 12,
                           ctrl: SeriesControl = DEFAULT_CONTROL) -> Fsrf1PgfCheck:
    _require_kind(model, "I")
    res_pgf, res_pmf = srf_pde_residual(model.params, u, s, t, h)
    if u <= 0.0:
        raise ValidationError("u: must be > 0")
    series = sum(fsrf1_pmf(model, s, t, n, ctrl) * u ** n
                 for n in range(-window, window + 1))
    if rng is None:
        rng = RngStream(0)
    e1 = np.asarray(sample_inverse_subordinator(model.orders.alpha, s, rng, size=replicates))
    e2 = np.asarray(sample_inverse_subordinator(model.orders.beta, t, rng, size=replicates))
    area = e1 * e2
    l1, l2 = model.params.lambda1, model.params.lambda2
    g = np.exp(l1 * area * (u - 1.0) + l2 * area * (1.0 / u - 1.0))
    mc = float(g.mean())
    se = float(g.std(ddof=1)) / math.sqrt(replicates)
    z = abs(series - mc) / se if se > 0.0 else 0.0
    return Fsrf1PgfCheck(res_pgf, res_pmf, series, mc, z)


# ---------------------------------------------------------------------------
# Fractional Skellam random field of type two


def fsrf2_sample(model: FsrfModel, s: float, t: float, rng: RngStream,
                 size: int | None = None):
    """Skellam field with the first axis time-changed."""
    _require_kind(model, "II")
    gen = rng.generator
    e = np.asarray(sample_inverse_subordinator(model.orders.alpha, s, rng, size=size))
    area = e * t
    out = gen.poisson(model.params.lambda1 * area, size=size) \
        - gen.poisson(model.params.lambda2 * area, size=size)
    return int(out) if size is None else out


def fsrf2_pmf(model: FsrfModel, s: float, t: float, n: int,
              ctrl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Mittag-Leffler-series point probability of the singly time-changed field."""
    _require_kind(model, "II")
    if s < 0.0 or t < 0.0:
        raise ValidationError("s/t: must be >= 0")
    l1, l2 = model.params.lambda1, model.params.lambda2
    alpha = model.orders.alpha
    q = s ** alpha * t
    if q == 0.0:
        return 1.0 if n == 0 else 0.0
    m0 = abs(n)
    y = math.sqrt(l1 * l2) * q
    x = -(l1 + l2) * q
    ly = math.log(y)

    def terms():
        for k in range(ctrl.max_terms + 1):
            m = m0 + 2 * k
            coef = math.exp(_lgamma(m + 1) - _lgamma(m0 + k + 1) - _lgamma(k + 1) + m * ly)
            # Second parameter alpha*m + 1: forced by the Laplace pair that
            # inverts the s-domain transform; without the +1 the table does
            # not normalize (the test suite ships the quadrature oracle).
            yield coef * mittag_leffler3(alpha, alpha * m + 1.0, m + 1.0, x, ctrl)

    return (l1 / l2) ** (n / 2.0) * sum_series(terms(), ctrl, label=f"fsrf2_pmf(n={n})")


def fsrf2_pgf(model: FsrfModel, u: float, s: float, t: float,
              ctrl: SeriesControl = DEFAULT_CONTROL) -> float:
    """pgf E_alpha(l1 s^a t (u-1) + l2 s^a t (1/u - 1))."""
    _require_kind(model, "II")
    if u <= 0.0:
        raise ValidationError("u: must be > 0")
    l1, l2 = model.params.lambda1, model.params.lambda2
    q = s ** model.orders.alpha * t
    return mittag_leffler2(model.orders.alpha,
                           l1 * q * (u - 1.0) + l2 * q * (1.0 / u - 1.0), ctrl)


def fsrf2_moments(model: FsrfModel, s: float, t: float):
    """Closed-form (mean, var) of the singly time-changed field."""
    _require_kind(model, "II")
    l1, l2 = model.params.lambda1, model.params.lambda2
    alpha = model.orders.alpha
    ga1 = _gamma(alpha + 1.0)
    mean = (l1 - l2) * s ** alpha * t / ga1
    var = ((l1 + l2) * s ** alpha * t / ga1
           + (l1 - l2) ** 2 * s ** (2.0 * alpha) * t * t
           * (2.0 / _gamma(2.0 * alpha + 1.0) - 1.0 / ga1 ** 2))
    return mean, var


# ---------------------------------------------------------------------------
# Fractional Skellam random field of the third type


def fsrf3_sample(model: FsrfModel, s: float, t: float, rng: RngStream,
                 size: int | None = None):
    """Difference of two independent doubly time-changed Poisson fields."""
    _require_kind(model, "III")
    o = model.orders
    n1 = fprf_sample(model.params.lambda1, o.alpha, o.beta, s, t, rng, size=size)
    n2 = fprf_sample(model.params.lambda2, o.alpha2, o.beta2, s, t, rng, size=size)
    out = np.asarray(n1) - np.asarray(n2)
    return int(out) if size is None else out


def fsrf3_pmf(model: FsrfModel, s: float, t: float, n: int,
              ctrl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Double-series point probability with an inner 4Psi5 Wright function.

    The branch for negative n swaps the two component fields, so the
    symmetric case (equal rates and orders) is even in n by construction.
    """
    _require_kind(model, "III")
    if abs(n) > FSRF3_SUPPORT_CAP:
        raise ArgumentRangeError(
            f"n: series evaluation is capped at |n| <= {FSRF3_SUPPORT_CAP}; "
            "use the sampler beyond that")
    if s < 0.0 or t < 0.0:
        raise ValidationError("s/t: must be >= 0")
    l1, l2 = model.params.lambda1, model.params.lambda2
    o = model.orders
    if n >= 0:
        la, aa, ba = l1, o.alpha, o.beta
        lb, ab, bb = l2, o.alpha2, o.beta2
    else:
        la, aa, ba = l2, o.alpha2, o.beta2
        lb, ab, bb = l1, o.alpha, o.beta
    m = abs(n)
    ya = la * s ** aa * t ** ba
    yb = lb * s ** ab * t ** bb
    if ya == 0.0 or yb == 0.0:
        return 1.0 if n == 0 else 0.0
    x = l1 * l2 * s ** (o.alpha + o.alpha2) * t ** (o.beta + o.beta2)
    lya, lyb = math.log(ya), math.log(yb)

    def row(r):
        def terms():
            for l in range(ctrl.max_terms + 1):
                spec = WrightSpec(
                    upper=((r + m + 1.0, 1.0), (r + m + 1.0, 1.0),
                           (l + 1.0, 1.0), (l + 1.0, 1.0)),
                    lower=((m + 1.0, 1.0),
                           ((r + m) * aa + 1.0, aa), ((r + m) * ba + 1.0, ba),
                           (l * ab + 1.0, ab), (l * bb + 1.0, bb)),
                )
                coef = math.exp((r + m) * lya + l * lyb - _lgamma(r + 1) - _lgamma(l + 1))
                w, w_noise = wright_tracked(spec, x, ctrl)
                signed = -coef * w if (r + l) % 2 else coef * w
                yield signed, coef * w_noise

        return sum_series_tracked(terms(), ctrl, label=f"fsrf3_pmf(n={n}) row r={r}")

    def rows():
        for r in range(ctrl.max_terms + 1):
            yield row(r)

    value, _ = sum_series_tracked(rows(), ctrl, label=f"fsrf3_pmf(n={n})",
                                  noise_cap=SERIES_NOISE_CAP)
    return value


def fsrf3_moments(model: FsrfModel, p1: GridPoint, p2: GridPoint):
    """Component-wise sums and differences of the two fractional Poisson fields."""
    _require_kind(model, "III")
    l1, l2 = model.params.lambda1, model.params.lambda2
    o = model.orders
    m1, v1, c1 = fprf_moments(l1, o.alpha, o.beta, p1, p2)
    m2, v2, c2 = fprf_moments(l2, o.alpha2, o.beta2, p1, p2)
    return m1 - m2, v1 + v2, c1 + c2
