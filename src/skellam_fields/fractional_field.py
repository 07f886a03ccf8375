"""Fractional Poisson and fractional Skellam random fields on the plane.

Every field here is a Skellam field with rates (l1, l2) evaluated at the
inverse-subordinator time changes N(E1(s), E2(t)), and one core serves them
all: a Wright-series pmf, a sampler, and closed-form mean, variance and
covariance.  The fractional Poisson field (FPRF) is the doubly time-changed
field at l2 = 0, whose pmf is the k = 0 term of the kind-I series.  Three
fractional Skellam variants are covered: the doubly time-changed field
(kind I), the singly time-changed field (kind II, which is kind I at
beta = 1), and the difference of two independent fractional Poisson fields
with separate orders (kind III, pmf as the convolution of the two FPRF pmfs,
with no support cap; it raises ConvergenceGuardError when a component has
alpha + beta < 1).  Every pmf series sums under SERIES_NOISE_CAP.  Samplers draw
the defining time changes exactly through the inverse-subordinator
identities; series evaluators and closed-form moments provide the analytic
side of every cross-check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentRangeError,
    ConvergenceGuardError,
    SkellamFieldsError,
    ValidationError,
    moments_in_range,
)
from .rng import RngStream
from .sampling import (
    _poisson,
    sample_inverse_subordinator,
    sample_inverse_subordinator_path,
    DEFAULT_PATH_STEP,
)
# sum_series and mittag_leffler3 are unused here: the benchmark tracer patches them.
from .series import sum_series, sum_series_tracked
from .skellam_field import GridPoint, SkellamParams, srf_pde_residual
from .specfun import WrightSpec, mittag_leffler2, mittag_leffler3, wright_tracked

__all__ = [
    "FracOrders",
    "FsrfModel",
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
]

# Cancellation budget of the fractional pmf series, applied to a
# conservative upper-bound noise estimate (summed log-gamma magnitudes times
# machine epsilon per term).  The alternating sums cancel harder as the
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
        if self.kind != "III" and self.orders.alpha2 is not None:
            raise ValidationError(f"orders: kind {self.kind} takes no alpha2/beta2")
        if self.kind == "II" and self.orders.beta != 1.0:
            raise ValidationError("beta: kind II time-changes only the first axis; beta must be 1")


# ---------------------------------------------------------------------------
# The time-changed Skellam field N(E1(s), E2(t)): the core of every model


def _time_changed_pmf(l1: float, l2: float, alpha: float, beta: float, s: float, t: float,
                      n: int, label: str, noise_cap: float | None = SERIES_NOISE_CAP) -> tuple:
    """Wright-series point probability of N(E1(s), E2(t)) for a Skellam field
    with rates (l1, l2), returned as (value, noise) and summed under noise_cap.

    With q = s^alpha t^beta, the k-th term is (l_a q)^(|n|+k) (l_b q)^k /
    ((|n|+k)! k!) times a Wright value at -(l1 + l2) q, where (l_a, l_b) is
    (l1, l2) for n >= 0 and (l2, l1) for n < 0.  With l_b q = 0 (a Poisson
    field, or a mean that underflows) only k = 0 is summed, and with l_a q = 0
    only n = 0 has mass.  An order-1 axis contributes no row pair: its
    Gamma(m + 1 + r) rows above and below cancel exactly.  A refusal of the
    Wright evaluator is re-raised with label and n in front.
    """
    if not (s >= 0.0 and t >= 0.0):
        raise ValidationError("s/t: must be >= 0")
    q = s ** alpha * t ** beta
    if q == 0.0:
        return (1.0 if n == 0 else 0.0), 0.0
    m0 = abs(n)
    ya, yb = (l1 * q, l2 * q) if n >= 0 else (l2 * q, l1 * q)
    if ya == 0.0 and m0 > 0:
        return 0.0, 0.0
    lqa = math.log(ya) if ya > 0.0 else 0.0
    lqb = math.log(yb) if yb > 0.0 else 0.0
    x = -(l1 + l2) * q
    orders = tuple(o for o in (alpha, beta) if o < 1.0)
    where = f"{label}(n={n})"

    def terms():
        for k in (itertools.count() if ya > 0.0 and yb > 0.0 else range(1)):
            m = m0 + 2 * k
            spec = WrightSpec(upper=((m + 1.0, 1.0),) * len(orders),
                              lower=tuple((m * o + 1.0, o) for o in orders))
            # The Wright range check comes first: inside it the coefficient
            # cannot overflow.
            try:
                w, w_noise = wright_tracked(spec, x)
            except SkellamFieldsError as e:
                raise type(e)(f"{where}: {e}") from e
            coef = math.exp((m0 + k) * lqa + k * lqb - _lgamma(m0 + k + 1) - _lgamma(k + 1))
            yield coef * w, coef * w_noise

    return sum_series_tracked(terms(), label=where, noise_cap=noise_cap)


def _time_changed_sample(l1: float, l2: float, alpha: float, beta: float, s: float,
                         t: float, rng: RngStream, size: int | None):
    """Skellam field at one inverse-subordinator draw per axis; an order-1
    axis keeps its time, since E(t) = t at order 1 draws nothing, and a zero
    rate draws nothing either."""
    gen = rng.generator
    e1 = np.asarray(sample_inverse_subordinator(alpha, s, rng, size=size))
    e2 = np.asarray(sample_inverse_subordinator(beta, t, rng, size=size))
    # An inf or nan mean is refused by name in _poisson, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        area = e1 * e2
        out = _poisson(gen, l1 * area, size)
        if l2 > 0.0:
            out = out - _poisson(gen, l2 * area, size)
    return int(out) if size is None else out


def _time_changed_mean_var(l1: float, l2: float, alpha: float, beta: float,
                           s: float, t: float):
    """Closed-form (mean, var) of N(E1(s), E2(t))."""
    ga1, gb1 = _gamma(alpha + 1.0), _gamma(beta + 1.0)
    q = s ** alpha * t ** beta
    mean = (l1 - l2) * q / (ga1 * gb1)
    var = ((l1 + l2) * q / (ga1 * gb1)
           + 4.0 * (l1 - l2) ** 2 * q * q / (_gamma(2.0 * alpha + 1.0) * _gamma(2.0 * beta + 1.0))
           - (l1 - l2) ** 2 * q * q / (ga1 ** 2 * gb1 ** 2))
    return mean, var


def _time_changed_cov(l1: float, l2: float, alpha: float, beta: float,
                      p1: GridPoint, p2: GridPoint) -> float:
    """Closed-form covariance of N(E1(s), E2(t)) at two grid points."""
    s, t, sp, tp = p1.s, p1.t, p2.s, p2.t
    ga1, gb1 = _gamma(alpha + 1.0), _gamma(beta + 1.0)
    i_s = singular_cov_integral(s, sp, alpha)
    i_t = singular_cov_integral(t, tp, beta)
    return ((l1 - l2) ** 2 * (i_s / (ga1 * _gamma(alpha)) * i_t / (gb1 * _gamma(beta))
                              - (s * sp) ** alpha * (t * tp) ** beta / (ga1 ** 2 * gb1 ** 2))
            + (l1 + l2) * min(s, sp) ** alpha * min(t, tp) ** beta / (ga1 * gb1))


# ---------------------------------------------------------------------------
# Fractional Poisson random field


def fprf_pmf(lam: float, alpha: float, beta: float, s: float, t: float, n: int) -> float:
    """Point probability of the doubly time-changed Poisson field.

    FPRF is kind I with lambda2 = 0, so this is the k = 0 term of the kind-I
    Wright series: (x^n / n!) 2Psi2[(n+1, 1), (n+1, 1); (n a + 1, a),
    (n b + 1, b)](-x) with x = lam s^a t^b, summed under SERIES_NOISE_CAP.
    The log of a Wright term grows like r log r (1 - alpha - beta), so for
    x > 0 the series diverges when alpha + beta < 1; at alpha + beta = 1 it
    converges only for x below alpha^alpha beta^beta.
    """
    if n < 0:
        raise ValidationError("n: must be >= 0")
    if not lam > 0.0:
        raise ValidationError("lam: must be > 0")
    if not (_order_ok(alpha) and _order_ok(beta)):
        raise ValidationError("alpha/beta: must be in (0, 1]")
    if alpha + beta < 1.0 and s > 0.0 and t > 0.0:
        raise ConvergenceGuardError(
            f"fprf_pmf: alpha + beta = {alpha + beta:g} < 1, the series diverges"
        )
    return _time_changed_pmf(lam, 0.0, alpha, beta, s, t, n, "fprf_pmf")[0]


def _kernel_piece(sigma: float, c: float, alpha: float) -> float:
    """T(sigma, c) = int_0^c (sigma - x)^alpha x^(alpha-1) dx for sigma >= c,
    in closed form through Gauss's hypergeometric function at z = c / sigma.

    For z <= 1/2, T = (sigma c)^alpha / alpha 2F1(-alpha, alpha; alpha+1; z),
    summed as its power series.  For z > 1/2 the 1 - z connection formula
    (DLMF 15.8.4), whose first part collapses since 2F1(a, b; a; w) =
    (1 - w)^-b, gives T = sigma^(2 alpha) [B(alpha, alpha+1) - z^alpha
    w^(1+alpha) / (1+alpha) 2F1(1+2 alpha, 1; alpha+2; w)] with w = 1 - z,
    formed as (sigma - c) / sigma so that near-coincident pairs keep it
    exact.  Past its first term each series has terms of one sign whose ratio
    stays below its argument, at most 1/2, so the tail after a term is
    smaller than the term: stopping at a term below 1e-17 of the sum leaves
    under half an ulp.  Neither form meets a gamma pole, alpha = 1 included.
    A value beyond the double range comes back as inf.
    """
    if c == 0.0:
        return 0.0
    z = c / sigma
    sa = sigma ** alpha
    total = term = 1.0
    k = 0.0
    if z <= 0.5:
        while abs(term) > 1e-17 * total:
            term *= (k - alpha) * (k + alpha) / ((k + alpha + 1.0) * (k + 1.0)) * z
            total += term
            k += 1.0
        return sa * c ** alpha / alpha * total
    w = (sigma - c) / sigma
    while term > 1e-17 * total:
        term *= (k + 1.0 + 2.0 * alpha) / (k + alpha + 2.0) * w
        total += term
        k += 1.0
    beta_fn = _gamma(alpha) * _gamma(alpha + 1.0) / _gamma(2.0 * alpha + 1.0)
    return sa * sa * (beta_fn - z ** alpha * w ** (1.0 + alpha) / (1.0 + alpha) * total)


def singular_cov_integral(s: float, sp: float, alpha: float) -> float:
    """int_0^{s ^ sp} ((s-x)^alpha + (sp-x)^alpha) x^(alpha-1) dx, in closed form.

    Raises ArgumentRangeError when the value leaves the double range.
    """
    if not (0.0 <= s < math.inf and 0.0 <= sp < math.inf):
        raise ValidationError("s/sp: must be finite and >= 0")
    if not _order_ok(alpha):
        raise ValidationError("alpha: must be in (0, 1]")
    c = min(s, sp)
    value = _kernel_piece(s, c, alpha) + _kernel_piece(sp, c, alpha)
    if not math.isfinite(value):
        raise ArgumentRangeError(
            f"singular_cov_integral({s:g}, {sp:g}, alpha={alpha:g}) leaves the double range")
    return value


@moments_in_range
def fprf_moments(lam: float, alpha: float, beta: float,
                 p1: GridPoint, p2: GridPoint):
    """Closed-form (mean, var) at p1 and covariance of the pair."""
    if not lam > 0.0:
        raise ValidationError("lam: must be > 0")
    if not (_order_ok(alpha) and _order_ok(beta)):
        raise ValidationError("alpha/beta: must be in (0, 1]")
    mean, var = _time_changed_mean_var(lam, 0.0, alpha, beta, p1.s, p1.t)
    return mean, var, _time_changed_cov(lam, 0.0, alpha, beta, p1, p2)


def fprf_sample(lam: float, alpha: float, beta: float, s: float, t: float,
                rng: RngStream, size: int | None = None):
    """Draw the field by time-changing both axes and counting: kind I at lambda2 = 0."""
    if not lam > 0.0:
        raise ValidationError("lam: must be > 0")
    return _time_changed_sample(lam, 0.0, alpha, beta, s, t, rng, size)


def fprf_sample_pair(lam: float, alpha: float, beta: float,
                     p1: GridPoint, p2: GridPoint, rng: RngStream,
                     size: int, step: float = DEFAULT_PATH_STEP) -> np.ndarray:
    """Joint draws of the field at two ordered grid points.

    Requires p1 <= p2 coordinatewise.  Time changes are drawn jointly along
    each axis; the second count is the first plus an independent Poisson
    increment over the L-shaped region between the two random rectangles.
    Returns an array of shape (size, 2).
    """
    if not lam > 0.0:
        raise ValidationError("lam: must be > 0")
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
    # An inf or nan mean is refused by name in _poisson, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        n1 = _poisson(gen, lam * a1 * b1, None)
        inc = _poisson(gen, lam * np.maximum(a2 * b2 - a1 * b1, 0.0), None)
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
    return _time_changed_sample(model.params.lambda1, model.params.lambda2,
                                model.orders.alpha, model.orders.beta, s, t, rng, size)


def fsrf1_pmf(model: FsrfModel, s: float, t: float, n: int) -> float:
    """Wright-series point probability of the doubly time-changed field."""
    _require_kind(model, "I")
    return _time_changed_pmf(model.params.lambda1, model.params.lambda2, model.orders.alpha,
                             model.orders.beta, s, t, n, "fsrf1_pmf")[0]


@moments_in_range
def fsrf1_moments(model: FsrfModel, p1: GridPoint, p2: GridPoint):
    """Closed-form (mean, var) at p1 and covariance of the pair."""
    _require_kind(model, "I")
    rates = model.params.lambda1, model.params.lambda2
    orders = model.orders.alpha, model.orders.beta
    mean, var = _time_changed_mean_var(*rates, *orders, p1.s, p1.t)
    return mean, var, _time_changed_cov(*rates, *orders, p1, p2)


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
                           replicates: int = 20000, window: int = 12) -> Fsrf1PgfCheck:
    _require_kind(model, "I")
    res_pgf, res_pmf = srf_pde_residual(model.params, u, s, t, h)
    if u <= 0.0:
        raise ValidationError("u: must be > 0")
    series = sum(fsrf1_pmf(model, s, t, n) * u ** n
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
    """Skellam field with the first axis time-changed: kind I at beta = 1."""
    _require_kind(model, "II")
    return _time_changed_sample(model.params.lambda1, model.params.lambda2,
                                model.orders.alpha, 1.0, s, t, rng, size)


def fsrf2_pmf(model: FsrfModel, s: float, t: float, n: int) -> float:
    """Point probability of the singly time-changed field.

    Kind II is kind I at beta = 1, so this is the kind-I Wright series with
    the single row pair of the first axis, summed under SERIES_NOISE_CAP.
    """
    _require_kind(model, "II")
    return _time_changed_pmf(model.params.lambda1, model.params.lambda2,
                             model.orders.alpha, 1.0, s, t, n, "fsrf2_pmf")[0]


def fsrf2_pgf(model: FsrfModel, u: float, s: float, t: float) -> float:
    """pgf E_alpha(l1 s^a t (u-1) + l2 s^a t (1/u - 1))."""
    _require_kind(model, "II")
    if u <= 0.0:
        raise ValidationError("u: must be > 0")
    l1, l2 = model.params.lambda1, model.params.lambda2
    q = s ** model.orders.alpha * t
    return mittag_leffler2(model.orders.alpha,
                           l1 * q * (u - 1.0) + l2 * q * (1.0 / u - 1.0))


@moments_in_range
def fsrf2_moments(model: FsrfModel, s: float, t: float):
    """Closed-form (mean, var) of the singly time-changed field."""
    _require_kind(model, "II")
    if not (s >= 0.0 and t >= 0.0):
        raise ValidationError("s/t: must be >= 0")
    return _time_changed_mean_var(model.params.lambda1, model.params.lambda2,
                                  model.orders.alpha, 1.0, s, t)


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


def fsrf3_pmf(model: FsrfModel, s: float, t: float, n: int) -> float:
    """Point probability of N1 - N2 as the convolution of the component pmfs.

    Sums p1(|n| + k) p2(k) over k >= 0.  Each factor is a fractional Poisson
    pmf, the kind-I Wright series at lambda2 = 0, summed without a cap; the
    products carry the factors' noises and their sum aborts once the noise
    passes SERIES_NOISE_CAP.  Wright values are memoized, so a table
    evaluates p2(k) once for all n.  A component with alpha + beta < 1 raises
    ConvergenceGuardError.  The branch for negative n swaps the two component
    fields, so the symmetric case (equal rates and orders) is even in n by
    construction.
    """
    _require_kind(model, "III")
    l1, l2 = model.params.lambda1, model.params.lambda2
    o = model.orders
    fields = [(l1, o.alpha, o.beta), (l2, o.alpha2, o.beta2)]
    (la, aa, ba), (lb, ab, bb) = fields if n >= 0 else fields[::-1]
    m = abs(n)
    label = f"fsrf3_pmf(n={n}) component pmf"

    def terms():
        for k in itertools.count():
            pa, ea = _time_changed_pmf(la, 0.0, aa, ba, s, t, m + k, label, None)
            pb, eb = _time_changed_pmf(lb, 0.0, ab, bb, s, t, k, label, None)
            yield pa * pb, ea * abs(pb) + abs(pa) * eb + ea * eb

    value, _ = sum_series_tracked(terms(), label=f"fsrf3_pmf(n={n})",
                                  noise_cap=SERIES_NOISE_CAP)
    return value


@moments_in_range
def fsrf3_moments(model: FsrfModel, p1: GridPoint, p2: GridPoint):
    """Component-wise sums and differences of the two fractional Poisson fields."""
    _require_kind(model, "III")
    l1, l2 = model.params.lambda1, model.params.lambda2
    o = model.orders
    m1, v1, c1 = fprf_moments(l1, o.alpha, o.beta, p1, p2)
    m2, v2, c2 = fprf_moments(l2, o.alpha2, o.beta2, p1, p2)
    return m1 - m2, v1 + v2, c1 + c2
