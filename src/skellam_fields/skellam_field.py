"""The non-fractional layer: generalized Skellam random fields on boxes,
the planar Skellam field with its exact pmf/pgf/moments, the compound
Poisson representation, governing-equation residual checks, and the
Bernoulli-lattice approximation that converges to the field.
"""

from __future__ import annotations

import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ArgumentRangeError,
    LatticeSpecError,
    SingularPgfError,
    ValidationError,
    moments_in_range,
)
from .rng import RngStream
from .sampling import BoxRegion, _poisson
from .specfun import bessel_i

__all__ = [
    "GsrfParams",
    "SkellamParams",
    "GridPoint",
    "PmfTable",
    "LatticeSpec",
    "GsrfFieldSample",
    "gsrf_count",
    "gsrf_moments",
    "gsrf_superpose",
    "gsrf_compound_sample",
    "sample_gsrf_field",
    "srf_pmf",
    "srf_pmf_table",
    "srf_pgf",
    "srf_pde_residual",
    "lattice_sample",
    "srf_infinitesimal_check",
    "InfinitesimalReport",
]

# Negative tail mass within this of zero is floating-point truncation noise
# and is clamped; anything worse indicates a broken table.
TAIL_CLAMP = 1e-12

# The pgf governing equation excludes lambda1 u^2 = lambda2; refuse u closer
# than this to the singular point.
PGF_SINGULAR_GUARD = 1e-3

# Largest exponent whose exp is a finite double.
_MAX_LOG = math.log(sys.float_info.max)


@dataclass(frozen=True)
class GsrfParams:
    """Finite jump set with one positive rate per jump."""

    jumps: tuple  # ((jump, rate), ...)

    def __post_init__(self):
        jumps = tuple((float(j), float(lam)) for j, lam in self.jumps)
        object.__setattr__(self, "jumps", jumps)
        if not jumps:
            raise ValidationError("jumps: must be nonempty")
        seen = set()
        for j, lam in jumps:
            if j == 0.0:
                raise ValidationError("jumps: jump sizes must be nonzero")
            if j in seen:
                raise ValidationError("jumps: jump sizes must be distinct")
            seen.add(j)
            if not lam > 0.0:
                raise ValidationError("jumps: rates must be > 0")

    @property
    def total_rate(self) -> float:
        return sum(lam for _, lam in self.jumps)

    @property
    def jump_values(self) -> np.ndarray:
        return np.asarray([j for j, _ in self.jumps])

    @property
    def rates(self) -> np.ndarray:
        return np.asarray([lam for _, lam in self.jumps])


@dataclass(frozen=True)
class SkellamParams:
    """Rates of the two component Poisson fields of a Skellam field."""

    lambda1: float
    lambda2: float

    def __post_init__(self):
        if not self.lambda1 > 0.0:
            raise ValidationError("lambda1: must be > 0")
        if not self.lambda2 > 0.0:
            raise ValidationError("lambda2: must be > 0")

    def to_gsrf(self) -> GsrfParams:
        return GsrfParams(((1.0, self.lambda1), (-1.0, self.lambda2)))


@dataclass(frozen=True)
class GridPoint:
    """A point (s, t) in the positive quadrant."""

    s: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.s) and math.isfinite(self.t)):
            raise ValidationError("s/t: must be finite")
        if self.s < 0.0 or self.t < 0.0:
            raise ValidationError("s/t: must be >= 0")


# Every float the package prints (pmf tables, CLI csv output and draws) uses
# this format: 17 significant digits round-trip a double losslessly.
FLOAT_FORMAT = "%.17g"


def _format_float(x) -> str:
    return FLOAT_FORMAT % float(x)


@dataclass(frozen=True)
class PmfTable:
    """Truncated pmf over an integer window with its truncated tail mass."""

    n_min: int
    n_max: int
    probs: np.ndarray
    tail_mass: float

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if self.n_min > self.n_max:
            raise ValidationError("n_min/n_max: window must be nonempty")
        if probs.shape != (self.n_max - self.n_min + 1,):
            raise ValidationError("probs: length must match the window")
        if np.any(probs < 0.0):
            raise ValidationError("probs: entries must be >= 0")
        if self.tail_mass < 0.0:
            raise ValidationError("tail_mass: must be >= 0")
        total = float(probs.sum()) + self.tail_mass
        if not (1.0 - 1e-9 <= total <= 1.0 + 1e-9):
            raise ValidationError(f"probs: sum + tail_mass = {total!r} is not within 1e-9 of 1")

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    def prob(self, n: int) -> float:
        if n < self.n_min or n > self.n_max:
            return 0.0
        return float(self.probs[n - self.n_min])

    @classmethod
    def from_probs(cls, n_min: int, probs: Sequence[float]) -> "PmfTable":
        """Build a table from window entries, deriving the clamped tail mass."""
        probs = np.asarray(probs, dtype=float)
        tail = 1.0 - float(probs.sum())
        if tail < 0.0:
            if tail < -TAIL_CLAMP:
                raise ValidationError(f"probs: window mass exceeds 1 by {-tail:g}")
            tail = 0.0
        return cls(n_min, n_min + probs.size - 1, probs, tail)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("n,prob\n")
        for n, p in zip(self.support, self.probs):
            buf.write(f"{n},{_format_float(p)}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "PmfTable":
        lines = [ln for ln in text.strip().split("\n") if ln]
        if not lines or lines[0] != "n,prob":
            raise ValidationError("csv: expected header 'n,prob'")
        ns, ps = [], []
        for ln in lines[1:]:
            n_str, p_str = ln.split(",")
            ns.append(int(n_str))
            ps.append(float(p_str))
        if not ns or ns != list(range(ns[0], ns[0] + len(ns))):
            raise ValidationError("csv: rows must cover a contiguous integer window")
        return cls.from_probs(ns[0], ps)

    def to_json(self) -> str:
        return json.dumps({
            "n_min": self.n_min,
            "n_max": self.n_max,
            "probs": [float(p) for p in self.probs],
            "tail_mass": self.tail_mass,
        })

    @classmethod
    def from_json(cls, text: str) -> "PmfTable":
        d = json.loads(text)
        return cls(int(d["n_min"]), int(d["n_max"]),
                   np.asarray(d["probs"], dtype=float), float(d["tail_mass"]))


@dataclass(frozen=True)
class LatticeSpec:
    """Refinement level k and the per-cell jump probability rule.

    ``cell_probs(l, lp)`` returns one probability per jump for cell (l, lp);
    None selects the homogeneous default rule lambda_j / k^2, which satisfies
    the convergence hypotheses (cell sums tend to lambda_j * s * t and the
    maximum cell probability tends to 0 as k grows).
    """

    k: int
    cell_probs: Callable[[int, int], Sequence[float]] | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("k: must be >= 1")

    def probs_for(self, params: GsrfParams, l: int, lp: int) -> np.ndarray:
        if self.cell_probs is None:
            p = params.rates / self.k ** 2
        else:
            p = np.asarray(self.cell_probs(l, lp), dtype=float)
            if p.shape != (len(params.jumps),):
                raise LatticeSpecError("cell_probs: must return one probability per jump")
        if np.any(p <= 0.0) or np.any(p >= 1.0) or p.sum() >= 1.0:
            raise LatticeSpecError(
                f"cell ({l},{lp}): probabilities must lie in (0,1) with sum < 1 "
                f"(k={self.k} too small for these rates?)"
            )
        return p


def gsrf_count(params: GsrfParams, region: BoxRegion, rng: RngStream,
               size: int | None = None):
    """Sample sum_j j * N_j(region) from independent Poisson component fields."""
    gen = rng.generator
    measure = region.measure
    shape = () if size is None else (size,)
    out = np.zeros(shape)
    for j, lam in params.jumps:
        out = out + j * _poisson(gen, lam * measure, size)
    return float(out) if size is None else out


@moments_in_range
def gsrf_moments(params: GsrfParams, region1: BoxRegion, region2: BoxRegion):
    """Exact (mean, variance) on region1 and covariance of the pair.

    Mean is sum_j j lambda_j |B1|, variance sum_j j^2 lambda_j |B1|, and the
    covariance replaces |B1| by the box-intersection measure |B1 n B2|.
    """
    first = sum(j * lam for j, lam in params.jumps)
    second = sum(j * j * lam for j, lam in params.jumps)
    m1 = region1.measure
    return first * m1, second * m1, second * region1.intersection_measure(region2)


def gsrf_superpose(p1: GsrfParams, p2: GsrfParams) -> GsrfParams:
    """Parameters of the sum of two independent fields: rates add on common jumps."""
    rates: dict = {}
    for j, lam in p1.jumps + p2.jumps:
        rates[j] = rates.get(j, 0.0) + lam
    return GsrfParams(tuple(sorted(rates.items())))


def gsrf_compound_sample(params: GsrfParams, region: BoxRegion, rng: RngStream,
                         size: int | None = None):
    """Sample the field through its compound Poisson representation.

    Draws N ~ Poisson(Lambda |B|) and sums N iid jumps taking value j with
    probability lambda_j / Lambda; the jump-type counts of that iid sequence
    are multinomial given N, which is how they are drawn here.
    """
    gen = rng.generator
    total = params.total_rate
    n = _poisson(gen, total * region.measure, size)
    pvals = params.rates / total
    counts = gen.multinomial(n, pvals)
    out = counts @ params.jump_values
    return float(out) if size is None else out


@dataclass(frozen=True)
class GsrfFieldSample:
    """One planar field realization: a point scatter per component field.

    Evaluating the field at several grid points through the same scatters
    preserves the exact joint law, which rectangular-increment tests need.
    """

    params: GsrfParams
    scatters: tuple  # one PointProcessSample per jump

    def value_at(self, s: float, t: float) -> float:
        from .sampling import count_at

        out = 0.0
        for (j, _), scatter in zip(self.params.jumps, self.scatters):
            out += j * count_at(scatter, (s, t))
        return out

    def increment(self, s: float, t: float, s2: float, t2: float) -> float:
        """Rectangular increment over (s, s2] x (t, t2]."""
        if s2 < s or t2 < t:
            raise ValidationError("s2/t2: increment corners must satisfy (s,t) <= (s2,t2)")
        return (self.value_at(s2, t2) - self.value_at(s, t2)
                - self.value_at(s2, t) + self.value_at(s, t))


def sample_gsrf_field(params: GsrfParams, s_max: float, t_max: float,
                      rng: RngStream) -> GsrfFieldSample:
    """Scatter every component field once over [0, s_max] x [0, t_max]."""
    from .sampling import sample_point_field

    region = BoxRegion((0.0, 0.0), (s_max, t_max))
    scatters = tuple(sample_point_field(lam, region, rng) for _, lam in params.jumps)
    return GsrfFieldSample(params, scatters)


def srf_pmf(params: SkellamParams, s: float, t: float, n: int) -> float:
    """Point probability of the planar Skellam field at (s, t).

    exp(-(l1+l2) s t) (l1/l2)^{n/2} I_{|n|}(2 sqrt(l1 l2) s t).
    """
    if not (s >= 0.0 and t >= 0.0):
        raise ValidationError("s/t: must be >= 0")
    st = s * t
    if st == 0.0:
        return 1.0 if n == 0 else 0.0
    l1, l2 = params.lambda1, params.lambda2
    x = 2.0 * math.sqrt(l1 * l2) * st
    return math.exp(-(l1 + l2) * st) * (l1 / l2) ** (n / 2.0) * bessel_i(abs(n), x)


def srf_pmf_table(params: SkellamParams, s: float, t: float,
                  n_min: int, n_max: int) -> PmfTable:
    if n_min > n_max:
        raise ValidationError("n_min/n_max: window must be nonempty")
    probs = [srf_pmf(params, s, t, n) for n in range(n_min, n_max + 1)]
    return PmfTable.from_probs(n_min, probs)


def srf_pgf(params: SkellamParams, u: float, s: float, t: float) -> float:
    """Probability generating function exp(l1 st (u-1) + l2 st (1/u - 1)).

    Raises ArgumentRangeError when the value leaves the double range."""
    if not u > 0.0:
        raise ValidationError("u: must be > 0")
    if not (s >= 0.0 and t >= 0.0):
        raise ValidationError("s/t: must be >= 0")
    st = s * t
    exponent = params.lambda1 * st * (u - 1.0) + params.lambda2 * st * (1.0 / u - 1.0)
    if not exponent <= _MAX_LOG:  # nan or past the double range
        raise ArgumentRangeError(f"srf_pgf: exponent {exponent:g} leaves the double range")
    return math.exp(exponent)


def _check_pgf_regular(params: SkellamParams, u: float):
    u_sing = math.sqrt(params.lambda2 / params.lambda1)
    if abs(u - u_sing) < PGF_SINGULAR_GUARD:
        raise SingularPgfError(
            f"u={u} is within {PGF_SINGULAR_GUARD} of the singular point {u_sing:.6g}"
        )


def srf_pde_residual(params: SkellamParams, u: float, s: float, t: float,
                     h: float, n: int = 0):
    """Central-difference residuals of both governing equations.

    Returns (residual_pgf, residual_pmf): the pgf equation in the mixed
    (s, t) derivative at parameter u, and the pmf system's s-derivative
    equation at integer n.  Both shrink as h^2 with the analytic solutions
    plugged in.
    """
    if not h > 0.0:
        raise ValidationError("h: must be > 0")
    if s - h < 0.0 or t - h < 0.0 or u - h <= 0.0:
        raise ValidationError("h: stencil must stay inside the domain")
    _check_pgf_regular(params, u)
    l1, l2 = params.lambda1, params.lambda2

    g = lambda uu, ss, tt: srf_pgf(params, uu, ss, tt)
    mixed = (g(u, s + h, t + h) - g(u, s + h, t - h)
             - g(u, s - h, t + h) + g(u, s - h, t - h)) / (4.0 * h * h)
    dg_du = (g(u + h, s, t) - g(u - h, s, t)) / (2.0 * h)
    coeff0 = l1 * (u - 1.0) + l2 * (1.0 / u - 1.0)
    coeff1 = (l1 * (u - 1.0) * u + l2 * (1.0 - u)) ** 2 / (l1 * u * u - l2)
    residual_pgf = mixed - coeff0 * g(u, s, t) - coeff1 * dg_du

    p = lambda nn, ss: srf_pmf(params, ss, t, nn)
    dp_ds = (p(n, s + h) - p(n, s - h)) / (2.0 * h)
    residual_pmf = dp_ds - (-(l1 + l2) * t * p(n, s)
                            + l1 * t * p(n - 1, s) + l2 * t * p(n + 1, s))
    return residual_pgf, residual_pmf


def lattice_sample(spec: LatticeSpec, params: GsrfParams, s: float, t: float,
                   rng: RngStream, size: int | None = None):
    """One draw (or ``size`` draws) of the lattice field sum over [ks] x [kt] cells.

    Each cell independently contributes jump j with its cell probability and 0
    otherwise.  Under the homogeneous rule the jump-type counts over the m
    iid cells are multinomial, which is sampled directly.
    """
    if not (s >= 0.0 and t >= 0.0):
        raise ValidationError("s/t: must be >= 0")
    gen = rng.generator
    ls, lt = int(math.floor(spec.k * s)), int(math.floor(spec.k * t))
    m = ls * lt
    shape = () if size is None else (size,)
    if m == 0:
        out = np.zeros(shape)
        return float(out) if size is None else out
    jumps = params.jump_values
    if spec.cell_probs is None:
        p = spec.probs_for(params, 1, 1)
        counts = gen.multinomial(m, np.append(p, 1.0 - p.sum()), size=size)
        out = counts[..., :-1] @ jumps
    else:
        out = np.zeros(shape)
        for l in range(1, ls + 1):
            for lp in range(1, lt + 1):
                p = spec.probs_for(params, l, lp)
                edges = np.cumsum(p)
                unif = gen.random(size=size)
                cell = np.select([unif < e for e in edges], list(jumps), default=0.0)
                out = out + cell
    return float(out) if size is None else out


@dataclass(frozen=True)
class InfinitesimalReport:
    """Normalized deviations of the exact pmf from its small-area expansion."""

    area: float
    dev_plus: float       # |Pr{S=1} - lambda1 area| / area
    dev_minus: float      # |Pr{S=-1} - lambda2 area| / area
    dev_zero: float       # |Pr{S=0} - (1 - (lambda1+lambda2) area)| / area
    multi_jump_ratio: float  # Pr{|S| >= 2} / area


def srf_infinitesimal_check(params: SkellamParams, area: float) -> InfinitesimalReport:
    """Compare the exact pmf on a small box against the infinitesimal rates.

    The n = 0 line is checked against 1 - (lambda1 + lambda2)|B|, the version
    consistent with normalization of the small-area expansion.
    """
    if not area > 0.0:
        raise ValidationError("area: must be > 0")
    l1, l2 = params.lambda1, params.lambda2
    p = lambda n: srf_pmf(params, area, 1.0, n)
    dev_plus = abs(p(1) - l1 * area) / area
    dev_minus = abs(p(-1) - l2 * area) / area
    dev_zero = abs(p(0) - (1.0 - (l1 + l2) * area)) / area
    multi = 1.0 - p(0) - p(1) - p(-1)
    return InfinitesimalReport(area, dev_plus, dev_minus, dev_zero,
                               max(multi, 0.0) / area)
