"""Rectangle integrals of the count fields: exact pathwise Riemann and
Riemann-Liouville integrals of Poisson and generalized Skellam scatters,
their analytic characteristic functions, and the scaled compound
representation of the Riemann integral.

Integrals are evaluated pathwise from scatters, with the kernel integral per
point in closed form, so no mesh discretization error enters any comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ArgumentRangeError, QuadratureError, ValidationError, moments_in_range
from .rng import RngStream
from .sampling import _poisson
from .skellam_field import GsrfParams

__all__ = [
    "IntegralOrders",
    "CfGrid",
    "rl_integral_sample",
    "rl_integral_moments",
    "prf_integral_cf",
    "levy_integral_cf",
    "gsrf_integral_sample",
    "scaled_compound_sample",
    "prf_log_cf",
    "gsrf_log_cf",
]

# Node-doubling agreement demanded of the unit-square CF quadrature.
_CF_QUAD_STABILITY = 1e-9


@dataclass(frozen=True)
class IntegralOrders:
    """Kernel exponents of the Riemann-Liouville integral; (1, 1) is Riemann."""

    nu1: float
    nu2: float

    def __post_init__(self):
        if not self.nu1 > 0.0:
            raise ValidationError("nu1: must be > 0")
        if not self.nu2 > 0.0:
            raise ValidationError("nu2: must be > 0")


@dataclass(frozen=True)
class CfGrid:
    """Evaluation points for characteristic-function comparisons; must contain 0."""

    xi_values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.xi_values)
        object.__setattr__(self, "xi_values", vals)
        if not vals:
            raise ValidationError("xi_values: must be nonempty")
        if 0.0 not in vals:
            raise ValidationError("xi_values: must include 0")

    @classmethod
    def default(cls) -> "CfGrid":
        return cls(tuple(np.arange(-2.0, 2.0 + 1e-12, 0.5)))


def _scatter_batch(lam: float, s: float, t: float,
                   gen: np.random.Generator, size: int):
    """Poisson scatters on [0,s]x[0,t] for `size` replicates, flattened.

    Returns (counts, rep_ids, x, y)."""
    counts = _poisson(gen, lam * s * t, size)
    total = int(counts.sum())
    x = s * gen.random(total)
    y = t * gen.random(total)
    rep = np.repeat(np.arange(size), counts)
    return counts, rep, x, y


def _pathwise_rl(lam, nu1, nu2, s, t, gen, size):
    """Per-replicate sums of the RL kernel over a fresh scatter; a kernel
    beyond the double range leaves inf, which every caller refuses by name."""
    _, rep, x, y = _scatter_batch(lam, s, t, gen, size)
    with np.errstate(over="ignore"):
        contrib = (s - x) ** nu1 * (t - y) ** nu2 / (math.gamma(nu1 + 1.0) * math.gamma(nu2 + 1.0))
        out = np.zeros(size)
        np.add.at(out, rep, contrib)
    return out


def rl_integral_sample(lam: float, orders: IntegralOrders, s: float, t: float,
                       rng: RngStream, size: int | None = None):
    """Exact pathwise Riemann-Liouville integral of a fresh Poisson scatter.

    Every scattered point (x_i, y_i) contributes its kernel integral
    (s-x_i)^nu1 (t-y_i)^nu2 / (Gamma(nu1+1) Gamma(nu2+1)) in closed form.
    """
    if not lam > 0.0:
        raise ValidationError("lam: must be > 0")
    if not (s >= 0.0 and t >= 0.0):
        raise ValidationError("s/t: must be >= 0")
    n = 1 if size is None else int(size)
    out = _pathwise_rl(lam, orders.nu1, orders.nu2, s, t, rng.generator, n)
    if not np.all(np.isfinite(out)):
        raise ArgumentRangeError(
            "rl_integral_sample: a kernel (s-x)^nu1 (t-y)^nu2 leaves the double range")
    return float(out[0]) if size is None else out


@moments_in_range
def rl_integral_moments(lam: float, orders: IntegralOrders, s: float, t: float):
    """Closed-form (mean, var) of the Riemann-Liouville integral.

    mean = lam s^{nu1+1} t^{nu2+1} / (Gamma(nu1+2) Gamma(nu2+2)); the
    variance follows from the second-moment measure of the scatter,
    var = lam s^{2nu1+1} t^{2nu2+1} / ((2nu1+1)(2nu2+1) Gamma^2(nu1+1)
    Gamma^2(nu2+1)), and is cross-checked against the CF expansion and Monte
    Carlo in the acceptance suite.
    """
    if not lam > 0.0:
        raise ValidationError("lam: must be > 0")
    if not (s >= 0.0 and t >= 0.0):
        raise ValidationError("s/t: must be >= 0")
    n1, n2 = orders.nu1, orders.nu2
    mean = lam * s ** (n1 + 1.0) * t ** (n2 + 1.0) / (math.gamma(n1 + 2.0) * math.gamma(n2 + 2.0))
    var = (lam * s ** (2.0 * n1 + 1.0) * t ** (2.0 * n2 + 1.0)
           / ((2.0 * n1 + 1.0) * (2.0 * n2 + 1.0)
              * math.gamma(n1 + 1.0) ** 2 * math.gamma(n2 + 1.0) ** 2))
    return mean, var


# Rows of the tensor grid per evaluation block.  A 16 x 128 complex block is
# 32 KB, under glibc's default 128 KB mmap threshold, so every call reuses
# heap memory.  Whole-grid temporaries (256 KB each) are mapped and
# page-faulted afresh on every call, which made CLI cf calls 25-55% slower on
# a 2-core Xeon unless an earlier large free had raised the threshold.
_BLOCK_ROWS = 16


@lru_cache(maxsize=8)
def _legendre_square(nodes: int):
    """Tensor Gauss-Legendre grid x_i x_j and weights w_i w_j on [0, 1]^2."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x, w = (x + 1.0) / 2.0, w / 2.0
    return np.outer(x, x), np.outer(w, w)


def _unit_square_mean(f: Callable[[np.ndarray], np.ndarray], nodes: int) -> complex:
    """int_0^1 int_0^1 f(x*y) dx dy by tensor Gauss-Legendre, in row blocks."""
    grid, weights = _legendre_square(nodes)
    return complex(sum(np.vdot(weights[i:i + _BLOCK_ROWS], f(grid[i:i + _BLOCK_ROWS]))
                       for i in range(0, nodes, _BLOCK_ROWS)))


def _stable_unit_square_mean(f, label: str) -> complex:
    v64 = _unit_square_mean(f, 64)
    v128 = _unit_square_mean(f, 128)
    err = abs(v128 - v64)
    if err >= _CF_QUAD_STABILITY * max(1.0, abs(v64)):
        raise QuadratureError(f"{label}: node doubling moved the value by {err:g}")
    return v64


def prf_log_cf(lam: float) -> Callable[[np.ndarray], np.ndarray]:
    """Log-CF of the unit-box Poisson count: lam (e^{i xi} - 1)."""
    return lambda xi: lam * (np.exp(1j * np.asarray(xi)) - 1.0)


def gsrf_log_cf(params: GsrfParams) -> Callable[[np.ndarray], np.ndarray]:
    """Log-CF of the unit-box generalized Skellam count."""

    def log_phi(xi):
        xi = np.asarray(xi)
        out = np.zeros(xi.shape, dtype=complex)
        for j, lam in params.jumps:
            out += lam * (np.exp(1j * j * xi) - 1.0)
        return out

    return log_phi


def prf_integral_cf(lam: float, s: float, t: float, xi: float) -> complex:
    """CF of the Riemann integral of a Poisson field:
    exp(lam s t int_0^1 int_0^1 (e^{i xi s t x y} - 1) dx dy)."""
    if not lam > 0.0:
        raise ValidationError("lam: must be > 0")
    if xi == 0.0:
        return 1.0 + 0.0j
    a = xi * s * t
    inner = _stable_unit_square_mean(lambda g: np.exp(1j * a * g) - 1.0, "prf_integral_cf")
    return complex(np.exp(lam * s * t * inner))


def levy_integral_cf(log_cf_at_unit: Callable[[np.ndarray], np.ndarray],
                     s: float, t: float, xi: float) -> complex:
    """CF of the Riemann integral of a two-parameter Levy count field:
    exp(s t int_0^1 int_0^1 log phi(xi s t x y) dx dy).

    ``log_cf_at_unit`` must be the principal-branch log-CF of the unit-box
    increment law, continuous in xi.
    """
    if xi == 0.0:
        return 1.0 + 0.0j
    a = xi * s * t
    inner = _stable_unit_square_mean(lambda g: log_cf_at_unit(a * g), "levy_integral_cf")
    return complex(np.exp(s * t * inner))


def gsrf_integral_sample(params: GsrfParams, s: float, t: float,
                         rng: RngStream, size: int | None = None):
    """Exact pathwise Riemann integral of a generalized Skellam scatter:
    sum_j j sum_i (s - x_i^j)(t - y_i^j)."""
    if not (s >= 0.0 and t >= 0.0):
        raise ValidationError("s/t: must be >= 0")
    gen = rng.generator
    n = 1 if size is None else int(size)
    out = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, lam in params.jumps:
            out += j * _pathwise_rl(lam, 1.0, 1.0, s, t, gen, n)
    if not np.all(np.isfinite(out)):
        raise ArgumentRangeError(
            "gsrf_integral_sample: a kernel j (s-x)(t-y) leaves the double range")
    return float(out[0]) if size is None else out


def scaled_compound_sample(lam: float, jump_law: Callable[[np.random.Generator, int], np.ndarray],
                           s: float, t: float, rng: RngStream,
                           size: int | None = None):
    """Draw s t sum_{r <= N} X_r U_r with N ~ Poisson(lam s t).

    ``jump_law(gen, n)`` must return n iid jump draws.  Each U_r is the
    coordinate product of an independent uniform point on the unit square,
    the reading under which the representation matches the integral CF.
    """
    if not lam > 0.0:
        raise ValidationError("lam: must be > 0")
    if not (s >= 0.0 and t >= 0.0):
        raise ValidationError("s/t: must be >= 0")
    gen = rng.generator
    n = 1 if size is None else int(size)
    counts = _poisson(gen, lam * s * t, n)
    total = int(counts.sum())
    xvals = np.asarray(jump_law(gen, total), dtype=float)
    if xvals.shape != (total,):
        raise ValidationError("jump_law: must return exactly n draws")
    u = gen.random(total) * gen.random(total)
    out = np.zeros(n)
    np.add.at(out, np.repeat(np.arange(n), counts), xvals * u)
    out *= s * t
    return float(out[0]) if size is None else out

