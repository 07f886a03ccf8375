"""Named verification suites: every analytic identity in the package gated
against its independent oracle (brute-force series, Monte Carlo, quadrature
or finite differences) at desk scale.

Each suite returns a list of ComparisonReport and is reproducible from the
(seed, workers) pair; the CLI ``verify`` subcommand and the acceptance test
module both run these.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UnknownSuiteError
from .field_integrals import (
    CfGrid,
    IntegralOrders,
    gsrf_integral_sample,
    gsrf_log_cf,
    levy_integral_cf,
    prf_integral_cf,
    rl_integral_moments,
    rl_integral_sample,
    scaled_compound_sample,
)
from .fractional_field import (
    FracOrders,
    FsrfModel,
    fprf_moments,
    fprf_pmf,
    fprf_sample,
    fprf_sample_pair,
    fsrf1_moments,
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
)
from .rng import RngStream
from .sampling import BoxRegion, sample_inverse_subordinator
from .skellam_field import (
    GridPoint,
    GsrfParams,
    PmfTable,
    SkellamParams,
    gsrf_compound_sample,
    gsrf_count,
    srf_pde_residual,
    srf_pmf,
    srf_pmf_table,
)
from .specfun import WrightSpec, bessel_i, mittag_leffler2, mittag_leffler3, wright
from .verification import (
    ComparisonReport,
    McConfig,
    Metric,
    convergence_study,
    covariance_z_check,
    empirical_cf,
    empirical_pmf,
    moment_z_check,
    sample_sharded,
    tv_distance,
    variance_z_check,
)

__all__ = ["SUITES", "SuiteResult", "run_suite", "suite_names", "DEFAULT_SEED"]

DEFAULT_SEED = 20250811

_UNIT = BoxRegion((0.0, 0.0), (1.0, 1.0))


@dataclass(frozen=True)
class SuiteResult:
    name: str
    reports: tuple
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def to_dict(self) -> dict:
        return {
            "suite": self.name,
            "pass": self.passed,
            "elapsed_s": self.elapsed_s,
            "reports": [r.to_dict() for r in self.reports],
        }


def _max_abs(value: float, threshold: float, **metadata) -> ComparisonReport:
    return ComparisonReport(Metric.MAX_ABS_ERR, float(value), threshold, metadata=metadata)


def _poisson_convolution_pmf(l1: float, l2: float, st: float, n: int,
                             k_terms: int = 80) -> float:
    """Independent Skellam oracle: truncated convolution of two Poisson pmfs."""
    mu1, mu2 = l1 * st, l2 * st
    total = 0.0
    for k in range(max(0, -n), k_terms):
        lg = ((n + k) * math.log(mu1) - math.lgamma(n + k + 1)
              + k * math.log(mu2) - math.lgamma(k + 1))
        total += math.exp(lg)
    return math.exp(-(mu1 + mu2)) * total


def _suite_srf_oracle(cfg: McConfig) -> list:
    params = SkellamParams(2.0, 1.0)
    err = max(abs(srf_pmf(params, 1.0, 1.0, n) - _poisson_convolution_pmf(2.0, 1.0, 1.0, n))
              for n in range(-20, 21))
    return [_max_abs(err, 1e-12, criterion="srf pmf vs Poisson convolution oracle, |n|<=20")]


def _suite_srf_mc(cfg: McConfig) -> list:
    params = SkellamParams(2.0, 1.0)
    gsrf = params.to_gsrf()
    base = RngStream(cfg.seed, 2)
    draws = sample_sharded(lambda st, n: gsrf_count(gsrf, _UNIT, st, size=n),
                           cfg.replicates, base, cfg.workers)
    table = srf_pmf_table(params, 1.0, 1.0, -30, 30)
    tv = tv_distance(empirical_pmf(draws, -30, 30), table)
    return [
        ComparisonReport(Metric.TV, tv, 0.01, metadata={"criterion": "srf MC pmf vs table"}),
        moment_z_check(draws, 1.0, 3.0, criterion="srf MC mean vs (l1-l2)st"),
        variance_z_check(draws, 3.0, criterion="srf MC variance vs (l1+l2)st"),
    ]


def _suite_compound(cfg: McConfig) -> list:
    params = GsrfParams(((1.0, 2.0), (-1.0, 1.0), (2.0, 0.5)))
    base = RngStream(cfg.seed, 3)
    direct = sample_sharded(lambda st, n: gsrf_count(params, _UNIT, st, size=n),
                            cfg.replicates, base.substream(0), cfg.workers)
    compound = sample_sharded(lambda st, n: gsrf_compound_sample(params, _UNIT, st, size=n),
                              cfg.replicates, base.substream(1), cfg.workers)
    tv = tv_distance(empirical_pmf(direct, -15, 15), empirical_pmf(compound, -15, 15))
    return [ComparisonReport(Metric.TV, tv, 0.015,
                             metadata={"criterion": "compound representation vs direct sampler"})]


def _suite_inverse_subordinator(cfg: McConfig) -> list:
    base = RngStream(cfg.seed, 4)
    reports = []
    for i, alpha in enumerate((0.5, 0.8)):
        draws = sample_sharded(
            lambda st, n: np.asarray(sample_inverse_subordinator(alpha, 1.0, st, size=n)),
            cfg.replicates, base.substream(i), cfg.workers)
        for u in (0.5, 1.0, 2.0):
            target = mittag_leffler2(alpha, -u)
            var = mittag_leffler2(alpha, -2.0 * u) - target ** 2
            reports.append(moment_z_check(np.exp(-u * draws), target, var,
                                          criterion=f"Laplace pair alpha={alpha} u={u}"))
        mean = 1.0 / math.gamma(alpha + 1.0)
        var = 2.0 / math.gamma(2.0 * alpha + 1.0) - mean ** 2
        reports.append(moment_z_check(draws, mean, var,
                                      criterion=f"inverse subordinator mean alpha={alpha}"))
    return reports


def _series_table(pmf: Callable[[int], float], n_min: int, n_max: int) -> PmfTable:
    return PmfTable.from_probs(n_min, [pmf(n) for n in range(n_min, n_max + 1)])


def _suite_fsrf1(cfg: McConfig) -> list:
    base = RngStream(cfg.seed, 5)
    reports = []
    # (a) order-(1,1) collapse onto the Bessel pmf
    params_a = SkellamParams(2.0, 1.0)
    model_a = FsrfModel("I", params_a, FracOrders(1.0, 1.0))
    err = max(abs(fsrf1_pmf(model_a, 1.0, 1.0, n) - srf_pmf(params_a, 1.0, 1.0, n))
              for n in range(-15, 16))
    reports.append(_max_abs(err, 1e-10, criterion="fsrf1 orders-1 pmf collapse, |n|<=15"))
    # (b) fractional series vs time-change sampler
    params = SkellamParams(1.0, 0.5)
    model = FsrfModel("I", params, FracOrders(0.7, 0.7))
    draws = sample_sharded(lambda st, n: fsrf1_sample(model, 1.0, 1.0, st, size=n),
                           cfg.replicates, base.substream(0), cfg.workers)
    analytic = _series_table(lambda n: fsrf1_pmf(model, 1.0, 1.0, n), -8, 8)
    tv = tv_distance(empirical_pmf(draws, -8, 8), analytic)
    reports.append(ComparisonReport(Metric.TV, tv, 0.02,
                                    metadata={"criterion": "fsrf1 series pmf vs sampler"}))
    # (c) closed-form moments vs the same draws
    mean, var, _ = fsrf1_moments(model, GridPoint(1.0, 1.0), GridPoint(1.0, 1.0))
    reports.append(moment_z_check(draws, mean, var, criterion="fsrf1 mean vs MC"))
    reports.append(variance_z_check(draws, var, criterion="fsrf1 variance vs MC"))
    # (d) exact mean value at half orders
    model_d = FsrfModel("I", SkellamParams(2.0, 1.0), FracOrders(0.5, 0.5))
    mean_d, _, _ = fsrf1_moments(model_d, GridPoint(1.0, 1.0), GridPoint(1.0, 1.0))
    reports.append(_max_abs(abs(mean_d - 4.0 / math.pi), 1e-12,
                            criterion="fsrf1 mean at half orders equals 4/pi"))
    return reports


def _suite_fsrf2(cfg: McConfig) -> list:
    base = RngStream(cfg.seed, 6)
    reports = []
    params = SkellamParams(1.0, 0.5)
    # (a) alpha = 1 collapse
    model_a = FsrfModel("II", params, FracOrders(1.0))
    err = max(abs(fsrf2_pmf(model_a, 1.0, 1.0, n) - srf_pmf(params, 1.0, 1.0, n))
              for n in range(-15, 16))
    reports.append(_max_abs(err, 1e-10, criterion="fsrf2 alpha-1 pmf collapse, |n|<=15"))
    # (b) fractional series vs sampler
    model = FsrfModel("II", params, FracOrders(0.7))
    draws = sample_sharded(lambda st, n: fsrf2_sample(model, 1.0, 1.0, st, size=n),
                           cfg.replicates, base.substream(0), cfg.workers)
    analytic = _series_table(lambda n: fsrf2_pmf(model, 1.0, 1.0, n), -8, 8)
    tv = tv_distance(empirical_pmf(draws, -8, 8), analytic)
    reports.append(ComparisonReport(Metric.TV, tv, 0.02,
                                    metadata={"criterion": "fsrf2 series pmf vs sampler"}))
    # (c) pgf/pmf consistency at u = 0.8
    u = 0.8
    series = sum(fsrf2_pmf(model, 1.0, 1.0, n) * u ** n for n in range(-25, 26))
    reports.append(_max_abs(abs(series - fsrf2_pgf(model, u, 1.0, 1.0)), 1e-6,
                            criterion="fsrf2 pgf vs pmf sum at u=0.8"))
    # (d) closed-form moments vs MC
    mean, var = fsrf2_moments(model, 1.0, 1.0)
    reports.append(moment_z_check(draws, mean, var, criterion="fsrf2 mean vs MC"))
    reports.append(variance_z_check(draws, var, criterion="fsrf2 variance vs MC"))
    return reports


def _suite_fsrf3(cfg: McConfig) -> list:
    base = RngStream(cfg.seed, 7)
    reports = []
    # (a) all-orders-1 collapse
    params_a = SkellamParams(2.0, 1.0)
    model_a = FsrfModel("III", params_a, FracOrders(1.0, 1.0, 1.0, 1.0))
    err = max(abs(fsrf3_pmf(model_a, 1.0, 1.0, n) - srf_pmf(params_a, 1.0, 1.0, n))
              for n in range(-5, 6))
    reports.append(_max_abs(err, 1e-8, criterion="fsrf3 orders-1 pmf collapse, |n|<=5"))
    # (b) symmetric case is even in n by construction
    model_s = FsrfModel("III", SkellamParams(0.8, 0.8), FracOrders(0.7, 0.8, 0.7, 0.8))
    err_sym = max(abs(fsrf3_pmf(model_s, 1.0, 1.0, n) - fsrf3_pmf(model_s, 1.0, 1.0, -n))
                  for n in range(1, 5))
    reports.append(_max_abs(err_sym, 0.0, criterion="fsrf3 symmetric case pmf(n)=pmf(-n)"))
    # (c) fractional series vs sampler
    model = FsrfModel("III", SkellamParams(1.0, 0.5), FracOrders(0.7, 0.7, 0.9, 0.9))
    draws = sample_sharded(lambda st, n: fsrf3_sample(model, 1.0, 1.0, st, size=n),
                           cfg.replicates, base.substream(0), cfg.workers)
    analytic = _series_table(lambda n: fsrf3_pmf(model, 1.0, 1.0, n), -5, 5)
    tv = tv_distance(empirical_pmf(draws, -5, 5), analytic)
    reports.append(ComparisonReport(Metric.TV, tv, 0.03,
                                    metadata={"criterion": "fsrf3 series pmf vs sampler"}))
    # (d) closed-form moments vs MC
    p1 = GridPoint(1.0, 1.0)
    mean, var, _ = fsrf3_moments(model, p1, p1)
    reports.append(moment_z_check(draws, mean, var, criterion="fsrf3 mean vs MC"))
    reports.append(variance_z_check(draws, var, criterion="fsrf3 variance vs MC"))
    return reports


def _suite_theorem31(cfg: McConfig) -> list:
    params = GsrfParams(((1.0, 2.0), (-1.0, 1.0)))
    reports = convergence_study(params, 1.0, 1.0, (16, 32, 64), cfg,
                                tv_threshold=0.05)
    tvs = [r.value for r in reports]
    worst_increase = max(max(b - a for a, b in zip(tvs, tvs[1:])), 0.0)
    reports.append(_max_abs(worst_increase, 0.005,
                            criterion="lattice TV nonincreasing in k up to noise allowance"))
    return reports


def _suite_governing_equations(cfg: McConfig) -> list:
    params = SkellamParams(2.0, 1.0)
    points = ((0.4, 1.0, 1.0, 0), (0.8, 0.7, 1.2, 1), (0.25, 1.1, 0.6, -2))
    reports = []
    for u, s, t, n in points:
        r1 = srf_pde_residual(params, u, s, t, 1e-3, n=n)
        r2 = srf_pde_residual(params, u, s, t, 5e-4, n=n)
        ratio_pgf = r1[0] / r2[0]
        ratio_pmf = r1[1] / r2[1]
        reports.append(_max_abs(abs(ratio_pgf - 4.0), 0.5,
                                criterion=f"pgf equation Richardson ratio at u={u}, s={s}, t={t}"))
        reports.append(_max_abs(abs(ratio_pmf - 4.0), 0.5,
                                criterion=f"pmf system Richardson ratio at n={n}, s={s}, t={t}"))
    return reports


def _cf_sup_error(samples: np.ndarray, analytic: Callable[[float], complex],
                  grid: CfGrid) -> float:
    emp = empirical_cf(samples, grid)
    ana = np.asarray([analytic(xi) for xi in grid.xi_values])
    return float(np.abs(emp - ana).max())


def _suite_integrals(cfg: McConfig) -> list:
    base = RngStream(cfg.seed, 10)
    grid = CfGrid.default()
    reports = []
    lam = 1.0
    riemann = IntegralOrders(1.0, 1.0)
    # (a) pathwise integral sampler vs the analytic CF
    ints = sample_sharded(lambda st, n: rl_integral_sample(lam, riemann, 1.0, 1.0, st, size=n),
                          cfg.replicates, base.substream(0), cfg.workers)
    sup = _cf_sup_error(ints, lambda xi: prf_integral_cf(lam, 1.0, 1.0, xi), grid)
    reports.append(ComparisonReport(Metric.CF_SUP, sup, 0.02,
                                    metadata={"criterion": "integral CF identity (Poisson field)"}))
    # (b) scaled compound representation vs the integral sampler
    comp = sample_sharded(
        lambda st, n: scaled_compound_sample(lam, lambda g, k: np.ones(k), 1.0, 1.0, st, size=n),
        cfg.replicates, base.substream(1), cfg.workers)
    emp_a = empirical_cf(ints, grid)
    emp_b = empirical_cf(comp, grid)
    reports.append(ComparisonReport(Metric.CF_SUP, float(np.abs(emp_a - emp_b).max()), 0.02,
                                    metadata={"criterion": "scaled compound vs integral sampler"}))
    # (c) closed-form moments vs MC at two order settings
    for i, orders in enumerate((IntegralOrders(1.0, 1.0), IntegralOrders(0.5, 1.5))):
        draws = ints if i == 0 else sample_sharded(
            lambda st, n: rl_integral_sample(lam, orders, 1.0, 1.0, st, size=n),
            cfg.replicates, base.substream(2), cfg.workers)
        mean, var = rl_integral_moments(lam, orders, 1.0, 1.0)
        tag = f"nu=({orders.nu1},{orders.nu2})"
        reports.append(moment_z_check(draws, mean, var, criterion=f"RL integral mean {tag}"))
        reports.append(variance_z_check(draws, var, criterion=f"RL integral variance {tag}"))
    # (d) generalized field integral CF identity
    gparams = GsrfParams(((1.0, 2.0), (-1.0, 1.0)))
    gints = sample_sharded(lambda st, n: gsrf_integral_sample(gparams, 1.0, 1.0, st, size=n),
                           cfg.replicates, base.substream(3), cfg.workers)
    log_phi = gsrf_log_cf(gparams)
    sup_g = _cf_sup_error(gints, lambda xi: levy_integral_cf(log_phi, 1.0, 1.0, xi), grid)
    reports.append(ComparisonReport(Metric.CF_SUP, sup_g, 0.02,
                                    metadata={"criterion": "integral CF identity (generalized field)"}))
    return reports


def _cov_integral_oracle(s: float, sp: float, alpha: float) -> float:
    """Independent oracle for singular_cov_integral by 128-node Gauss-Legendre.

    x = c u^(1/alpha) turns each piece int_0^c (sigma - x)^alpha x^(alpha-1) dx
    into c^alpha / alpha int_0^1 (sigma - c u^(1/alpha))^alpha du.  A
    coincident piece (sigma = c), whose integrand has a cusp at u = 1, is the
    Beta integral c^(2 alpha) B(alpha, alpha + 1) instead.
    """
    x, w = np.polynomial.legendre.leggauss(128)
    u, w = (x + 1.0) / 2.0, w / 2.0
    c = min(s, sp)
    total = 0.0
    for sigma in (s, sp):
        if sigma == c:
            total += c ** (2.0 * alpha) * math.gamma(alpha) * math.gamma(alpha + 1.0) \
                / math.gamma(2.0 * alpha + 1.0)
        else:
            total += c ** alpha / alpha * float(np.dot(w, (sigma - c * u ** (1.0 / alpha)) ** alpha))
    return total


def _suite_fprf(cfg: McConfig) -> list:
    base = RngStream(cfg.seed, 11)
    lam, alpha, beta = 1.0, 0.7, 0.7
    reports = []
    draws = sample_sharded(lambda st, n: fprf_sample(lam, alpha, beta, 1.0, 1.0, st, size=n),
                           cfg.replicates, base.substream(0), cfg.workers)
    analytic = _series_table(lambda n: fprf_pmf(lam, alpha, beta, 1.0, 1.0, n), 0, 10)
    tv = tv_distance(empirical_pmf(draws, 0, 10), analytic)
    reports.append(ComparisonReport(Metric.TV, tv, 0.02,
                                    metadata={"criterion": "fprf series pmf vs sampler"}))
    p1, p2 = GridPoint(1.0, 1.0), GridPoint(1.5, 1.2)
    mean, var, cov = fprf_moments(lam, alpha, beta, p1, p2)
    reports.append(moment_z_check(draws, mean, var, criterion="fprf mean vs MC"))
    reports.append(variance_z_check(draws, var, criterion="fprf variance vs MC"))
    pairs = sample_sharded(lambda st, n: fprf_sample_pair(lam, alpha, beta, p1, p2, st, size=n),
                           cfg.replicates, base.substream(1), cfg.workers)
    mean2, _, _ = fprf_moments(lam, alpha, beta, p2, p2)
    reports.append(covariance_z_check(pairs[:, 0], pairs[:, 1], mean, mean2, cov,
                                      criterion="fprf covariance vs joint MC"))
    rel = max(abs(singular_cov_integral(a, b, order) / _cov_integral_oracle(a, b, order) - 1.0)
              for a, b, order in ((p1.s, p2.s, alpha), (p1.t, p2.t, beta)))
    reports.append(_max_abs(rel, 1e-9,
                            criterion="covariance kernel closed form vs Gauss-Legendre oracle"))
    return reports


def _suite_specfun(cfg: McConfig) -> list:
    reports = []
    xs = np.linspace(-3.0, 3.0, 13)
    err_ml = max(abs(mittag_leffler3(1.0, 1.0, 1.0, x) - math.exp(x)) for x in xs)
    reports.append(_max_abs(err_ml, 1e-12, criterion="Mittag-Leffler exponential reduction"))
    spec = WrightSpec(((1.0, 1.0), (1.0, 1.0)), ((1.0, 1.0), (1.0, 1.0)))
    err_w = max(abs(wright(spec, x) - math.exp(x)) for x in np.linspace(-1.3, 1.3, 7))
    reports.append(_max_abs(err_w, 1e-12, criterion="Wright exponential reduction"))
    err_sym = max(abs(bessel_i(-n, x) - bessel_i(n, x))
                  for n in range(-10, 11) for x in (0.1, 1.0, 5.0))
    reports.append(_max_abs(err_sym, 0.0, criterion="Bessel integer-order symmetry"))
    # half-order Mittag-Leffler against the erfc identity E_{1/2,1}(-1) = e erfc(1)
    target = math.e * math.erfc(1.0)
    reports.append(_max_abs(abs(mittag_leffler3(0.5, 1.0, 1.0, -1.0) - target), 1e-11,
                            criterion="E_{1/2,1}(-1) vs e erfc(1) oracle"))
    err_one = max(abs(mittag_leffler2(a, 0.0) - 1.0) for a in (0.3, 0.6, 1.0))
    reports.append(_max_abs(err_one, 0.0, criterion="E_alpha(0) = 1"))
    worst = 0.0
    for a in (0.5, 0.7, 0.9, 1.0):
        for x in (-4.0, -2.0, -1.0, -0.1):
            v = mittag_leffler2(a, x)
            worst = max(worst, max(0.0, v - 1.0), max(0.0, -v))
    reports.append(_max_abs(worst, 0.0,
                            criterion="complete monotonicity bound 0 < E_alpha(x) <= 1 for x < 0"))
    return reports


SUITES: dict = {
    "srf-oracle": _suite_srf_oracle,
    "srf-mc": _suite_srf_mc,
    "compound": _suite_compound,
    "inverse-subordinator": _suite_inverse_subordinator,
    "fsrf1": _suite_fsrf1,
    "fsrf2": _suite_fsrf2,
    "fsrf3": _suite_fsrf3,
    "theorem31": _suite_theorem31,
    "governing-equations": _suite_governing_equations,
    "integrals": _suite_integrals,
    "fprf": _suite_fprf,
    "specfun": _suite_specfun,
}


def suite_names() -> list:
    return list(SUITES)


def run_suite(name: str, seed: int = DEFAULT_SEED, workers: int = 1,
              replicates: int = 100_000) -> SuiteResult:
    if name not in SUITES:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; available: {', '.join(suite_names())}"
        )
    cfg = McConfig(replicates, seed, workers)
    start = time.perf_counter()
    reports = SUITES[name](cfg)
    return SuiteResult(name, tuple(reports), time.perf_counter() - start)
