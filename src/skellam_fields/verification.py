"""Statistical machinery shared by the verification suites: empirical pmf
and CF estimation, total-variation and z-score gates, deterministic sharded
Monte Carlo, and the lattice convergence study.

Replicates are drawn in fixed-size shards, one substream per shard, and
combined in shard order, so every report is reproducible and independent of
the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError, WindowMismatchError
from .rng import RngStream
from .skellam_field import (
    GsrfParams,
    LatticeSpec,
    PmfTable,
    SkellamParams,
    gsrf_count,
    lattice_sample,
    srf_pmf_table,
)
from .sampling import BoxRegion

__all__ = [
    "DEFAULT_SEED",
    "McConfig",
    "Metric",
    "ComparisonReport",
    "empirical_pmf",
    "tv_distance",
    "empirical_cf",
    "moment_z_check",
    "variance_z_check",
    "covariance_z_check",
    "convergence_study",
    "sample_sharded",
    "Z_GATE",
]

# Two-sided 4-sigma moment gates keep the whole suite's false-failure
# probability under control across many simultaneous checks.
Z_GATE = 4.0

_SHARD = 8192

# Base seed of the verification suites and of the CLI's Monte Carlo commands.
DEFAULT_SEED = 20250811


@dataclass(frozen=True)
class McConfig:
    """Replicate count, base seed and worker fan-out for a Monte Carlo run."""

    replicates: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.replicates < 1:
            raise ValidationError("replicates: must be >= 1")
        if self.workers < 1:
            raise ValidationError("workers: must be >= 1")


class Metric(str, Enum):
    TV = "TV"
    CF_SUP = "CF_SUP"
    MOMENT_Z = "MOMENT_Z"
    MAX_ABS_ERR = "MAX_ABS_ERR"


@dataclass(frozen=True)
class ComparisonReport:
    """One gate: passes exactly when value <= threshold."""

    metric: Metric
    value: float
    threshold: float
    passed: bool = field(init=False)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.value < 0.0 or self.threshold < 0.0:
            raise ValidationError("value/threshold: must be >= 0")
        object.__setattr__(self, "passed", bool(self.value <= self.threshold))

    def to_dict(self) -> dict:
        return {
            "metric": self.metric.value,
            "value": self.value,
            "threshold": self.threshold,
            "pass": self.passed,
            "metadata": self.metadata,
        }


def sample_sharded(draw: Callable[[RngStream, int], np.ndarray], total: int,
                   base: RngStream, workers: int = 1) -> np.ndarray:
    """Draw ``total`` replicates in fixed-size shards, one substream each.

    ``draw(stream, n)`` must return n replicates along the first axis.  The
    shard layout is independent of ``workers``, and shard outputs are
    concatenated in shard order, so results match exactly for any worker
    count.
    """
    if total < 1:
        raise ValidationError("total: must be >= 1")
    sizes = [(_SHARD if (i + 1) * _SHARD <= total else total - i * _SHARD)
             for i in range((total + _SHARD - 1) // _SHARD)]

    def run(i: int) -> np.ndarray:
        return np.asarray(draw(base.substream(i), sizes[i]))

    if workers == 1:
        parts = [run(i) for i in range(len(sizes))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, range(len(sizes))))
    return np.concatenate(parts, axis=0)


def empirical_pmf(samples: Sequence[int], n_min: int, n_max: int) -> PmfTable:
    """Relative frequencies on the window; out-of-window mass goes to the tail."""
    arr = np.asarray(samples)
    if arr.size == 0:
        raise ValidationError("samples: must be nonempty")
    if n_min > n_max:
        raise ValidationError("n_min/n_max: window must be nonempty")
    vals = np.rint(arr).astype(np.int64)
    inside = (vals >= n_min) & (vals <= n_max)
    counts = np.bincount(vals[inside] - n_min, minlength=n_max - n_min + 1)
    probs = counts / arr.size
    tail = 1.0 - inside.mean()
    return PmfTable(n_min, n_max, probs, tail)


def tv_distance(p: PmfTable, q: PmfTable) -> float:
    """Half the l1 distance on the common window plus half the tail gap."""
    if (p.n_min, p.n_max) != (q.n_min, q.n_max):
        raise WindowMismatchError(
            f"windows differ: [{p.n_min},{p.n_max}] vs [{q.n_min},{q.n_max}]"
        )
    return 0.5 * float(np.abs(p.probs - q.probs).sum()) + 0.5 * abs(p.tail_mass - q.tail_mass)


def empirical_cf(samples: Sequence[float], grid) -> np.ndarray:
    """(1/N) sum e^{i xi X} per grid point; exactly 1 at xi = 0."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValidationError("samples: must be nonempty")
    xi = np.asarray(grid.xi_values)
    out = np.exp(1j * np.outer(xi, arr)).mean(axis=1)
    out[xi == 0.0] = 1.0 + 0.0j
    return out


def moment_z_check(samples: Sequence[float], analytic_mean: float,
                   analytic_var: float, **metadata) -> ComparisonReport:
    """z-gate of the sample mean against its analytic mean and variance."""
    if not analytic_var > 0.0:
        raise ValidationError("analytic_var: must be > 0")
    arr = np.asarray(samples, dtype=float)
    z = abs(arr.mean() - analytic_mean) / math.sqrt(analytic_var / arr.size)
    return ComparisonReport(Metric.MOMENT_Z, float(z), Z_GATE,
                            metadata={"kind": "mean", **metadata})


def variance_z_check(samples: Sequence[float], analytic_var: float,
                     **metadata) -> ComparisonReport:
    """z-gate of the sample variance, with a plug-in fourth-moment standard error."""
    arr = np.asarray(samples, dtype=float)
    v = float(arr.var(ddof=1))
    centered = arr - arr.mean()
    m4 = float((centered ** 4).mean())
    se = math.sqrt(max(m4 - v * v, 1e-300) / arr.size)
    z = abs(v - analytic_var) / se
    return ComparisonReport(Metric.MOMENT_Z, float(z), Z_GATE,
                            metadata={"kind": "variance", **metadata})


def covariance_z_check(x: Sequence[float], y: Sequence[float],
                       analytic_mean_x: float, analytic_mean_y: float,
                       analytic_cov: float, **metadata) -> ComparisonReport:
    """z-gate of the empirical covariance built around the analytic means."""
    w = (np.asarray(x, dtype=float) - analytic_mean_x) \
        * (np.asarray(y, dtype=float) - analytic_mean_y)
    se = float(w.std(ddof=1)) / math.sqrt(w.size)
    z = abs(float(w.mean()) - analytic_cov) / se
    return ComparisonReport(Metric.MOMENT_Z, float(z), Z_GATE,
                            metadata={"kind": "covariance", **metadata})


def _tv_noise_floor(reference: PmfTable, n: int) -> float:
    """Expected TV between the exact law and an n-sample empirical pmf."""
    p = reference.probs
    floor = 0.5 * float(np.sqrt(p * (1.0 - p) / n).sum())
    ptail = reference.tail_mass
    return floor + 0.5 * math.sqrt(max(ptail * (1.0 - ptail), 0.0) / n)


def convergence_study(params: GsrfParams, s: float, t: float,
                      k_values: Sequence[int], cfg: McConfig,
                      tv_threshold: float = 0.05,
                      window: tuple = (-30, 30)) -> list:
    """Per-k TV distance between the lattice field and the exact field law.

    The reference is the analytic Skellam table when the jump set is
    {+1, -1}; otherwise a direct-sampler empirical table drawn with the same
    replicate count.  Reports carry the Monte Carlo noise floor estimate.
    """
    if list(k_values) != sorted(set(k_values)):
        raise ValidationError("k_values: must be strictly increasing")
    n_min, n_max = window
    base = RngStream(cfg.seed, 0x636F6E76)  # stream domain reserved for this study
    jumps = dict(params.jumps)
    if set(jumps) == {1.0, -1.0}:
        reference = srf_pmf_table(SkellamParams(jumps[1.0], jumps[-1.0]), s, t, n_min, n_max)
    else:
        region = BoxRegion((0.0, 0.0), (s, t))
        draws = sample_sharded(lambda st_, n: gsrf_count(params, region, st_, size=n),
                               cfg.replicates, base.substream(10 ** 6), cfg.workers)
        reference = empirical_pmf(draws, n_min, n_max)
    floor = _tv_noise_floor(reference, cfg.replicates)
    reports = []
    for i, k in enumerate(k_values):
        spec = LatticeSpec(k)
        draws = sample_sharded(lambda st_, n: lattice_sample(spec, params, s, t, st_, size=n),
                               cfg.replicates, base.substream(i), cfg.workers)
        tv = tv_distance(empirical_pmf(draws, n_min, n_max), reference)
        reports.append(ComparisonReport(Metric.TV, tv, tv_threshold,
                                        metadata={"k": int(k), "noise_floor": floor}))
    return reports
