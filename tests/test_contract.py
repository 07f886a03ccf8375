"""The public-entry contract at the edges of every argument: a pmf, sampler or
moment function either returns finite values (pmf entries in [0, 1]) or raises a
SkellamFieldsError subclass that names the cause, never a bare numpy or math
error and never a numpy RuntimeWarning ahead of the refusal.  The grid is
deterministic because the edge values are the point."""

import itertools
import math

import numpy as np
import pytest

from skellam_fields import (
    ArgumentRangeError,
    BoxRegion,
    FracOrders,
    FsrfModel,
    GridPoint,
    GsrfParams,
    LatticeSpec,
    RngStream,
    SkellamFieldsError,
    SkellamParams,
    ValidationError,
    fprf_moments,
    fprf_pmf,
    fprf_sample,
    fprf_sample_pair,
    fsrf1_moments,
    fsrf1_pmf,
    fsrf1_sample,
    fsrf2_moments,
    fsrf2_pmf,
    fsrf2_sample,
    fsrf3_moments,
    fsrf3_pmf,
    fsrf3_sample,
    gsrf_compound_sample,
    gsrf_count,
    gsrf_integral_sample,
    gsrf_moments,
    lattice_sample,
    sample_point_field,
    sample_poisson,
    scaled_compound_sample,
    srf_pmf,
)
from skellam_fields.field_integrals import IntegralOrders, rl_integral_moments, rl_integral_sample

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

EDGES = (-1.0, 0.0, 1e-300, 1.0, 1e300, math.inf, math.nan)
GRID = list(itertools.product(EDGES, repeat=3))  # (s, t, rate)
SIZE = 4


def _kind(kind, rate):
    orders = {"I": FracOrders(0.7, 0.8), "II": FracOrders(0.7),
              "III": FracOrders(0.7, 0.8, 0.9, 0.6)}[kind]
    return FsrfModel(kind, SkellamParams(rate, rate), orders)


PMFS = {
    "srf_pmf": (lambda s, t, r, n: srf_pmf(SkellamParams(r, r), s, t, n), (0, 1, -2)),
    "fprf_pmf": (lambda s, t, r, n: fprf_pmf(r, 0.7, 0.8, s, t, n), (0, 1)),
    "fsrf1_pmf": (lambda s, t, r, n: fsrf1_pmf(_kind("I", r), s, t, n), (0, 1, -2)),
    "fsrf2_pmf": (lambda s, t, r, n: fsrf2_pmf(_kind("II", r), s, t, n), (0, 1, -2)),
    "fsrf3_pmf": (lambda s, t, r, n: fsrf3_pmf(_kind("III", r), s, t, n), (0, 1, -2)),
}


def _jumps(r):
    return GsrfParams(((1.0, r), (-1.0, r)))


def _box(s, t):
    return BoxRegion((0.0, 0.0), (s, t))


SAMPLERS = {
    "sample_poisson": lambda s, t, r, rng: sample_poisson(r * s * t, rng, size=SIZE),
    "sample_point_field": lambda s, t, r, rng: sample_point_field(r, _box(s, t), rng).points,
    "gsrf_count": lambda s, t, r, rng: gsrf_count(_jumps(r), _box(s, t), rng, size=SIZE),
    "gsrf_compound_sample": lambda s, t, r, rng: gsrf_compound_sample(
        _jumps(r), _box(s, t), rng, size=SIZE),
    "fprf_sample": lambda s, t, r, rng: fprf_sample(r, 0.7, 0.8, s, t, rng, size=SIZE),
    # p1 = p2, so each axis is one exact draw and the path sampler never runs.
    "fprf_sample_pair": lambda s, t, r, rng: fprf_sample_pair(
        r, 0.7, 0.8, GridPoint(s, t), GridPoint(s, t), rng, SIZE),
    "fsrf1_sample": lambda s, t, r, rng: fsrf1_sample(_kind("I", r), s, t, rng, size=SIZE),
    "fsrf2_sample": lambda s, t, r, rng: fsrf2_sample(_kind("II", r), s, t, rng, size=SIZE),
    "fsrf3_sample": lambda s, t, r, rng: fsrf3_sample(_kind("III", r), s, t, rng, size=SIZE),
    "rl_integral_sample": lambda s, t, r, rng: rl_integral_sample(
        r, IntegralOrders(0.5, 1.5), s, t, rng, size=SIZE),
    "gsrf_integral_sample": lambda s, t, r, rng: gsrf_integral_sample(
        _jumps(r), s, t, rng, size=SIZE),
    "scaled_compound_sample": lambda s, t, r, rng: scaled_compound_sample(
        r, lambda gen, n: np.ones(n), s, t, rng, size=SIZE),
}


# Two-point moments pair the grid point with itself (the coincident kernel)
# and with the unit point (a far-apart pair at the large edges).
MOMENTS = {
    "fprf_moments": lambda s, t, r, p2: fprf_moments(r, 0.7, 0.8, GridPoint(s, t), p2(s, t)),
    "fsrf1_moments": lambda s, t, r, p2: fsrf1_moments(
        _kind("I", r), GridPoint(s, t), p2(s, t)),
    "fsrf2_moments": lambda s, t, r, p2: fsrf2_moments(_kind("II", r), s, t),
    "fsrf3_moments": lambda s, t, r, p2: fsrf3_moments(
        _kind("III", r), GridPoint(s, t), p2(s, t)),
    "gsrf_moments": lambda s, t, r, p2: gsrf_moments(
        _jumps(r), _box(s, t), _box(p2(s, t).s, p2(s, t).t)),
    "rl_integral_moments": lambda s, t, r, p2: rl_integral_moments(
        r, IntegralOrders(0.5, 1.5), s, t),
}
SECOND_POINTS = {"coincident": GridPoint, "unit": lambda s, t: GridPoint(1.0, 1.0)}


def _breaches(call, check):
    """The grid points where ``call`` raises outside the package's error
    types or returns a value that ``check`` refuses."""
    out = []
    for s, t, rate in GRID:
        try:
            value = call(s, t, rate)
        except SkellamFieldsError:
            continue
        except Exception as e:  # any other type breaks the contract
            out.append(((s, t, rate), f"{type(e).__name__}: {e}"))
            continue
        if not check(value):
            out.append(((s, t, rate), f"returned {value!r}"))
    return out


@pytest.mark.parametrize("name", PMFS)
def test_pmf_contract(name):
    pmf, ns = PMFS[name]
    for n in ns:
        breaches = _breaches(lambda s, t, r: pmf(s, t, r, n),
                             lambda p: math.isfinite(p) and 0.0 <= p <= 1.0)
        assert not breaches, f"{name}(n={n}): {breaches[:5]}"


@pytest.mark.parametrize("name", SAMPLERS)
def test_sampler_contract(name):
    sampler = SAMPLERS[name]
    breaches = _breaches(lambda s, t, r: sampler(s, t, r, RngStream(1)),
                         lambda draws: bool(np.all(np.isfinite(draws))))
    assert not breaches, f"{name}: {breaches[:5]}"


@pytest.mark.parametrize("second", SECOND_POINTS)
@pytest.mark.parametrize("name", MOMENTS)
def test_moments_contract(name, second):
    moments, p2 = MOMENTS[name], SECOND_POINTS[second]
    breaches = _breaches(lambda s, t, r: moments(s, t, r, p2),
                         lambda values: all(isinstance(v, float) and math.isfinite(v)
                                            for v in values))
    assert not breaches, f"{name}: {breaches[:5]}"


@pytest.mark.parametrize("call", [
    lambda: fprf_pmf(1.0, 0.7, 0.7, math.nan, 1.0, 0),
    lambda: srf_pmf(SkellamParams(1.0, 1.0), math.nan, 1.0, 0),
    lambda: rl_integral_sample(1.0, IntegralOrders(1.0, 1.0), math.nan, 1.0, RngStream(1)),
    lambda: lattice_sample(LatticeSpec(4), _jumps(1.0), 1.0, math.nan, RngStream(1)),
    lambda: scaled_compound_sample(1.0, lambda gen, n: np.ones(n), math.nan, 1.0, RngStream(1)),
], ids=["fprf_pmf", "srf_pmf", "rl_integral_sample", "lattice_sample", "scaled_compound_sample"])
def test_nan_time_is_named(call):
    with pytest.raises(ValidationError, match="s/t"):
        call()


def test_gsrf_integral_kernel_overflow_is_named():
    # a mean of 1e4 points per jump whose kernels (s-x)(t-y) pass 1e308
    params = GsrfParams(((1.0, 1e-306), (-1.0, 1e-306)))
    with pytest.raises(ArgumentRangeError, match="double range"):
        gsrf_integral_sample(params, 1e155, 1e155, RngStream(1), size=4)
