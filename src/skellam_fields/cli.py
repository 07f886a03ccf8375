"""Command-line front end.

Subcommands: pmf, sample, moments, cf, converge, verify.  Configuration is a
flat key=value document plus command-line overrides; no positional arguments
beyond the subcommand.  All floating-point output is printed with 17
significant digits so files round-trip losslessly, and fixed seeds reproduce
output files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ArgumentRangeError, SkellamFieldsError, UnknownSuiteError, ValidationError
from .field_integrals import IntegralOrders, gsrf_log_cf, levy_integral_cf, prf_integral_cf, rl_integral_sample, rl_integral_moments
from .fractional_field import (
    FracOrders,
    FsrfModel,
    fprf_moments,
    fprf_pmf,
    fprf_sample,
    fsrf1_moments,
    fsrf1_pmf,
    fsrf1_sample,
    fsrf2_moments,
    fsrf2_pmf,
    fsrf2_sample,
    fsrf3_moments,
    fsrf3_pmf,
    fsrf3_sample,
)
from .rng import RngStream
from .sampling import BoxRegion, sample_poisson
from .skellam_field import (
    FLOAT_FORMAT,
    GridPoint,
    GsrfParams,
    PmfTable,
    SkellamParams,
    _format_float as _fmt,
    gsrf_count,
    gsrf_moments,
    srf_pmf_table,
)
from .suites import DEFAULT_SEED, run_suite, suite_names
from .verification import McConfig, convergence_study


_EXACT_INT = 2.0 ** 53  # below it in magnitude, every integer is a float64


def _integer_draws(draws: np.ndarray) -> np.ndarray | None:
    """The draws as int64 when "%d" prints each one as the per-value form
    does, else None: an integer dtype that int64 holds, or float64 draws that
    are integral, below 2^53 in magnitude and not -0.0 (there FLOAT_FORMAT
    prints the digits of "%d")."""
    if not len(draws):
        return None
    if np.issubdtype(draws.dtype, np.integer) and np.can_cast(draws.dtype, np.int64):
        return draws.astype(np.int64, copy=False)
    if draws.dtype != np.float64 or not (-_EXACT_INT < draws.min() and draws.max() < _EXACT_INT):
        return None
    ints = draws.astype(np.int64)
    # Bit equality of the round trip rules out fractions and -0.0 at once.
    return ints if np.array_equal(ints.astype(np.float64).view(np.int64),
                                  draws.view(np.int64)) else None


def _format_draws(draws: np.ndarray) -> str:
    """One line per draw: integers in full, floats with FLOAT_FORMAT, the
    bytes of the per-value form.

    Integer-valued draws over a range no wider than the array (the counts of
    every field) are written through a table of one "%d" line per value in
    [min, max], with one gather and one join.  Other draws (real-valued,
    non-finite, -0.0, a wide range, none) are built by a single %-format over
    the whole array.
    """
    ints = _integer_draws(draws)
    if ints is not None:
        lo, hi = int(ints.min()), int(ints.max())
        if hi - lo <= len(ints):
            table = np.array(["%d\n" % v for v in range(lo, hi + 1)], dtype=object)
            return "".join(table[ints - lo].tolist())
    line = ("%d" if np.issubdtype(draws.dtype, np.integer) else FLOAT_FORMAT) + "\n"
    return (line * len(draws)) % tuple(draws.tolist())


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    out: dict = {}
    for ln_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {ln_no}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValidationError(f"config line {ln_no}: empty key")
        out[key] = value
    return out


@dataclass
class ExperimentConfig:
    """Validated experiment description shared by all subcommands."""

    model: str
    raw: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValidationError(f"model: must be one of {', '.join(MODELS)}")
        unknown = set(self.raw).difference(_SHARED_KEYS, REGISTRY[self.model].keys)
        if unknown:
            raise ValidationError(f"config: unknown keys {sorted(unknown)} for model {self.model}")

    # -- typed accessors ----------------------------------------------------
    def _get(self, key, cast, default=None, required=False):
        if key not in self.raw:
            if required:
                raise ValidationError(f"{key}: required for model {self.model}")
            return default
        try:
            return cast(self.raw[key])
        except ValidationError:
            raise
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{key}: {exc}") from exc

    def floatval(self, key, default=None, required=False):
        return self._get(key, float, default, required)

    def intval(self, key, default=None, required=False):
        return self._get(key, lambda v: int(str(v), 0), default, required)

    def strval(self, key, default=None, required=False):
        return self._get(key, str, default, required)

    # -- derived structures -------------------------------------------------
    @property
    def grid_point(self) -> GridPoint:
        return GridPoint(self.floatval("s", required=True),
                         self.floatval("t", required=True))

    @property
    def second_point(self) -> GridPoint | None:
        if "s2" not in self.raw and "t2" not in self.raw:
            return None
        return GridPoint(self.floatval("s2", required=True),
                         self.floatval("t2", required=True))

    @property
    def skellam(self) -> SkellamParams:
        return SkellamParams(self.floatval("lambda1", required=True),
                             self.floatval("lambda2", required=True))

    @property
    def rate(self) -> float:
        lam = self.floatval("lambda", required=True)
        if not lam > 0.0:
            raise ValidationError("lambda: must be > 0")
        return lam

    @property
    def gsrf(self) -> GsrfParams:
        spec = self.strval("jumps", required=True)
        jumps = []
        for item in spec.split(","):
            if ":" not in item:
                raise ValidationError("jumps: expected 'jump:rate' pairs separated by commas")
            j, lam = item.split(":", 1)
            jumps.append((float(j), float(lam)))
        return GsrfParams(tuple(jumps))

    @property
    def orders(self) -> FracOrders:
        return FracOrders(self.floatval("alpha", 1.0), self.floatval("beta", 1.0),
                          self.floatval("alpha2"), self.floatval("beta2"))

    @property
    def integral_orders(self) -> IntegralOrders:
        return IntegralOrders(self.floatval("nu1", 1.0), self.floatval("nu2", 1.0))

    @property
    def window(self) -> tuple:
        n_min = self.intval("n_min", -10)
        n_max = self.intval("n_max", 10)
        if n_min > n_max:
            raise ValidationError("n_min: must be <= n_max")
        return n_min, n_max

    @property
    def mc(self) -> McConfig:
        return McConfig(self.intval("replicates", 1000),
                        self.intval("seed", DEFAULT_SEED),
                        self.intval("workers", 1))

    @cached_property
    def fsrf_model(self) -> FsrfModel:
        kind = {"FSRF1": "I", "FSRF2": "II", "FSRF3": "III"}[self.model]
        return FsrfModel(kind, self.skellam, self.orders)

    def xi_grid(self) -> list:
        raw = self.strval("xi", "-2,-1.5,-1,-0.5,0,0.5,1,1.5,2")
        return [float(v) for v in raw.split(",")]

    def k_values(self) -> list:
        raw = self.strval("k_values", "16,32,64")
        return [int(v) for v in raw.split(",")]


def load_config(args) -> ExperimentConfig:
    raw: dict = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw.update(parse_config_text(fh.read()))
    for item in args.set or []:
        if "=" not in item:
            raise ValidationError(f"--set: expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    if args.seed is not None:
        raw["seed"] = str(args.seed)
    if getattr(args, "workers", None) is not None:
        raw["workers"] = str(args.workers)
    model = raw.pop("model", None)
    if model is None:
        raise ValidationError("model: required (set it in the config or via --set model=...)")
    return ExperimentConfig(str(model).upper(), raw)


def _write_output(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Model registry.  Entries call the library through this module's globals at
# call time (lambdas and small functions, never stored function objects), so
# a name patched on this module reaches every command.


@dataclass(frozen=True)
class ModelSpec:
    """What the CLI can do with one model: the config keys the model reads
    and one callable per command, None where the model defines nothing.

    pmf(cfg, p, ns) -> PmfTable over the range ``ns`` at point p
    sample(cfg, p, rng, n) -> array of n draws at point p
    moments(cfg, p, p2) -> dict of moments; p2 is None for one point
    cf(cfg, p, xis) -> the field integral's CF values at ``xis``
    field(cfg) -> GsrfParams of the jump field ``converge`` refines
    """

    keys: tuple
    pmf: Callable | None = None
    sample: Callable | None = None
    moments: Callable | None = None
    cf: Callable | None = None
    field: Callable | None = None


def _box(p: GridPoint) -> BoxRegion:
    return BoxRegion((0.0, 0.0), (p.s, p.t))


def _named(values) -> dict:
    return dict(zip(("mean", "var", "cov"), values))


def _clamped(probs):
    """pmf callable from one that lists the window's point probabilities.

    Fractional series carry up to ~1e-6 of cancellation noise, which can leave
    tiny negative far-tail entries; they are clamped to zero, and anything
    worse is a real error and is kept.
    """
    def pmf(cfg, p, ns):
        values = [max(0.0, v) if v > -1e-4 else v for v in probs(cfg, p, ns)]
        return PmfTable.from_probs(ns[0], values)
    return pmf


def _counts(cfg, ns: range) -> range:
    if ns[0] < 0:
        raise ValidationError(f"n_min: must be >= 0 for {cfg.model}")
    return ns


def _fprf_params(cfg) -> tuple:
    o = cfg.orders
    return cfg.rate, o.alpha, o.beta


def _prf_probs(cfg, p, ns) -> list:
    ns = _counts(cfg, ns)
    mu = cfg.rate * p.s * p.t
    return [math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1)) if mu > 0
            else (1.0 if n == 0 else 0.0) for n in ns]


def _fprf_probs(cfg, p, ns) -> list:
    ns = _counts(cfg, ns)
    lam, alpha, beta = _fprf_params(cfg)
    return [fprf_pmf(lam, alpha, beta, p.s, p.t, n) for n in ns]


def _prf_moments(cfg, p, p2) -> dict:
    lam = cfg.rate
    out = {"mean": lam * p.s * p.t, "var": lam * p.s * p.t}
    if p2:
        out["cov"] = lam * min(p.s, p2.s) * min(p.t, p2.t)
    if not all(map(math.isfinite, out.values())):
        raise ArgumentRangeError("PRF moments: a moment leaves the double range")
    return out


def _gsrf_moments(params, p, p2) -> dict:
    return _named(gsrf_moments(params, _box(p), _box(p2 or p)))


def _prf_cf(cfg, p, xis) -> list:
    return [prf_integral_cf(cfg.rate, p.s, p.t, xi) for xi in xis]


def _gsrf_cf(cfg, p, xis) -> list:
    log_phi = gsrf_log_cf(cfg.gsrf)
    return [levy_integral_cf(log_phi, p.s, p.t, xi) for xi in xis]


_SKELLAM_KEYS = ("lambda1", "lambda2")

REGISTRY = {
    "PRF": ModelSpec(
        ("lambda",),
        pmf=_clamped(_prf_probs),
        sample=lambda cfg, p, rng, n: sample_poisson(cfg.rate * p.s * p.t, rng, size=n),
        moments=_prf_moments,
        cf=_prf_cf),
    "FPRF": ModelSpec(
        ("lambda", "alpha", "beta"),
        pmf=_clamped(_fprf_probs),
        sample=lambda cfg, p, rng, n: fprf_sample(*_fprf_params(cfg), p.s, p.t, rng, size=n),
        moments=lambda cfg, p, p2: _named(fprf_moments(*_fprf_params(cfg), p, p2 or p))),
    "GSRF": ModelSpec(
        ("jumps",),
        sample=lambda cfg, p, rng, n: gsrf_count(cfg.gsrf, _box(p), rng, size=n),
        moments=lambda cfg, p, p2: _gsrf_moments(cfg.gsrf, p, p2),
        cf=_gsrf_cf,
        field=lambda cfg: cfg.gsrf),
    "SRF": ModelSpec(
        _SKELLAM_KEYS,
        pmf=lambda cfg, p, ns: srf_pmf_table(cfg.skellam, p.s, p.t, ns[0], ns[-1]),
        sample=lambda cfg, p, rng, n: gsrf_count(cfg.skellam.to_gsrf(), _box(p), rng, size=n),
        moments=lambda cfg, p, p2: _gsrf_moments(cfg.skellam.to_gsrf(), p, p2),
        field=lambda cfg: cfg.skellam.to_gsrf()),
    "FSRF1": ModelSpec(
        _SKELLAM_KEYS + ("alpha", "beta"),
        pmf=_clamped(lambda cfg, p, ns: [fsrf1_pmf(cfg.fsrf_model, p.s, p.t, n) for n in ns]),
        sample=lambda cfg, p, rng, n: fsrf1_sample(cfg.fsrf_model, p.s, p.t, rng, size=n),
        moments=lambda cfg, p, p2: _named(fsrf1_moments(cfg.fsrf_model, p, p2 or p))),
    "FSRF2": ModelSpec(
        _SKELLAM_KEYS + ("alpha",),
        pmf=_clamped(lambda cfg, p, ns: [fsrf2_pmf(cfg.fsrf_model, p.s, p.t, n) for n in ns]),
        sample=lambda cfg, p, rng, n: fsrf2_sample(cfg.fsrf_model, p.s, p.t, rng, size=n),
        moments=lambda cfg, p, p2: _named(fsrf2_moments(cfg.fsrf_model, p.s, p.t))),
    "FSRF3": ModelSpec(
        _SKELLAM_KEYS + ("alpha", "beta", "alpha2", "beta2"),
        pmf=_clamped(lambda cfg, p, ns: [fsrf3_pmf(cfg.fsrf_model, p.s, p.t, n) for n in ns]),
        sample=lambda cfg, p, rng, n: fsrf3_sample(cfg.fsrf_model, p.s, p.t, rng, size=n),
        moments=lambda cfg, p, p2: _named(fsrf3_moments(cfg.fsrf_model, p, p2 or p))),
    "INTEGRAL": ModelSpec(
        ("lambda", "nu1", "nu2"),
        sample=lambda cfg, p, rng, n: rl_integral_sample(cfg.rate, cfg.integral_orders,
                                                         p.s, p.t, rng, size=n),
        moments=lambda cfg, p, p2: _named(rl_integral_moments(cfg.rate, cfg.integral_orders,
                                                              p.s, p.t)),
        cf=_prf_cf),
}

MODELS = tuple(REGISTRY)

# Keys every model accepts: points, pmf window, Monte Carlo controls, the CF
# grid and the lattice refinement levels.
_SHARED_KEYS = (
    "model", "s", "t", "s2", "t2", "n_min", "n_max",
    "replicates", "seed", "workers",
    "xi", "k_values",
)


def _handler(cfg: ExperimentConfig, command: str, attr: str | None = None):
    """The registry callable behind ``command`` (the ``attr`` field, if named)."""
    fn = getattr(REGISTRY[cfg.model], attr or command)
    if fn is None:
        raise ValidationError(f"model: {command} is not defined for {cfg.model}")
    return fn


def cmd_pmf(args) -> int:
    cfg = load_config(args)
    n_min, n_max = cfg.window
    p = cfg.grid_point
    table = _handler(cfg, "pmf")(cfg, p, range(n_min, n_max + 1))
    _write_output(table.to_json() + "\n" if args.format == "json" else table.to_csv(),
                  args.output)
    return 0


def cmd_sample(args) -> int:
    cfg = load_config(args)
    mc = cfg.mc
    p = cfg.grid_point
    draws = _handler(cfg, "sample")(cfg, p, RngStream(mc.seed), mc.replicates)
    _write_output(_format_draws(draws), args.output)
    return 0


def cmd_moments(args) -> int:
    cfg = load_config(args)
    p = cfg.grid_point
    moments = _handler(cfg, "moments")(cfg, p, cfg.second_point)
    if args.format == "json":
        text = json.dumps({k: float(v) for k, v in moments.items()}) + "\n"
    else:
        keys = list(moments)
        text = ",".join(keys) + "\n" + ",".join(_fmt(moments[k]) for k in keys) + "\n"
    _write_output(text, args.output)
    return 0


def cmd_cf(args) -> int:
    cfg = load_config(args)
    p = cfg.grid_point
    xis = cfg.xi_grid()
    values = _handler(cfg, "cf")(cfg, p, xis)
    if args.format == "json":
        rows = [{"xi": xi, "re": v.real, "im": v.imag} for xi, v in zip(xis, values)]
        text = json.dumps(rows) + "\n"
    else:
        lines = ["xi,re,im"]
        lines += [f"{_fmt(xi)},{_fmt(v.real)},{_fmt(v.imag)}" for xi, v in zip(xis, values)]
        text = "\n".join(lines) + "\n"
    _write_output(text, args.output)
    return 0


def cmd_converge(args) -> int:
    cfg = load_config(args)
    params = _handler(cfg, "converge", "field")(cfg)
    p = cfg.grid_point
    reports = convergence_study(params, p.s, p.t, cfg.k_values(), cfg.mc)
    if args.format == "json":
        text = json.dumps([r.to_dict() for r in reports]) + "\n"
    else:
        lines = ["k,tv,threshold,noise_floor,pass"]
        for r in reports:
            lines.append(f"{r.metadata['k']},{_fmt(r.value)},{_fmt(r.threshold)},"
                         f"{_fmt(r.metadata['noise_floor'])},{str(r.passed).lower()}")
        text = "\n".join(lines) + "\n"
    _write_output(text, args.output)
    return 0 if all(r.passed for r in reports) else 1


def cmd_verify(args) -> int:
    names = suite_names() if args.suite == "all" else [args.suite]
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    results = []
    for name in names:
        result = run_suite(name, seed=seed, workers=args.workers or 1)
        results.append(result)
        for rep in result.reports:
            status = "pass" if rep.passed else "FAIL"
            label = rep.metadata.get("criterion", rep.metric.value)
            print(f"[{status}] {result.name}: {label}: "
                  f"{rep.metric.value}={rep.value:.3g} <= {rep.threshold:.3g}")
        print(f"suite {result.name}: {'pass' if result.passed else 'FAIL'} "
              f"({result.elapsed_s:.1f}s)")
    if args.output is not None:
        payload = json.dumps([r.to_dict() for r in results], indent=2) + "\n"
        _write_output(payload, args.output)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skellam-fields",
        description="Skellam and fractional Skellam random fields: tables, samples, "
                    "moments, characteristic functions and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, workers):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--seed", type=lambda v: int(v, 0), help="64-bit RNG seed")
        if workers:
            p.add_argument("--workers", type=int, help="Monte Carlo worker threads")
        p.add_argument("--output", "-o", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    for name, fn in (("pmf", cmd_pmf), ("sample", cmd_sample), ("moments", cmd_moments),
                     ("cf", cmd_cf), ("converge", cmd_converge)):
        p = sub.add_parser(name, help=f"{name} command")
        common(p, workers=name == "converge")
        p.set_defaults(func=fn)

    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument("--suite", required=True,
                    help="suite name or 'all'; see --list via an unknown name")
    pv.add_argument("--seed", type=lambda v: int(v, 0), help="64-bit RNG seed")
    pv.add_argument("--workers", type=int, help="Monte Carlo worker threads")
    pv.add_argument("--output", "-o", help="write the JSON report here")
    pv.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnknownSuiteError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SkellamFieldsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
