"""The benchmark's workloads: fixed op lists over the package's public entry
points, each op with a correctness check that runs outside the timed region.

The request mix is the one ``suites.py`` and the README's CLI examples ask
for, since that is the only record of use the package has:

- ``tables``: CLI ``pmf``, ``moments`` and ``cf`` calls on the suites' desk
  models.  No seed: the analytic envelope is too narrow to draw grid points
  at random (FSRF1 at rates (1, 0.5) already fails at s = t = 1.25).
- ``draws``: single-point Monte Carlo at the suites' size, through CLI
  ``sample`` at five seeds per request (the user's path) and through
  ``sample_sharded`` at workers 1 and 2 (the suites' path).  CLI ``sample`` accepts ``--workers``
  but never reads it, so it is driven without the flag.
- ``joint``: the ``fprf`` suite's two-point draws through the discretized
  path sampler, at the suites' 8192-pair shard and in 256-pair calls.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from skellam_fields import cli, field_integrals, fractional_field, sampling, skellam_field
from skellam_fields import verification
from skellam_fields.field_integrals import IntegralOrders
from skellam_fields.fractional_field import FracOrders, FsrfModel
from skellam_fields.rng import RngStream
from skellam_fields.sampling import BoxRegion
from skellam_fields.skellam_field import GridPoint, GsrfParams, LatticeSpec, SkellamParams

WORKLOADS = ("tables", "draws", "joint")

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE_PATH = BENCH_DIR / "reference.json"

REPLICATES = 100_000   # the suites' Monte Carlo size
SUITE_SHARD = 8192     # sample_sharded's fixed shard size
SMALL_PAIRS = 256

# Budgets against the frozen reference, as the tests state them: 4e-6
# absolute per fractional pmf entry, 1e-12 for the Bessel-backed SRF table.
# Moments and CFs are closed forms and node-doubled quadratures; 1e-9
# relative leaves room for reordered arithmetic only.
PMF_BUDGET = 4e-6
SRF_BUDGET = 1e-12
CLOSED_FORM_RTOL = 1e-9

UNIT = BoxRegion((0.0, 0.0), (1.0, 1.0))
P11 = GridPoint(1.0, 1.0)
FSRF_RATES = SkellamParams(1.0, 0.5)
FSRF1 = FsrfModel("I", FSRF_RATES, FracOrders(0.7, 0.7))
FSRF2 = FsrfModel("II", FSRF_RATES, FracOrders(0.7))
FSRF3 = FsrfModel("III", FSRF_RATES, FracOrders(0.7, 0.7, 0.9, 0.9))
SRF_GSRF = SkellamParams(2.0, 1.0).to_gsrf()
COMPOUND = GsrfParams(((1.0, 2.0), (-1.0, 1.0), (2.0, 0.5)))
TWO_JUMP = GsrfParams(((1.0, 2.0), (-1.0, 1.0)))
RIEMANN = IntegralOrders(1.0, 1.0)
RL_ORDERS = IntegralOrders(0.5, 1.5)
LATTICE = LatticeSpec(32)
FRACTIONAL_ORDERS = (0.7, 0.8, 0.9)

# key=value settings per CLI model, as in the suites.
FPRF_SET = {"model": "FPRF", "lambda": 1, "alpha": 0.7, "beta": 0.7}
FSRF1_SET = {"model": "FSRF1", "lambda1": 1, "lambda2": 0.5, "alpha": 0.7, "beta": 0.7}
FSRF2_SET = {"model": "FSRF2", "lambda1": 1, "lambda2": 0.5, "alpha": 0.7}
FSRF3_SET = {**FSRF1_SET, "model": "FSRF3", "alpha2": 0.9, "beta2": 0.9}

PMF_TABLES = {
    "pmf.SRF": ({"model": "SRF", "lambda1": 2, "lambda2": 1}, (-30, 30)),
    "pmf.FPRF": (FPRF_SET, (0, 10)),
    "pmf.FSRF1": (FSRF1_SET, (-8, 8)),
    "pmf.FSRF2": (FSRF2_SET, (-8, 8)),
    "pmf.FSRF3": (FSRF3_SET, (-5, 5)),
    "pmf.FSRF3-sym": ({"model": "FSRF3", "lambda1": 0.8, "lambda2": 0.8, "alpha": 0.7,
                       "beta": 0.8, "alpha2": 0.7, "beta2": 0.8}, (-4, 4)),
}
MOMENT_MODELS = {"FPRF": FPRF_SET, "FSRF1": FSRF1_SET, "FSRF3": FSRF3_SET}
# Ordered point pairs (p1 <= p2 on each axis; FSRF1 rejects some others).
# Moments are the cheapest tables ops, and with ten pairs they are most of
# them, so the median op is one of thirty similar moment calls.  With the
# median among the CF calls instead it jumped by a third between processes,
# as PRF and INTEGRAL CFs each ran fast in some processes and not in others.
MOMENT_POINTS = (((1.0, 1.0), (1.5, 1.2)), ((1.0, 1.0), (1.0, 1.0)),
                 ((0.5, 0.5), (1.0, 1.5)), ((0.5, 0.5), (1.0, 1.0)),
                 ((0.8, 0.8), (1.0, 1.0)), ((0.8, 0.8), (1.2, 1.2)),
                 ((0.5, 1.0), (1.0, 1.5)), ((1.0, 0.5), (1.2, 0.8)),
                 ((0.6, 0.9), (1.0, 1.0)), ((1.0, 1.0), (1.2, 1.2)))
CF_MODELS = {"PRF": {"model": "PRF", "lambda": 1},
             "GSRF": {"model": "GSRF", "jumps": "1:2,-1:1"},
             "INTEGRAL": {"model": "INTEGRAL", "lambda": 1}}
CF_POINTS = ((1.0, 1.0), (0.5, 1.0), (1.5, 1.2))

CLI_SAMPLES = {
    "PRF": {"model": "PRF", "lambda": 1},
    "SRF": {"model": "SRF", "lambda1": 2, "lambda2": 1},
    "GSRF": {"model": "GSRF", "jumps": "1:2,-1:1,2:0.5"},
    "GSRF-two-jump": {"model": "GSRF", "jumps": "1:2,-1:1"},
    "FPRF": FPRF_SET,
    "FSRF1": FSRF1_SET,
    "FSRF2": FSRF2_SET,
    "FSRF3": FSRF3_SET,
    "INTEGRAL": {"model": "INTEGRAL", "lambda": 1},
    "INTEGRAL-rl": {"model": "INTEGRAL", "lambda": 1, "nu1": 0.5, "nu2": 1.5},
}

# Each CLI sample request runs at CLI_REPEATS seeds (seed, seed + 1, ...).
# The CLI ops, single-threaded, then outnumber the sharded batches twice
# over, so the median op is in the middle of the CLI ops: it does not move
# with whether the workers=2 batches find the second core free.
CLI_REPEATS = 5

# The fprf suite's pair, then one more ordered pair; each axis differs, so
# both axes go through the path sampler.  The second pair ends at the same
# point as the first, so their batches cost the same and the median and tail
# ops fall inside one cluster of 256-pair batches, not where two clusters
# meet.  Each pair gets SMALL_PAIR_BATCHES distinct 256-pair batches, the
# first SMALL_PAIR_TWINS of them also at workers=2.
JOINT_PAIRS = {"A": (GridPoint(1.0, 1.0), GridPoint(1.5, 1.2)),
               "B": (GridPoint(0.5, 0.8), GridPoint(1.5, 1.2))}
SMALL_PAIR_BATCHES = 6
SMALL_PAIR_TWINS = 2


@dataclass
class Op:
    """One timed call.  ``collect`` turns its raw result into (digest, value)
    and ``check`` returns None or the reason the value is wrong; both run
    outside the timed region.  Ops sharing a ``twin`` key must produce
    bit-identical outputs.  Ops sharing a ``pool_check`` are also checked
    together, on their outputs pooled in op order."""

    name: str
    run: Callable[[], object]
    collect: Callable[[object], tuple]
    check: Callable[[object], str | None]
    items: int
    twin: str | None = None
    pool_check: Callable[[list], str | None] | None = None


def warm_up():
    """Pay the once-per-process costs before the first timed op: the first
    Philox stream, the cached Jacobi rules of the covariance quadrature and
    the cached Legendre rules of the CF quadrature."""
    RngStream(0).generator.random()
    for order in FRACTIONAL_ORDERS:
        fractional_field.singular_cov_integral(1.0, 1.5, order)
    field_integrals.prf_integral_cf(1.0, 1.0, 1.0, 1.0)


def digest_array(arr) -> str:
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _settings(values: dict, **extra) -> list:
    argv = []
    for key, value in {**values, **extra}.items():
        argv += ["--set", f"{key}={value}"]
    return argv


def run_cli(argv: list) -> tuple:
    """In-process ``cli.main`` with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_failure(raw) -> str | None:
    code, _, err = raw
    return None if code == 0 else f"exit code {code}: {err.strip()}"


# ---------------------------------------------------------------------------
# tables


def _pmf_check(ref: dict, budget: float):
    def check(value):
        if (value["n_min"], value["n_max"]) != (ref["n_min"], ref["n_max"]):
            return "window differs from the reference"
        worst = max(abs(p - q) for p, q in zip(value["probs"], ref["probs"]))
        return None if worst <= budget else f"max |p - ref| = {worst:.3g} > {budget:g}"
    return check


def _closed_form_check(ref):
    def check(value):
        if isinstance(value, dict):
            if list(value) != list(ref):
                return "moment keys differ from the reference"
            pairs = zip(value.values(), ref.values())
        else:
            if [row["xi"] for row in value] != [row["xi"] for row in ref]:
                return "xi grid differs from the reference"
            pairs = ((row[k], rrow[k]) for row, rrow in zip(value, ref) for k in ("re", "im"))
        for v, r in pairs:
            if abs(v - r) > CLOSED_FORM_RTOL * max(1.0, abs(r)):
                return f"value {v!r} differs from reference {r!r}"
        return None
    return check


def _cli_json_op(name: str, argv: list, items: int, check_value) -> Op:
    def collect(raw):
        if raw[0] != 0:
            return digest_text(raw[2]), raw
        return digest_text(raw[1]), json.loads(raw[1])

    def check(value):
        if isinstance(value, tuple):
            return _cli_failure(value)
        return check_value(value)

    return Op(name, lambda: run_cli(argv), collect, check, items)


def table_requests() -> dict:
    """op name -> CLI argv of every ``tables`` op, in op order."""
    requests = {}
    for name, (values, (n_min, n_max)) in PMF_TABLES.items():
        requests[name] = ["pmf", "--format", "json",
                          *_settings(values, s=1, t=1, n_min=n_min, n_max=n_max)]
    for model, values in MOMENT_MODELS.items():
        for (s, t), (s2, t2) in MOMENT_POINTS:
            requests[f"moments.{model}.{s:g},{t:g}-{s2:g},{t2:g}"] = [
                "moments", "--format", "json", *_settings(values, s=s, t=t, s2=s2, t2=t2)]
    for model, values in CF_MODELS.items():
        for s, t in CF_POINTS:
            requests[f"cf.{model}.{s:g},{t:g}"] = ["cf", "--format", "json",
                                                  *_settings(values, s=s, t=t)]
    return requests


def _items(name: str, ref) -> int:
    if name.startswith("pmf."):
        return len(ref["probs"])
    return len(ref)


def tables_ops(seed: int | None = None) -> list:
    del seed  # the input list is fixed
    reference = json.loads(REFERENCE_PATH.read_text())
    ops = []
    for name, argv in table_requests().items():
        ref = reference[name]
        if name.startswith("pmf."):
            check = _pmf_check(ref, SRF_BUDGET if name == "pmf.SRF" else PMF_BUDGET)
        else:
            check = _closed_form_check(ref)
        ops.append(_cli_json_op(name, argv, _items(name, ref), check))
    return ops


# ---------------------------------------------------------------------------
# draws


def _moment_gates(mean: float, var: float):
    def check(samples):
        for rep in (verification.moment_z_check(samples, mean, var),
                    verification.variance_z_check(samples, var)):
            if not rep.passed:
                return f"{rep.metadata['kind']} z = {rep.value:.2f} > {rep.threshold:g}"
        return None
    return check


def _lattice_moments(spec: LatticeSpec, params: GsrfParams):
    """Exact moments of the homogeneous lattice sum: multinomial over k^2 cells."""
    p = spec.probs_for(params, 1, 1)
    j = params.jump_values
    cells = spec.k ** 2
    m1 = float((j * p).sum())
    return cells * m1, cells * (float((j * j * p).sum()) - m1 * m1)


def _gsrf_integral_moments(params: GsrfParams):
    """Riemann integral of a generalized field: each jump size j scales a
    Poisson-field integral of rate lambda_j."""
    mean = var = 0.0
    for j, lam in params.jumps:
        m, v = field_integrals.rl_integral_moments(lam, RIEMANN, 1.0, 1.0)
        mean += j * m
        var += j * j * v
    return mean, var


def _closed_form_moments() -> dict:
    """Closed-form (mean, var) of every CLI sample request."""
    return {
        "PRF": (1.0, 1.0),
        "SRF": skellam_field.gsrf_moments(SRF_GSRF, UNIT, UNIT)[:2],
        "GSRF": skellam_field.gsrf_moments(COMPOUND, UNIT, UNIT)[:2],
        "GSRF-two-jump": skellam_field.gsrf_moments(TWO_JUMP, UNIT, UNIT)[:2],
        "FPRF": fractional_field.fprf_moments(1.0, 0.7, 0.7, P11, P11)[:2],
        "FSRF1": fractional_field.fsrf1_moments(FSRF1, P11, P11)[:2],
        "FSRF2": fractional_field.fsrf2_moments(FSRF2, 1.0, 1.0),
        "FSRF3": fractional_field.fsrf3_moments(FSRF3, P11, P11)[:2],
        "INTEGRAL": field_integrals.rl_integral_moments(1.0, RIEMANN, 1.0, 1.0),
        "INTEGRAL-rl": field_integrals.rl_integral_moments(1.0, RL_ORDERS, 1.0, 1.0),
    }


def library_samplers(moments: dict) -> dict:
    """name -> (draw(stream, n), (mean, var)).  Draws resolve every sampler
    through its module at call time, so the traced run sees them."""
    return {
        "PRF": (lambda st, n: sampling.sample_poisson(1.0, st, size=n), moments["PRF"]),
        "SRF": (lambda st, n: skellam_field.gsrf_count(SRF_GSRF, UNIT, st, size=n),
                moments["SRF"]),
        "GSRF": (lambda st, n: skellam_field.gsrf_count(COMPOUND, UNIT, st, size=n),
                 moments["GSRF"]),
        "FPRF": (lambda st, n: fractional_field.fprf_sample(1.0, 0.7, 0.7, 1.0, 1.0, st,
                                                            size=n), moments["FPRF"]),
        "FSRF1": (lambda st, n: fractional_field.fsrf1_sample(FSRF1, 1.0, 1.0, st, size=n),
                  moments["FSRF1"]),
        "FSRF2": (lambda st, n: fractional_field.fsrf2_sample(FSRF2, 1.0, 1.0, st, size=n),
                  moments["FSRF2"]),
        "FSRF3": (lambda st, n: fractional_field.fsrf3_sample(FSRF3, 1.0, 1.0, st, size=n),
                  moments["FSRF3"]),
        "INTEGRAL": (lambda st, n: field_integrals.rl_integral_sample(1.0, RIEMANN, 1.0, 1.0,
                                                                      st, size=n),
                     moments["INTEGRAL"]),
        "lattice": (lambda st, n: skellam_field.lattice_sample(LATTICE, TWO_JUMP, 1.0, 1.0,
                                                               st, size=n),
                    _lattice_moments(LATTICE, TWO_JUMP)),
        "compound": (lambda st, n: skellam_field.gsrf_compound_sample(COMPOUND, UNIT, st,
                                                                      size=n),
                     moments["GSRF"]),
        "gsrf_integral": (lambda st, n: field_integrals.gsrf_integral_sample(
            TWO_JUMP, 1.0, 1.0, st, size=n), _gsrf_integral_moments(TWO_JUMP)),
    }


def _collect_array(arr) -> tuple:
    return digest_array(arr), arr


def _sharded(draw, total: int, base: RngStream, workers: int):
    return lambda: verification.sample_sharded(draw, total, base, workers)


def _cli_sample_op(name: str, values: dict, seed: int, rep: int, gates) -> Op:
    path = OUT_DIR / f"draws-{name}.txt"  # each op reads it back before the next runs
    argv = ["sample", *_settings(values, s=1, t=1, replicates=REPLICATES),
            "--seed", str(seed), "-o", str(path)]

    def collect(raw):
        if raw[0] != 0:
            return digest_text(raw[2]), raw
        text = path.read_text()
        return digest_text(text), text

    def check(value):
        if isinstance(value, tuple):
            return _cli_failure(value)
        samples = np.array(value.split(), dtype=float)
        if samples.size != REPLICATES:
            return f"{samples.size} draws written, expected {REPLICATES}"
        return gates(samples)

    return Op(f"cli-sample.{name}.{rep}", lambda: run_cli(argv), collect, check, REPLICATES)


def draws_ops(seed: int) -> list:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    moments = _closed_form_moments()
    ops = [_cli_sample_op(name, values, seed + rep, rep, _moment_gates(*moments[name]))
           for name, values in CLI_SAMPLES.items() for rep in range(CLI_REPEATS)]
    for k, (name, (draw, (mean, var))) in enumerate(library_samplers(moments).items()):
        base = RngStream(seed, 1 + k)
        gates = _moment_gates(mean, var)
        for workers in (1, 2):
            ops.append(Op(f"sharded.{name}.w{workers}",
                          _sharded(draw, REPLICATES, base, workers), _collect_array, gates,
                          REPLICATES, twin=f"sharded.{name}"))
    return ops


# ---------------------------------------------------------------------------
# joint


def _pair_rows_check(total: int):
    def check(pairs):
        if pairs.shape != (total, 2):
            return f"shape {pairs.shape}, expected {(total, 2)}"
        if np.any(pairs[:, 0] > pairs[:, 1]):
            return "a row has n1 > n2"
        return None
    return check


def _pooled_covariance_gate(p1: GridPoint, p2: GridPoint):
    """The fprf suite's covariance z-gate.  It is asymptotic: at 256 pairs
    its z has heavy tails (7 of 160 batches above 3 where a normal z gives
    0.4), so it runs on every pair drawn for one input in a round, pooled."""
    mean1, _, cov = fractional_field.fprf_moments(1.0, 0.7, 0.7, p1, p2)
    mean2 = fractional_field.fprf_moments(1.0, 0.7, 0.7, p2, p2)[0]

    def check(batches):
        pairs = np.concatenate(batches)
        rep = verification.covariance_z_check(pairs[:, 0], pairs[:, 1], mean1, mean2, cov)
        if rep.passed:
            return None
        return f"covariance z = {rep.value:.2f} > {rep.threshold:g} on {len(pairs)} pairs"
    return check


def _pair_draw(p1: GridPoint, p2: GridPoint):
    return lambda st, n: fractional_field.fprf_sample_pair(1.0, 0.7, 0.7, p1, p2, st, size=n)


def joint_ops(seed: int) -> list:
    gates = {key: _pooled_covariance_gate(p1, p2) for key, (p1, p2) in JOINT_PAIRS.items()}
    p1, p2 = JOINT_PAIRS["A"]
    ops = [Op("pairs.A.8192.w1", _sharded(_pair_draw(p1, p2), SUITE_SHARD,
                                          RngStream(seed, 100), 1),
              _collect_array, _pair_rows_check(SUITE_SHARD), SUITE_SHARD,
              pool_check=gates["A"])]
    small = _pair_rows_check(SMALL_PAIRS)
    for batch in range(SMALL_PAIR_BATCHES):
        for k, (key, (p1, p2)) in enumerate(JOINT_PAIRS.items()):
            base = RngStream(seed, 101 + 2 * batch + k)
            draw = _pair_draw(p1, p2)
            name = f"pairs.{key}.{SMALL_PAIRS}.b{batch}"
            twin = name if batch < SMALL_PAIR_TWINS else None
            ops.append(Op(f"{name}.w1", _sharded(draw, SMALL_PAIRS, base, 1), _collect_array,
                          small, SMALL_PAIRS, twin, pool_check=gates[key]))
            if twin:
                ops.append(Op(f"{name}.w2", _sharded(draw, SMALL_PAIRS, base, 2),
                              _collect_array, small, SMALL_PAIRS, twin))
    return ops


OP_LISTS = {"tables": tables_ops, "draws": draws_ops, "joint": joint_ops}


def build_ops(workload: str, seed: int) -> list:
    return OP_LISTS[workload](seed)
