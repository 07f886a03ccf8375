"""Runs a workload's op list in rounds and turns the timings and the trace
into the benchmark's metrics.

Every round runs the same ops, one at a time (a closed loop with a single
client), on inputs made from the seed alone, so rounds repeat the same work
and the same outputs.  The number of rounds is fixed from ``--seconds`` and
the workload's nominal round time, not from the clock, so two commits always
run the same work and a faster layer cannot shift which op the tail
percentile lands on.
"""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

from perfbench import tracing, workloads

# Wall time of one round of each op list on a 2-core Xeon at the parent commit.
NOMINAL_ROUND_S = {"tables": 4.5, "draws": 7.0, "joint": 16.5}
# Safety stop for a much slower commit: no new round starts past this many
# times --seconds, so a run still ends inside its time limit.
ROUND_CAP_FACTOR = 3.0
SETUP_PROBES = 5
TAIL_BEYOND = 10


@dataclass
class OpRecord:
    name: str
    latency_s: float
    failure: str | None
    digest: str | None


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


class Checker:
    """Runs each check once per distinct output; rounds repeat outputs."""

    def __init__(self):
        self._memo: dict = {}

    def _once(self, check, digests: tuple, value) -> str | None:
        key = (id(check), digests)
        if key not in self._memo:
            self._memo[key] = check(value)
        return self._memo[key]

    def __call__(self, op, raw) -> tuple:
        digest, value = op.collect(raw)
        return digest, value, self._once(op.check, (digest,), value)

    def pooled(self, check, digests: list, values: list) -> str | None:
        return self._once(check, tuple(digests), values)


def run_round(ops: list, checker: Checker, tracer=None, op_base: int = 0) -> list:
    """Run every op once; a failing op is recorded and the round goes on."""
    records = []
    values = {}
    for i, op in enumerate(ops):
        failure = digest = raw = None
        if tracer is not None:
            tracer.begin_op(op_base + i)
        t0 = time.perf_counter()
        try:
            raw = op.run()
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted, never fatal
            failure = f"raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        if failure is None:
            try:
                digest, values[i], failure = checker(op, raw)
            except Exception as exc:  # noqa: BLE001 - a broken output fails its op
                failure = f"check raised {type(exc).__name__}: {exc}"
        records.append(OpRecord(op.name, latency, failure, digest))
    first: dict = {}
    for op, rec in zip(ops, records):
        if op.twin is None:
            continue
        if op.twin not in first:
            first[op.twin] = rec.digest
        elif rec.digest != first[op.twin] and rec.failure is None:
            rec.failure = "output differs from the workers=1 batch"
    pools = defaultdict(list)
    for i, op in enumerate(ops):
        if op.pool_check is not None:
            pools[op.pool_check].append(i)
    for check, members in pools.items():
        if any(records[i].failure for i in members):
            continue
        reason = checker.pooled(check, [records[i].digest for i in members],
                                [values[i] for i in members])
        for i in members:
            records[i].failure = reason and f"pooled check: {reason}"
    return records


def measure_setup(root) -> list:
    """Import-and-warm-up time of fresh processes, one probe each."""
    probe = root / "perfbench" / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(probe)], cwd=root, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def tail_latency(latencies: list) -> tuple:
    """(value, percentile) at the highest percentile with at least ten ops
    beyond it; with fewer than eleven ops, the maximum at percentile 100."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _run_rounds(ops, rounds, seconds, checker, traced_round=None):
    """Run the rounds; ``traced_round(r)`` says which ones run traced.
    Returns records per round and the tracer (None when nothing was traced)."""
    start = time.perf_counter()
    tracer = tracing.Tracer() if traced_round else None
    min_rounds = 2 if traced_round else 1
    per_round = []
    for r in range(rounds):
        if r >= min_rounds and time.perf_counter() - start > ROUND_CAP_FACTOR * seconds:
            break
        if traced_round and traced_round(r):
            with tracer.installed():
                per_round.append((True, run_round(ops, checker, tracer, r * len(ops))))
        else:
            per_round.append((False, run_round(ops, checker)))
    return per_round, tracer


def summarize(ops: list, records: list) -> dict:
    failed = [r for r in records if r.failure]
    return {
        "attempted": len(records),
        "failed": len(failed),
        "failures": sorted({f"{r.name}: {r.failure}" for r in failed}),
        "ops_per_round": len(ops),
        "items_per_round": sum(op.items for op in ops),
    }


def run_untraced(workload: str, seed: int, seconds: float, root) -> dict:
    ops = workloads.build_ops(workload, seed)
    workloads.warm_up()
    setup = measure_setup(root)
    per_round, _ = _run_rounds(ops, rounds_for(workload, seconds), seconds, Checker())
    return end_to_end_metrics(ops, [recs for _, recs in per_round], setup)


def end_to_end_metrics(ops: list, rounds: list, setup: list) -> dict:
    records = [rec for recs in rounds for rec in recs]
    walls = [sum(r.latency_s for r in recs) for recs in rounds]
    latencies = [r.latency_s for r in records]
    wall = statistics.median(walls)
    tail, pct = tail_latency(latencies)
    summary = summarize(ops, records)
    op_medians = _per_op_medians(ops, records)
    metrics = {
        "wall_s": (wall, "s"),
        "items_per_s": (summary["items_per_round"] / wall, "1/s"),
        # The median op of the list, each op at its median over the rounds,
        # so that round-to-round noise cannot reorder neighbouring ops of
        # different cost around the median.
        "op_p50_ms": (statistics.median(op_medians.values()), "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    summary.update({
        "rounds": len(rounds),
        "round_walls_s": walls,
        "setup_probes_s": setup,
        "ops_failed_frac": summary["failed"] / summary["attempted"],
        "op_tail_percentile": pct,
        "op_count": len(latencies),
        "op_median_ms": op_medians,
    })
    return {"metrics": metrics, "summary": summary}


def _per_op_medians(ops, records) -> dict:
    by_name = defaultdict(list)
    for r in records:
        by_name[r.name].append(r.latency_s)
    return {op.name: 1e3 * statistics.median(by_name[op.name]) for op in ops}


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced rounds; the per-layer metrics come from
    the traced ones, and their wall time minus the untraced one's is the
    tracing overhead.  A traced output that differs from the untraced output
    of the same op fails that op."""
    ops = workloads.build_ops(workload, seed)
    workloads.warm_up()
    rounds = max(2, rounds_for(workload, seconds))
    per_round, tracer = _run_rounds(ops, rounds, seconds, Checker(),
                                    traced_round=lambda r: r % 2 == 1)
    plain = [recs for traced, recs in per_round if not traced]
    traced = [recs for was_traced, recs in per_round if was_traced]
    for recs in traced:
        for rec, ref in zip(recs, plain[0]):
            if rec.failure is None and rec.digest != ref.digest:
                rec.failure = "traced output differs from the untraced output"
    records = [rec for _, recs in per_round for rec in recs]
    plain_wall = statistics.median(sum(r.latency_s for r in recs) for recs in plain)
    traced_wall = statistics.median(sum(r.latency_s for r in recs) for recs in traced)
    metrics = layer_metrics(ops, tracer, traced, traced_wall, plain_wall)
    summary = summarize(ops, records)
    summary.update({"rounds": len(per_round), "traced_rounds": len(traced),
                    "ops_failed_frac": summary["failed"] / summary["attempted"]})
    return {"metrics": metrics, "summary": summary, "tracer": tracer}


def layer_metrics(ops, tracer, traced_rounds, traced_wall, plain_wall) -> dict:
    """Per-layer metrics per traced round."""
    n = len(traced_rounds)
    spans = tracer.spans
    own = tracing.self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    layer_s = defaultdict(float)
    terms = 0
    for sp, t in zip(spans, own):
        calls[sp.name] += 1
        self_s[sp.name] += t
        layer_s[sp.name.split(".")[0]] += t
        terms += sp.terms
    m = {}

    def count(name, value, unit="count"):
        m[name] = (value / n, unit)

    def secs(name, value):
        m[name] = (value / n, "s")

    items = sum(op.items for op in ops)
    pmf_entries = sum(op.items for op in ops if op.name.startswith("pmf."))
    pairs = sum(op.items for op in ops if op.name.startswith("pairs."))

    series_calls = calls[tracing.SERIES]
    count("series.calls", series_calls)
    count("series.terms", terms)
    m["series.terms_per_call"] = (terms / series_calls if series_calls else 0.0, "count")
    secs("series.self_s", self_s[tracing.SERIES])
    m["series.max_noise"] = (tracer.max_noise, "abs")

    specfun_calls = 0
    for fn in ("wright_tracked", "mittag_leffler3", "bessel_i"):
        name = f"specfun.{fn}"
        count(f"{name}.calls", calls[name])
        secs(f"{name}.self_s", self_s[name])
        specfun_calls += calls[name]
    m["specfun.evals_per_entry"] = (
        specfun_calls / (n * pmf_entries) if pmf_entries else 0.0, "calls/entry")
    secs("specfun.self_s", layer_s["specfun"])

    for fn in ("fprf_pmf", "fsrf1_pmf", "fsrf2_pmf", "fsrf3_pmf"):
        name = f"fractional_field.{fn}"
        count(f"{name}.calls", calls[name])
        secs(f"{name}.self_s", self_s[name])
    for group in ("moments", "sample", "fprf_sample_pair"):
        secs(f"fractional_field.{group}.self_s", self_s[f"fractional_field.{group}"])
    secs("fractional_field.self_s", layer_s["fractional_field"])

    for fn in ("inverse_subordinator", "inverse_subordinator_path"):
        name = f"sampling.{fn}"
        count(f"{name}.calls", calls[name])
        secs(f"{name}.self_s", self_s[name])
    path_s = self_s["sampling.inverse_subordinator_path"] / n
    m["sampling.path_ms_per_pair"] = (1e3 * path_s / pairs if pairs else 0.0, "ms")
    secs("sampling.self_s", layer_s["sampling"])

    count("rng.words", tracer.words)
    m["rng.words_per_item"] = (tracer.words / (n * items), "words/item")
    count("rng.substream.calls", tracer.substream_calls)

    for fn in ("gsrf_count", "lattice_sample", "gsrf_compound_sample"):
        secs(f"skellam_field.{fn}.self_s", self_s[f"skellam_field.{fn}"])
    count("skellam_field.srf_pmf.calls", calls["skellam_field.srf_pmf"])
    secs("skellam_field.srf_pmf.self_s", self_s["skellam_field.srf_pmf"])
    secs("skellam_field.self_s", layer_s["skellam_field"])

    for fn in ("rl_integral_sample", "gsrf_integral_sample"):
        secs(f"field_integrals.{fn}.self_s", self_s[f"field_integrals.{fn}"])
    count("field_integrals.cf.calls", calls["field_integrals.cf"])
    secs("field_integrals.cf.self_s", self_s["field_integrals.cf"])
    secs("field_integrals.self_s", layer_s["field_integrals"])

    m.update(_verification_metrics(ops, spans, traced_rounds, n))
    secs("verification.sample_sharded.self_s", self_s[tracing.SHARDED])
    secs("verification.self_s", layer_s["verification"])
    count("cli.calls", calls[tracing.CLI])
    secs("cli.self_s", self_s[tracing.CLI])
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    return m


def _verification_metrics(ops, spans, traced_rounds, n) -> dict:
    batches = [i for i, sp in enumerate(spans) if sp.name == tracing.SHARDED]
    busy = wait = capacity = 0.0
    for sp in spans:
        if sp.name == tracing.SHARD:
            batch = spans[sp.parent]
            busy += sp.end - sp.start
            wait += sp.start - batch.start
    for i in batches:
        capacity += spans[i].workers * (spans[i].end - spans[i].start)
    w1 = w2 = 0.0
    for recs in traced_rounds:
        for op, rec in zip(ops, recs):
            if op.twin is not None:
                if op.name.endswith(".w1"):
                    w1 += rec.latency_s
                elif op.name.endswith(".w2"):
                    w2 += rec.latency_s
    return {
        "verification.sample_sharded.calls": (len(batches) / n, "count"),
        "verification.shard_busy_s": (busy / n, "s"),
        "verification.shard_wait_s": (wait / n, "s"),
        "verification.parallel_eff": (busy / capacity if capacity else 0.0, "ratio"),
        "verification.speedup_w2": (w1 / w2 if w2 else 0.0, "ratio"),
    }
