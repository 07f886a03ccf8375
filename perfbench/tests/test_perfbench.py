"""Tests of the benchmark itself: span accounting, failure counting, metric
names, patch restoration and trace transparency.

    python3 -m pytest perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import runner, tracing, workloads
from perfbench.tracing import Span, Tracer, philox_words, self_times, union_length
from skellam_fields import fractional_field, skellam_field, verification
from skellam_fields.rng import RngStream
from skellam_fields.skellam_field import GridPoint

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _span(name, start, end, parent=-1, gen_s=0.0):
    sp = Span(name, start, parent, 0)
    sp.end = end
    sp.gen_s = gen_s
    return sp


def _op(name, run, check=lambda value: None, twin=None):
    return workloads.Op(name, run, lambda raw: (workloads.digest_array(np.asarray(raw)), raw),
                        check, 1, twin)


def small_ops():
    """A cheap op list crossing every traced layer kind: CLI tables, sharded
    draws at workers 1 and 2, and joint pairs."""
    draw = lambda st, n: fractional_field.fsrf1_sample(workloads.FSRF1, 1.0, 1.0, st, size=n)
    pair = lambda st, n: fractional_field.fprf_sample_pair(
        1.0, 0.7, 0.7, GridPoint(1.0, 1.0), GridPoint(1.2, 1.1), st, size=n)
    argv = workloads.table_requests()
    ops = [workloads.Op(name, lambda a=argv[name]: workloads.run_cli(a),
                        lambda raw: (workloads.digest_text(raw[1]), raw), lambda v: None, 1)
           for name in ("pmf.SRF", "pmf.FSRF2", "moments.FSRF3.1,1-1.5,1.2", "cf.GSRF.1,1")]
    for workers in (1, 2):
        ops.append(_op(f"draw.w{workers}", lambda w=workers: verification.sample_sharded(
            draw, 20000, RngStream(3, 1), w), twin="draw"))
    ops.append(_op("pairs", lambda: verification.sample_sharded(pair, 64, RngStream(3, 2), 1)))
    ops.append(_op("lattice", lambda: skellam_field.lattice_sample(
        workloads.LATTICE, workloads.TWO_JUMP, 1.0, 1.0, RngStream(3, 3), size=1000)))
    return ops


def test_union_and_self_time_with_overlapping_children():
    assert union_length([(1.0, 5.0), (3.0, 8.0), (9.0, 9.5)]) == pytest.approx(7.5)
    spans = [_span("verification.sample_sharded", 0.0, 10.0),
             _span(tracing.SHARD, 1.0, 5.0, parent=0),
             _span(tracing.SHARD, 3.0, 8.0, parent=0)]
    assert self_times(spans) == pytest.approx([3.0, 4.0, 5.0])


def test_series_iterator_time_goes_to_the_module_that_built_the_terms():
    spans = [_span("fractional_field.fsrf3_pmf", 0.0, 10.0),
             _span(tracing.SERIES, 1.0, 9.0, parent=0, gen_s=6.0),
             _span(tracing.SERIES, 2.0, 7.0, parent=1, gen_s=3.0),
             _span("specfun.wright_tracked", 3.0, 5.0, parent=2)]
    own = self_times(spans)
    # pmf: 2 outside the outer sum + 1 of outer terms outside the inner sum
    #      + 1 of inner terms outside the Wright call
    assert own == pytest.approx([4.0, 2.0, 2.0, 2.0])
    assert sum(own) == pytest.approx(10.0)


def test_philox_words_counts_every_word():
    gen = RngStream(7, 1).generator
    assert philox_words(gen.bit_generator) == 0
    gen.bit_generator.random_raw(5)
    assert philox_words(gen.bit_generator) == 5
    gen.bit_generator.random_raw(1000)
    assert philox_words(gen.bit_generator) == 1005


def test_tail_latency_leaves_ten_ops_beyond():
    value, pct = runner.tail_latency([float(i) for i in range(100)])
    assert value == 89.0 and pct == pytest.approx(90.0)
    assert runner.tail_latency([3.0, 1.0]) == (3.0, 100.0)


def test_op_p50_is_the_median_op_at_its_median_over_rounds():
    ops = [_op(name, None) for name in ("a", "b", "c")]
    latencies = {"a": (1.0, 9.0, 1.0), "b": (2.0, 2.0, 8.0), "c": (7.0, 3.0, 3.0)}
    rounds = [[runner.OpRecord(name, lat[r] / 1e3, None, None)
               for name, lat in latencies.items()] for r in range(3)]
    metrics = runner.end_to_end_metrics(ops, rounds, [0.5])["metrics"]
    assert metrics["op_p50_ms"] == (pytest.approx(2.0), "ms")


def test_failed_and_raising_ops_are_counted_and_the_round_continues():
    def boom():
        raise RuntimeError("boom")

    ran = []
    ops = [_op("raises", boom),
           _op("bad", lambda: 1, check=lambda value: "wrong value"),
           _op("exits", lambda: workloads.run_cli(["pmf", "--bogus"])),
           _op("w1", lambda: np.arange(3), twin="t"),
           _op("w2", lambda: np.arange(4), twin="t"),
           _op("ok", lambda: ran.append(1) or 2)]
    records = runner.run_round(ops, runner.Checker())
    failures = {r.name: r.failure for r in records}
    assert failures["raises"].startswith("raised RuntimeError")
    assert failures["bad"] == "wrong value"
    assert failures["exits"].startswith("raised SystemExit")
    assert failures["w1"] is None
    assert failures["w2"] == "output differs from the workers=1 batch"
    assert failures["ok"] is None and ran == [1]
    summary = runner.summarize(ops, records)
    assert (summary["attempted"], summary["failed"]) == (6, 4)


def test_pooled_check_fails_every_member():
    pooled = lambda values: None if sum(len(v) for v in values) < 5 else "too many"
    ops = [_op("a", lambda: np.arange(3)), _op("b", lambda: np.arange(3)),
           _op("c", lambda: np.arange(1))]
    ops[0].pool_check = ops[1].pool_check = pooled
    records = runner.run_round(ops, runner.Checker())
    assert [r.failure for r in records] == ["pooled check: too many"] * 2 + [None]


def test_cli_failure_fails_the_op():
    argv = ["pmf", "--set", "model=FPRF", "--set", "lambda=1", "--set", "s=1",
            "--set", "t=1", "--set", "n_min=-1"]
    op = workloads._cli_json_op("bad-window", argv, 1, lambda value: None)
    (rec,) = runner.run_round([op], runner.Checker())
    assert rec.failure.startswith("exit code 2")


def _traced_run(ops, rounds=2):
    per_round, tracer = runner._run_rounds(ops, rounds, 1e9, runner.Checker(),
                                           traced_round=lambda r: r % 2 == 1)
    return per_round, tracer


def test_metric_names_are_valid_and_match_the_benchmark_file():
    ops = small_ops()
    per_round, tracer = _traced_run(ops)
    traced = [recs for was_traced, recs in per_round if was_traced]
    layer = runner.layer_metrics(ops, tracer, traced, 1.0, 1.0)
    rounds = [recs for _, recs in per_round]
    e2e = runner.end_to_end_metrics(ops, rounds, [0.5])["metrics"]
    assert list(layer) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert list(e2e) == [m["name"] for m in BENCHMARK["end_to_end"]]
    names = list(layer) + list(e2e) + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metrics in (layer, e2e):
        for name, (value, unit) in metrics.items():
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), (name, unit)
    assert layer["cli.calls"][0] == 4
    assert layer["series.terms"][0] > 0
    assert layer["rng.words"][0] > 0
    assert layer["verification.sample_sharded.calls"][0] == 3


def test_counts_repeat_exactly_between_traced_runs():
    def counts():
        ops = small_ops()
        per_round, tracer = _traced_run(ops, rounds=4)
        traced = [recs for was_traced, recs in per_round if was_traced]
        metrics = runner.layer_metrics(ops, tracer, traced, 1.0, 1.0)
        return {k: v for k, (v, unit) in metrics.items()
                if unit in ("count", "calls/entry", "words/item")}

    first = counts()
    assert first == counts()
    assert first["rng.substream.calls"] > 0


def test_every_patched_attribute_is_restored():
    tracer = Tracer()
    targets = tracer.patch_targets()
    originals = [vars(owner)[attr] for owner, attr in targets]
    assert len(targets) == len(tracing.PATCHES) + 2
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(vars(owner)[attr] is not orig
                       for (owner, attr), orig in zip(targets, originals))
            runner.run_round(small_ops(), runner.Checker(), tracer)
            raise RuntimeError("leave mid-run")
    assert all(vars(owner)[attr] is orig for (owner, attr), orig in zip(targets, originals))
    per_round, _ = _traced_run(small_ops())
    assert all(vars(owner)[attr] is orig for (owner, attr), orig in zip(targets, originals))


def test_traced_outputs_equal_untraced_outputs():
    per_round, tracer = _traced_run(small_ops(), rounds=2)
    (plain, p), (traced, t) = per_round
    assert not plain and traced
    assert [r.digest for r in p] == [r.digest for r in t]
    assert all(r.failure is None for r in p + t)
    assert len(tracer.spans) > 0


def test_without_package_source_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "draws",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
