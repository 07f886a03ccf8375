"""Benchmark of skellam_fields: the ``tables``, ``draws`` and ``joint``
workloads, end-to-end metrics measured with tracing off, and per-layer
metrics from a separate traced run.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run it from the root of a source checkout: the package is imported from
``src/``, never from an installed copy, and the run fails when ``src/`` is
missing.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer ones with ``--trace 1``).  The lines before it
are a readable report.  The full result, with provenance, per-op medians and
failures, and in a traced run every span, is written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("tables", "draws", "joint")
RUN_TIMEOUT_S = 600


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    rev = _read(ROOT / ".git" / ref)
    if rev is None:
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                rev = line.split()[0]
    return rev


def src_digest() -> str:
    """sha256 over the package sources, a revision that needs no .git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "skellam_fields").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine() -> dict:
    cpu = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind == "Unified":
            caches[f"l{level}_cache"] = _read(index / "size")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "l2_cache": caches.get("l2_cache"), "l3_cache": caches.get("l3_cache")}


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_revision": git_revision(),
        "src_sha256": src_digest(),
        "workload": workload,
        "seed": None if workload == "tables" else seed,
        **machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}})


def _shares(metrics: dict) -> dict:
    """Shares of the traced wall time that the predicted attribution names."""
    wall = metrics["trace.wall_s"][0]
    def share(*names):
        return sum(metrics[n][0] for n in names) / wall
    return {
        "path_sampler": share("sampling.inverse_subordinator_path.self_s"),
        "fractional_pmf_series": share(*(f"fractional_field.{fn}.self_s" for fn in
                                         ("fprf_pmf", "fsrf1_pmf", "fsrf2_pmf", "fsrf3_pmf")),
                                       "specfun.self_s", "series.self_s"),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench import runner

    prov = provenance(workload, seed)
    if trace:
        result = runner.run_traced(workload, seed, seconds)
        tracer = result.pop("tracer")
        result["summary"]["shares_of_traced_wall"] = _shares(result["metrics"])
    else:
        result = runner.run_untraced(workload, seed, seconds, ROOT)
    metrics, summary = result["metrics"], result["summary"]
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {"provenance": prov, "summary": summary,
         "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
        indent=1) + "\n")
    if trace:
        names = sorted({sp.name for sp in tracer.spans})
        ids = {name: i for i, name in enumerate(names)}
        rows = [[ids[sp.name], sp.start, sp.end, sp.parent, sp.op] for sp in tracer.spans]
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            {"names": names, "columns": ["name", "start", "end", "parent", "op"],
             "spans": rows}) + "\n")

    print(f"workload {workload}  seed {prov['seed']}  trace {int(trace)}  "
          f"rounds {summary['rounds']}  ops {summary['attempted']}  "
          f"({summary['ops_per_round']} per round, {summary['items_per_round']} items)")
    print("  provenance " + json.dumps(prov))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    print(f"  {'ops_failed_frac':<48} {summary['ops_failed_frac']:>14.6g} fraction")
    if not trace:
        print(f"  op_tail_ms is the p{summary['op_tail_percentile']:.2f} latency of "
              f"{summary['op_count']} ops")
    else:
        for name, value in summary["shares_of_traced_wall"].items():
            print(f"  share of traced wall_s: {name} {value:.3f}")
    for failure in summary["failures"]:
        print(f"  FAILED {failure}")
    print(_result_line(summary["failed"] == 0, summary["attempted"], summary["failed"],
                       metrics))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    attempted = failed = 0
    merged = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            print(f"error: workload {workload} exited with {done.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            merged[f"{workload}.{name}"] = (metric["value"], metric["unit"])
    print(_result_line(failed == 0, attempted, failed, merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=20250811,
                        help="workload seed (draws and joint; tables takes none)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="nominal measuring time; fixes the number of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed: must be in [0, 2**63)")
    if not args.seconds > 0:
        parser.error("--seconds: must be > 0")
    if not (SRC / "skellam_fields" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from the root of a "
              "skellam-fields checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
