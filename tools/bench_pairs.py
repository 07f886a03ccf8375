"""Runs the benchmark in alternating parent/change pairs from two checkouts
and writes medians, quartiles and per-metric wins as one JSON file.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload tables --pairs 12 --setup-pairs 12 --one-shot-pairs 10 \\
        --out BENCH_NN.json

Pair i runs the parent first when i is even and the change first when i is
odd.  Each run is ``python3 perfbench/run.py --workload W --seed S --seconds
T --trace 0`` in its checkout, T being ``run_seconds`` of the change's
``BENCHMARK.json``; its last stdout line is the result.  Besides the
benchmark's metrics, each run reports its first round's wall time, the one
round that meets the process's caches empty.  With ``--setup-pairs`` it also
runs ``perfbench/setup_probe.py`` in pairs.  With ``--one-shot-pairs`` every
``tables`` request, and every ``CLI_SAMPLES`` request (seed 1, 100k
replicates, written with ``-o`` into a temporary directory), runs once in a
fresh process, after the benchmark's warm-up, as a one-shot CLI call does.
A run sums the ``tables`` requests' times as ``one_shot_sum_s`` and every
family's (``pmf``, ``moments``, ``cf``, ``sample``) on its own.  It only runs
those scripts and reads what they write: nothing under ``perfbench/`` is
edited.

Quartiles are numpy's linear percentiles 25 and 75.  A pair is a win when the
change reads better than the parent; ties count for neither side.  Each
metric gets the first verdict that holds, in this order:

- ``unresolved``: either side's IQR/median exceeds the metric's bound in
  ``BENCHMARK.json``; if every change run beats every parent run, the
  verdict is ``better in every run`` instead.  A metric with no bound skips
  this test;
- ``gain``: the change wins at least 9 of 10 pairs and its median is better
  than the parent's by more than the parent's interquartile range;
- ``better in every run``: every change run beats every parent run;
- ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound;
- ``within bound`` otherwise (``no gain`` for a metric with no bound).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

RUN_TIMEOUT_S = 1800
ORDER = "pair i runs the parent first when i is even, the change first when i is odd"
# Run in a checkout with a request name: prints the seconds of that one
# request in a fresh process; with no name, prints every request name.
ONE_SHOT = """\
import json, sys, tempfile, time
from pathlib import Path
sys.path[:0] = ["src", "."]
from perfbench.workloads import CLI_SAMPLES, REPLICATES, _settings, run_cli, table_requests, warm_up
requests = table_requests()
requests.update({f"sample.{name}": ["sample", *_settings(values, s=1, t=1, replicates=REPLICATES),
                                "--seed", "1"] for name, values in CLI_SAMPLES.items()})
if len(sys.argv) == 1:
    print(json.dumps(list(requests)))
    raise SystemExit
name = sys.argv[1]
with tempfile.TemporaryDirectory() as tmp:
    argv = requests[name]
    if argv[0] == "sample":
        argv += ["-o", str(Path(tmp) / "draws.txt")]
    warm_up()
    t0 = time.perf_counter()
    code = run_cli(argv)[0]
    elapsed = time.perf_counter() - t0
if code:
    raise SystemExit(f"{name} exited with {code}")
print(repr(elapsed))
"""


def _run(checkout: Path, argv: list) -> str:
    done = subprocess.run([sys.executable, *argv], cwd=checkout, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(argv)} exited with {done.returncode} in {checkout}")
    return done.stdout.splitlines()[-1]


def _sides(pair: int) -> tuple:
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def _stats(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def _verdict(parent: list, change: list, wins: int, better: str, bound: float | None) -> str:
    sign = 1.0 if better == "lower" else -1.0
    p, c = _stats(parent), _stats(change)
    gap = sign * (p["median"] - c["median"])  # > 0 when the change is better
    every = (max(change) < min(parent)) if better == "lower" else (min(change) > max(parent))
    spread = max((s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0
                 for s in (p, c))
    if bound is not None and spread > bound:
        return "better in every run" if every else "unresolved"
    if wins >= 0.9 * len(parent) and gap > p["q3"] - p["q1"]:
        return "gain"
    if every:
        return "better in every run"
    if bound is None:
        return "no gain"
    if -gap > bound * abs(p["median"]):
        return "regressed"
    return "within bound"


def summarize(runs: list, metric_names: list, bounds: dict, better: dict) -> dict:
    """Per metric: each side's median and quartiles, the change's wins and a
    verdict, from runs of the form {"pair", "side", "metrics": {...}}."""
    pairs = sorted({r["pair"] for r in runs})
    by = {(r["pair"], r["side"]): r["metrics"] for r in runs}
    out = {}
    for name in metric_names:
        parent = [by[i, "parent"][name] for i in pairs]
        change = [by[i, "change"][name] for i in pairs]
        sign = 1.0 if better[name] == "lower" else -1.0
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        out[name] = {"better": better[name], "parent": _stats(parent),
                     "change": _stats(change), "change_wins": f"{wins}/{len(pairs)}",
                     "bound": bounds.get(name),
                     "verdict": _verdict(parent, change, wins, better[name],
                                         bounds.get(name))}
    return out


def _family_sums(values: dict) -> dict:
    """Values summed by op family, the text before the op name's first dot."""
    sums: dict = {}
    for name, value in values.items():
        family = name.split(".", 1)[0]
        sums[family] = sums.get(family, 0.0) + value
    return sums


def _result_file(checkout: Path, workload: str, seed: int) -> tuple:
    """(per-run figures, provenance) from the run's result file: the per-op
    median latencies summed by op family, and the first round's wall time."""
    path = checkout / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    result = json.loads(path.read_text())
    figures = {f"op_median_sum_ms.{k}": v
               for k, v in _family_sums(result["summary"]["op_median_ms"]).items()}
    figures["first_round_wall_s"] = result["summary"]["round_walls_s"][0]
    return figures, result["provenance"]


def workload_pairs(parent: Path, change: Path, workload: str, pairs: int, seed: int,
                   spec: dict) -> tuple:
    seconds = spec["run_seconds"]
    command = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    runs, provenance = [], {}
    for i in range(pairs):
        for side in _sides(i):
            checkout = parent if side == "parent" else change
            line = json.loads(_run(checkout, command))
            figures, provenance[side] = _result_file(checkout, workload, seed)
            runs.append({"pair": i, "side": side, "correct": line["correct"],
                         "attempted": line["attempted"], "failed": line["failed"],
                         "metrics": {k: v["value"] for k, v in line["metrics"].items()},
                         "figures": figures})
            print(f"{workload} pair {i} {side}: wall_s "
                  f"{line['metrics']['wall_s']['value']:.4g}", file=sys.stderr)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    names = list(runs[0]["metrics"])
    summary = summarize(runs, names, {n: e2e[n]["bound"] for n in names if n in e2e},
                        {n: e2e[n]["better"] if n in e2e else "lower" for n in names})
    figures = list(runs[0]["figures"])
    summary.update(summarize([{**r, "metrics": r["figures"]} for r in runs], figures, {},
                             dict.fromkeys(figures, "lower")))
    section = {"command": "python3 " + " ".join(command), "order": ORDER,
               "summary": summary, "runs": runs}
    return section, provenance


def setup_pairs(parent: Path, change: Path, pairs: int, bound: float | None) -> dict:
    runs = []
    for i in range(pairs):
        for side in _sides(i):
            checkout = parent if side == "parent" else change
            value = float(_run(checkout, ["perfbench/setup_probe.py"]))
            runs.append({"pair": i, "side": side, "setup_s": value})
    summary = summarize([{**r, "metrics": {"setup_s": r["setup_s"]}} for r in runs],
                        ["setup_s"], {"setup_s": bound}, {"setup_s": "lower"})
    return {"command": "python3 perfbench/setup_probe.py", "order": ORDER,
            "summary": summary, "runs": runs}


def one_shot_pairs(parent: Path, change: Path, pairs: int) -> dict:
    names = json.loads(_run(change, ["-c", ONE_SHOT]))
    runs = []
    for i in range(pairs):
        for side in _sides(i):
            checkout = parent if side == "parent" else change
            times = {name: float(_run(checkout, ["-c", ONE_SHOT, name])) for name in names}
            families = _family_sums(times)
            tables = sum(v for k, v in families.items() if k != "sample")
            figures = {f"one_shot_sum_s.{k}": v for k, v in families.items()}
            runs.append({"pair": i, "side": side, "one_shot_s": times,
                         "metrics": {"one_shot_sum_s": tables, **figures}})
    metrics = list(runs[0]["metrics"])
    return {"command": "each tables request, and each CLI_SAMPLES request at seed 1 with "
                       "-o into a temporary directory, once in a fresh process, after warm_up()",
            "order": ORDER,
            "summary": summarize(runs, metrics, {}, dict.fromkeys(metrics, "lower")),
            "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", action="append", default=[],
                        help="workload to pair (repeatable)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--setup-pairs", type=int, default=0)
    parser.add_argument("--one-shot-pairs", type=int, default=0)
    parser.add_argument("--what", default="", help="one line on what the change does")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    spec = json.loads((change / "BENCHMARK.json").read_text())
    out = {"what": args.what}
    provenance = {}
    for workload in args.workload:
        out[f"{workload}_pairs"], provenance = workload_pairs(
            parent, change, workload, args.pairs, args.seed, spec)
    if args.setup_pairs:
        bound = next((m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"), None)
        out["setup_probe_pairs"] = setup_pairs(parent, change, args.setup_pairs, bound)
    if args.one_shot_pairs:
        out["one_shot_pairs"] = one_shot_pairs(parent, change, args.one_shot_pairs)
    if provenance:
        prov = provenance["change"]
        out["machine"] = {k: prov[k] for k in ("nproc", "cpu_model", "python", "numpy")}
        out["parent"] = {"revision": provenance["parent"]["git_revision"],
                         "src_digest": provenance["parent"]["src_sha256"]}
        out["change"] = {"src_digest": prov["src_sha256"]}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
