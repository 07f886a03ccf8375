"""Rewrites tests/data/golden.json, the corpus of CLI requests whose printed
output tests/test_golden.py pins.

    python3 tools/freeze_golden.py

The corpus holds, per request, its argv, exit code and stderr, plus:

- ``tables``: the benchmark's pmf, moments and cf requests
  (``perfbench.workloads.table_requests()``), with their printed JSON
  values and the sha256 of stdout;
- ``samples``: each ``CLI_SAMPLES`` model at s = t = 1 with 100k
  replicates at seeds 1-3, as the sha256 of stdout only (100k lines);
- ``refusals``: the README's documented refusals, with their stdout.

The argv lists are written out here, so the test does not import
``perfbench``.  Sample bytes depend on numpy's Generator algorithms, so the
numpy version is recorded too.  A change that means to move a printed number
re-runs this script and says which requests moved, by how much and why.

It also writes tests/data/gates.json, which tests/test_acceptance.py pins:
``DEFAULT_SEED`` and, per suite in ``suite_names()`` order, every gate as
``run_suite(name, seed=DEFAULT_SEED, workers=2)`` reports it (criterion,
metric, threshold and the ``repr`` of its value as a float).  That runs
every suite, ``fprf`` included, so it takes as long as ``verify --suite
all``.  A change that moves a gate value re-freezes it and lists each moved
gate with its old and new value; a threshold or the seed is never
re-frozen to pass a test.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench.workloads import CLI_SAMPLES, REPLICATES, _settings, table_requests  # noqa: E402
from skellam_fields import cli  # noqa: E402
from skellam_fields.suites import DEFAULT_SEED, run_suite, suite_names  # noqa: E402

GOLDEN_PATH = ROOT / "tests" / "data" / "golden.json"
GATES_PATH = ROOT / "tests" / "data" / "gates.json"
SAMPLE_SEEDS = (1, 2, 3)

FPRF_DESK = ["--set", "alpha=0.7", "--set", "beta=0.7", "--set", "s=1", "--set", "t=1"]
REFUSALS = {
    "pmf.FPRF.lambda=6": ["pmf", "--set", "model=FPRF", "--set", "lambda=6", *FPRF_DESK,
                          "--set", "n_min=0"],
    "pmf.FSRF2.s=7": ["pmf", "--set", "model=FSRF2", "--set", "lambda1=1",
                      "--set", "lambda2=0.5", "--set", "alpha=0.7", "--set", "s=7",
                      "--set", "t=1"],
    "cf.INTEGRAL.nu1=0.5": ["cf", "--set", "model=INTEGRAL", "--set", "lambda=1",
                            "--set", "nu1=0.5", "--set", "s=1", "--set", "t=1"],
    "sample.PRF.s=t=1e10": ["sample", "--set", "model=PRF", "--set", "lambda=1",
                            "--set", "s=1e10", "--set", "t=1e10", "--set", "replicates=3"],
}


def run(argv: list) -> tuple:
    """In-process ``cli.main`` with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def gate_record(result) -> list:
    """A suite result's gates in order, as tests/test_acceptance.py rebuilds them."""
    return [{"criterion": rep.metadata.get("criterion", rep.metric.value),
             "metric": rep.metric.value, "threshold": rep.threshold,
             "value": repr(float(rep.value))}
            for rep in result.reports]


def main() -> None:
    tables = []
    for name, argv in table_requests().items():
        code, out, err = run(argv)
        tables.append({"name": name, "argv": argv, "exit": code, "stderr": err,
                       "values": json.loads(out) if code == 0 else None,
                       "stdout_sha256": sha256(out)})
    samples = []
    for name, values in CLI_SAMPLES.items():
        for seed in SAMPLE_SEEDS:
            argv = ["sample", *_settings(values, s=1, t=1, replicates=REPLICATES),
                    "--seed", str(seed)]
            code, out, err = run(argv)
            samples.append({"name": f"{name}.seed{seed}", "argv": argv, "exit": code,
                            "stderr": err, "stdout_sha256": sha256(out)})
    refusals = []
    for name, argv in REFUSALS.items():
        code, out, err = run(argv)
        refusals.append({"name": name, "argv": argv, "exit": code, "stderr": err,
                         "stdout": out})
    payload = {"numpy": np.__version__, "tables": tables, "samples": samples,
               "refusals": refusals}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(tables)} tables, {len(samples)} samples and {len(refusals)} "
          f"refusals to {GOLDEN_PATH.relative_to(ROOT)}")
    suites = {name: gate_record(run_suite(name, seed=DEFAULT_SEED, workers=2))
              for name in suite_names()}
    GATES_PATH.write_text(json.dumps({"seed": DEFAULT_SEED, "suites": suites}, indent=1) + "\n")
    print(f"wrote {sum(map(len, suites.values()))} gates of {len(suites)} suites to "
          f"{GATES_PATH.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
