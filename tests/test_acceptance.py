"""Acceptance gates: every verification suite at its stated tolerance and
full replicate count, one printed pass/fail line per criterion check.

Each suite's gates must also match ``tests/data/gates.json`` exactly, as
``tools/freeze_golden.py`` recorded them: the seed, and per gate its
criterion, metric, threshold and value.
"""

import json
from pathlib import Path

import pytest

from skellam_fields.suites import DEFAULT_SEED, run_suite, suite_names

GATES = json.loads((Path(__file__).parent / "data" / "gates.json").read_text())

CRITERIA = {
    "srf-oracle": 1,
    "srf-mc": 2,
    "compound": 3,
    "inverse-subordinator": 4,
    "fsrf1": 5,
    "fsrf2": 6,
    "fsrf3": 7,
    "theorem31": 8,
    "governing-equations": 9,
    "integrals": 10,
    "fprf": 11,
    "specfun": 12,
}


@pytest.mark.parametrize("suite", sorted(suite_names(), key=CRITERIA.get))
def test_acceptance_criterion(suite):
    result = run_suite(suite, seed=DEFAULT_SEED, workers=2)
    for rep in result.reports:
        status = "PASS" if rep.passed else "FAIL"
        label = rep.metadata.get("criterion", rep.metric.value)
        print(f"[{status}] criterion {CRITERIA[suite]} ({suite}): {label}: "
              f"{rep.metric.value}={rep.value:.4g} (threshold {rep.threshold:.4g})")
    print(f"[{'PASS' if result.passed else 'FAIL'}] criterion {CRITERIA[suite]} "
          f"({suite}) in {result.elapsed_s:.1f}s")
    failures = [r for r in result.reports if not r.passed]
    assert not failures, f"{suite}: {len(failures)} gate(s) failed: " + "; ".join(
        str(r.metadata.get("criterion", r.metric.value)) for r in failures)
    assert GATES["seed"] == DEFAULT_SEED, f"seed {GATES['seed']} -> {DEFAULT_SEED}"
    changes = _record_changes(GATES["suites"][suite], _gate_record(result))
    assert not changes, f"{suite}: gates differ from tests/data/gates.json: " + "; ".join(changes)


def _gate_record(result) -> list:
    """The suite's gates in the form tools/freeze_golden.py records them."""
    return [{"criterion": rep.metadata.get("criterion", rep.metric.value),
             "metric": rep.metric.value, "threshold": rep.threshold,
             "value": repr(float(rep.value))}
            for rep in result.reports]


def _record_changes(old: list, new: list) -> list:
    """One line per gate that differs, naming it with its old and new fields
    and its value as a share of the threshold."""
    changes = [f"{len(old)} gates -> {len(new)}"] if len(old) != len(new) else []
    for i, (was, now) in enumerate(zip(old, new)):
        if was != now:
            fields = ", ".join(f"{key} {was[key]!r} -> {now[key]!r}"
                               for key in was if was[key] != now[key])
            share = [float(g["value"]) / g["threshold"] if g["threshold"] else float("inf")
                     for g in (was, now)]
            changes.append(f"gate {i} ({was['criterion']}): {fields} "
                           f"(value/threshold {share[0]:.3g} -> {share[1]:.3g})")
    return changes
