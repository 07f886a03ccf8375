"""Golden outputs: every printed number of a fixed request corpus is pinned.

``tests/data/golden.json`` (written by ``tools/freeze_golden.py``) holds the
benchmark's pmf, moments and cf requests with their printed values, the
sha256 of 100k-draw CLI samples per model at seeds 1-3, and the README's
documented refusals.  Each request is replayed in-process through
``cli.main``; a mismatch names the request, and for a value its largest
change.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from skellam_fields import cli

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden.json").read_text())


def _run(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _numbers(value) -> list:
    """Every number in a parsed JSON value, in document order."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    return [value]


def _ids(entries):
    return [e["name"] for e in entries]


@pytest.mark.parametrize("entry", GOLDEN["tables"], ids=_ids(GOLDEN["tables"]))
def test_table_request_prints_golden_output(entry):
    code, out, err = _run(entry["argv"])
    assert (code, err) == (entry["exit"], entry["stderr"]), entry["name"]
    if entry["values"] is not None:
        got, want = json.loads(out), entry["values"]
        got_n, want_n = _numbers(got), _numbers(want)
        assert len(got_n) == len(want_n), f"{entry['name']}: printed shape changed"
        worst = max((abs(a - b) for a, b in zip(got_n, want_n)), default=0.0)
        assert got == want, f"{entry['name']}: largest value change {worst:.3g}"
    assert _sha256(out) == entry["stdout_sha256"], f"{entry['name']}: printed bytes changed"


@pytest.mark.parametrize("entry", GOLDEN["samples"], ids=_ids(GOLDEN["samples"]))
def test_sample_request_prints_golden_bytes(entry):
    assert np.__version__ == GOLDEN["numpy"], (
        f"sample digests were frozen with numpy {GOLDEN['numpy']}, this is numpy "
        f"{np.__version__}: Generator output may differ; re-freeze with "
        "tools/freeze_golden.py and say so")
    code, out, err = _run(entry["argv"])
    assert (code, err) == (entry["exit"], entry["stderr"]), entry["name"]
    assert _sha256(out) == entry["stdout_sha256"], f"{entry['name']}: sample bytes changed"


@pytest.mark.parametrize("entry", GOLDEN["refusals"], ids=_ids(GOLDEN["refusals"]))
def test_documented_refusal_prints_golden_text(entry):
    assert entry["exit"] != 0, f"{entry['name']}: the corpus holds a refusal that exits 0"
    assert _run(entry["argv"]) == (entry["exit"], entry["stdout"], entry["stderr"]), entry["name"]
