"""Verdicts of tools/bench_pairs.py on synthetic run lists."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BOUND = 0.24
# IQR/median 0.27: linear quartiles of 10 evenly spaced values span half the range
WIDE = list(np.linspace(0.73, 1.27, 10))
# beats its pair in all 10 pairs, but its slowest run is slower than the
# parent's fastest, and its median beats the parent's by 0.30 > the parent's IQR
TIGHT = [0.70, 0.69, 0.70, 0.71, 0.70, 0.70, 0.69, 0.71, 0.70, 0.75]


def verdict(parent, change, better="lower", bound=BOUND):
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    return bench_pairs._verdict(parent, change, wins, better, bound)


def spread(values):
    s = bench_pairs._stats(values)
    return (s["q3"] - s["q1"]) / s["median"]


def test_a_ten_of_ten_win_on_a_wide_parent_is_unresolved():
    assert spread(WIDE) == pytest.approx(0.27)
    assert all(c < p for p, c in zip(WIDE, TIGHT)) and max(TIGHT) > min(WIDE)
    assert verdict(WIDE, TIGHT) == "unresolved"
    assert verdict(TIGHT, WIDE) == "unresolved"  # the change's spread counts too


def test_no_bound_keeps_the_gain():
    assert verdict(WIDE, TIGHT, bound=None) == "gain"


def test_a_wide_spread_still_reads_better_in_every_run():
    change = [0.5 + 0.01 * i for i in range(10)]
    assert verdict(WIDE, change) == "better in every run"
    higher = [2.0 + 0.01 * i for i in range(10)]
    assert verdict(WIDE, higher, better="higher") == "better in every run"


def test_verdicts_inside_the_bound():
    parent = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    assert verdict(parent, [p - 0.2 for p in parent]) == "gain"
    assert verdict(parent, [p + 0.3 for p in parent]) == "regressed"
    assert verdict(parent, [p + 0.01 for p in parent]) == "within bound"
    assert verdict(parent, [p + 0.01 for p in parent], bound=None) == "no gain"


def test_summarize_counts_wins_and_reports_the_verdict():
    runs = [{"pair": i, "side": side, "metrics": {"wall_s": value}}
            for i, (p, c) in enumerate(zip(WIDE, TIGHT))
            for side, value in (("parent", p), ("change", c))]
    out = bench_pairs.summarize(runs, ["wall_s"], {"wall_s": BOUND}, {"wall_s": "lower"})
    assert out["wall_s"]["change_wins"] == "10/10"
    assert out["wall_s"]["verdict"] == "unresolved"
