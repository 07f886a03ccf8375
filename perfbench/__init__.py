"""Benchmark of skellam_fields; run it with ``python3 perfbench/run.py``."""
