"""Freezes the outputs of every ``tables`` op into ``reference.json``; the
benchmark checks each table against it within the tests' budgets.

    python3 perfbench/freeze_reference.py

Run it only at a commit whose tables are trusted: the reference is the
oracle, so regenerating it at a broken commit hides the breakage.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import REFERENCE_PATH, run_cli, table_requests  # noqa: E402


def main() -> int:
    reference = {}
    for name, argv in table_requests().items():
        code, out, err = run_cli(argv)
        if code != 0:
            print(f"{name}: exit code {code}: {err.strip()}", file=sys.stderr)
            return 1
        reference[name] = json.loads(out)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {len(reference)} outputs to {REFERENCE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
