#!/usr/bin/env python3
"""Rewrite the golden CLI corpus from the current code.

Usage: PYTHONPATH=src python3 scripts/regen_golden.py

Runs every argv of tests/golden/cases.json in-process, with EFDKIT_SEED
unset, and writes tests/golden/<name>.txt (the record format of
tests/test_golden.py); records without a case are deleted.  Review the diff
before committing it.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from test_golden import CASES, GOLDEN, golden_text  # noqa: E402

from efdkit.cli import SEED_ENV  # noqa: E402


def main() -> int:
    os.environ.pop(SEED_ENV, None)
    for stale in GOLDEN.glob("*.txt"):
        if stale.stem not in CASES:
            stale.unlink()
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.txt").write_text(golden_text(argv), encoding="utf-8")
    print(f"wrote {len(CASES)} records to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
