#!/usr/bin/env python3
"""Byte-identity sweep: one digest of everything the CLI answers.

Usage: python3 scripts/sweep.py

Runs in-process, with EFDKIT_SEED unset, every argv of
tests/golden/cases.json and of the four perfbench corpora at seeds 1-3,
each as given and with --format text appended; an argv met twice runs
once.  Prints the SHA-256 digest of the (argv, exit code, stdout, stderr)
of every run, in order, and the number of runs.  Two checkouts that print
the same digest answer every run alike.  The corpora are read from
perfbench/corpus.py, and nothing under perfbench/ is changed.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpus  # noqa: E402

from efdkit.cli import SEED_ENV, run  # noqa: E402

SEEDS = (1, 2, 3)


def argvs():
    """Every distinct argv of the sweep, in order."""
    cases = json.loads((ROOT / "tests" / "golden" / "cases.json").read_text(encoding="utf-8"))
    given = [tuple(argv) for argv in cases.values()]
    for workload in corpus.WORKLOADS:
        for seed in SEEDS:
            given += [tuple(q.argv) for q in corpus.build(workload, seed)]
    return list(dict.fromkeys(a for argv in given for a in (argv, argv + ("--format", "text"))))


def answer(argv) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return json.dumps([list(argv), code, out.getvalue(), err.getvalue()]).encode()


def main() -> int:
    os.environ.pop(SEED_ENV, None)
    total, runs = hashlib.sha256(), argvs()
    for argv in runs:
        total.update(hashlib.sha256(answer(argv)).digest())
    print(f"{total.hexdigest()}  {len(runs)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
