"""Machine speed, measured by a fixed reference loop between queries.

A shared host runs this benchmark's processor faster or slower, for
seconds to minutes at a time, by a third or more.  Every timing is
therefore reported at a fixed reference speed: the client runs
reference(), a miniature query of the same kinds of work as efdkit's
(argparse, exact rational arithmetic, JSON), between queries and around
set-up probes, and a time measured over [t0, t1] is multiplied by

    REFERENCE_S / median(reference times sampled within WINDOW_S of it)

reference() does not touch efdkit, so a change to efdkit moves the scaled
times as much as the raw ones, while a change of machine speed moves the
reference time with them and cancels out.  run.py prints the raw values
and the median factor in its "#" lines.
"""

from __future__ import annotations

import argparse
import bisect
import json
import statistics
from fractions import Fraction
from time import perf_counter

# The reference loop's median time on the machine the bounds were set on
# (a shared 2-core Intel Xeon VM at 2.1 GHz), so scaled times read close
# to raw ones there.
REFERENCE_S = 0.0018
WINDOW_S = 1.5           # samples this far before or after a span count for it
INTERVAL_S = 0.025       # least time between two samples in a closed loop

_ROWS = "3/2,-1,4,0,2,-5;1,2/3,-3,5,1,2;-2,1,1/4,3,-1,4;4,-3,2,1/5,3,-2;0,5,-1,2,1/6,1"


def reference() -> str:
    """A miniature query that touches nothing of efdkit: build an argparse
    parser, read a rational system from text, solve it exactly by
    Gauss-Jordan elimination, and write and re-read the answer as JSON."""
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "rank", "check", "show"):
        sub.add_parser(name).add_argument("--rows", required=True)
    args = parser.parse_args(["solve", "--rows", _ROWS])
    rows = [[Fraction(x) for x in row.split(",")] for row in args.rows.split(";")]
    n = len(rows)
    for r in range(n):
        pivot = next(i for i in range(r, n) if rows[i][r])
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][r] for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][r]:
                f = rows[i][r]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
    answer = {f"x{i}": str(row[-1]) for i, row in enumerate(rows)}
    return json.dumps(json.loads(json.dumps({"solution": answer, "rows": n})))


class Speed:
    """Reference-loop samples, kept as (time taken, seconds it took)."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._medians: dict = {}

    def sample(self) -> None:
        t0 = perf_counter()
        reference()
        self.took.append(perf_counter() - t0)
        self.at.append(t0)

    def sample_if_due(self) -> None:
        if not self.at or perf_counter() - self.at[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median reference time near [t0, t1]."""
        i = bisect.bisect_left(self.at, t0 - WINDOW_S)
        j = bisect.bisect_right(self.at, t1 + WINDOW_S)
        if i == j:                              # no sample that close: take the nearest
            i = min(max(i - 1, 0), len(self.at) - 1)
            j = i + 1
        if (i, j) not in self._medians:
            self._medians[i, j] = REFERENCE_S / statistics.median(self.took[i:j])
        return self._medians[i, j]
