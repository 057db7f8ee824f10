"""The benchmark's oracle checks answers that no benchmark run measures.

perfbench/oracle.py decides every query of the perfbench corpora with its
own exact semantics and shares no code with efdkit.  Here the four corpora
at seeds 4-6 (the benchmark and its documented runs use seeds 1-3) run
in-process through efdkit.cli.run; every exit code must be the query's, and
the oracle must accept every answer.  Nothing under perfbench/ is changed.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import corpus  # noqa: E402
import oracle  # noqa: E402

from efdkit.cli import SEED_ENV, run  # noqa: E402


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_the_oracle_accepts_every_answer_at_unmeasured_seeds(workload, monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    wrong, count = [], 0
    for seed in (4, 5, 6):
        for q in corpus.build(workload, seed):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(list(q.argv))
            if code != q.exit:
                wrong.append((q.argv, f"exit {code}, expected {q.exit}: {err.getvalue()}"))
            elif (reason := oracle.check(q.kind, q.expect, out.getvalue())) is not None:
                wrong.append((q.argv, reason))
            count += 1
    assert count >= 3 * 200 and not wrong, (count, wrong[:5])
