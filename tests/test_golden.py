"""The golden CLI corpus: every argv in tests/golden/cases.json must give
the exit code, stderr and stdout recorded in tests/golden/<name>.txt.

Regenerate the records with ``PYTHONPATH=src python3 scripts/regen_golden.py``
after a deliberate output change, and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from efdkit.cli import SEED_ENV, run

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def golden_text(argv) -> str:
    """One case's record: the exit code, stderr as a JSON string, then
    stdout verbatim.  The caller unsets EFDKIT_SEED."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return f"exit: {code}\nstderr: {json.dumps(err.getvalue())}\n\n{out.getvalue()}"


def test_every_record_has_a_case():
    assert {p.stem for p in GOLDEN.glob("*.txt")} == set(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_golden(name, monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert golden_text(CASES[name]) == expected
