"""Self-checks of the benchmark, run from the repository root with

    python3 -m pytest perfbench -q

They check that a seed fixes the corpus and the traced work counts, that
the corpus does not come from efdkit, that the oracle rejects wrong
answers, and that times are scaled by the reference samples near them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402


def snapshot(queries):
    return [(q.stratum, q.kind, q.argv, q.exit, json.dumps(q.expect, sort_keys=True, default=str))
            for q in queries]


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_seed_fixes_the_corpus_and_its_composition(workload):
    first = corpus.build(workload, 7)
    assert snapshot(first) == snapshot(corpus.build(workload, 7))
    assert snapshot(first) != snapshot(corpus.build(workload, 8))
    counts = {}
    for q in first:
        counts[q.stratum] = counts.get(q.stratum, 0) + 1
    assert counts == {name: count for name, (count, _) in corpus.WORKLOADS[workload].items()}
    assert len(first) >= run.MIN_QUERIES    # each pass alone gives a p95


def test_corpus_imports_nothing_from_efdkit():
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import corpus\n"
            "for w in corpus.WORKLOADS: corpus.build(w, 1)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'efdkit'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "[]"


COUNTS_SCRIPT = """
import json, sys
sys.path.insert(0, {here!r})
import corpus, run, tracing
cli = run.import_cli()
queries = corpus.build({workload!r}, 11)[:{limit}]
with tracing.Tracer() as tracer:
    loop = run.closed_loop(queries, lambda argv: run.run_in_process(cli, argv))
counts = {{k: v for k, (v, unit) in tracer.metrics().items() if unit == "count"}}
print(json.dumps({{"failures": loop.failures, "counts": counts}}))
"""


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_traced_counts_repeat_across_processes(workload):
    """Two processes with different string-hash seeds trace the same corpus
    prefix; every count metric must agree and every answer must pass."""
    limit = 24 if workload == "mv-check" else 60
    script = COUNTS_SCRIPT.format(here=str(HERE), workload=workload, limit=limit)
    results = []
    for hash_seed in ("1", "2"):
        env = {**run.child_env(), "PYTHONHASHSEED": hash_seed}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=300, cwd=ROOT, env=env, check=True)
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    assert results[0]["failures"] == []
    assert results[0]["counts"] == results[1]["counts"]
    assert results[0]["counts"]["cli.run.calls"] == limit


def _mutate(kind, payload):
    p = json.loads(json.dumps(payload))
    if kind == "canon":
        for piece in p["piecewise"]["pieces"]:
            piece["form"][0] += 1
    elif kind == "reduce":
        p["k_prime"] += 1
    elif kind == "classify":
        p["class"] = "trivial" if p["class"] != "trivial" else "boolean"
    elif kind == "check":
        p["verdict"]["status"] = ("consistent-on-sample" if p["verdict"]["status"] == "falsified"
                                  else "falsified")
    elif kind == "eval":
        p["value"] = "(0, 12345)"
    elif kind == "decompose":
        p["branches"][0]["sentence"]["ast"]["equations"][0]["rhs"] = {
            "op": "var", "kind": "x", "index": 1}
    elif kind == "translate":
        if "term" in p:
            x1 = {"op": "var", "kind": "x", "index": 1}
            p["term"] = {"op": "plus", "left": p["term"],
                         "right": {"op": "join", "left": x1, "right": {"op": "neg", "arg": x1}}}
        else:
            p["sentence"]["ast"]["equations"].pop()
    elif kind == "lattice":
        key = next(k for k in ("relation", "includes", "meet", "join") if k in p)
        p[key] = {"relation": "none", "includes": not p.get("includes"),
                  "meet": {"family": "?"}, "join": {"family": "?"}}[key]
    elif kind == "axioms":
        p["primes"] = p["primes"] + [97]
    elif kind == "fulldim":
        p["full_dimensional"] = not p["full_dimensional"]
    return json.dumps(p)


def test_oracle_accepts_right_answers_and_rejects_wrong_ones(monkeypatch):
    monkeypatch.chdir(ROOT)
    cli = run.import_cli()
    seen = set()
    for workload in corpus.WORKLOADS:
        for q in corpus.build(workload, 5):
            if (q.kind, q.stratum) in seen or q.stratum.startswith(("canon-m5", "canon-m6",
                                                                    "reduce-m5", "reduce-m6")):
                continue
            seen.add((q.kind, q.stratum))
            code, out, err = run.run_in_process(cli, q.argv)
            assert run.judge(q, code, out, err) is None, q.argv
            assert oracle.check(q.kind, q.expect, _mutate(q.kind, json.loads(out))), q.argv
    assert {kind for kind, _ in seen} == set(oracle._CHECKS)


def test_speed_factor_uses_the_reference_samples_near_a_span():
    s = speed.Speed()
    s.at, s.took = [0.0, 1.0, 2.0, 10.0], [0.001, 0.002, 0.003, 0.5]
    assert s.factor(1.0, 1.1) == speed.REFERENCE_S / 0.002
    assert s.factor(9.0, 9.5) == speed.REFERENCE_S / 0.5
    assert s.factor(20.0, 21.0) == speed.REFERENCE_S / 0.5      # none that close: nearest
    assert speed.reference() == speed.reference()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mv-check",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
