"""efdkit query benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an efdkit checkout; the package is imported from
./src.  One closed-loop client sends the next query only after the last one
returned: in-process through efdkit.cli.run(argv), or, for cli-cold, by
spawning the CLI once per query.  Every answer is checked by the
benchmark's own oracle (oracle.py).  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 sends whole passes over the corpus until S seconds and 200
queries are reached, and reports the end-to-end metrics.  Their times are
scaled to a fixed machine speed, measured between queries (speed.py).
--trace 1 sends each query of the corpus once untraced and once traced
(tracing.py) and reports the per-layer metrics; its counts depend only on
the workload and the seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

import corpus
import oracle
from speed import Speed

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"

MIN_QUERIES = 200        # p95 then has at least ten samples beyond it
SETUP_PROBES = 7
SETUP_SAMPLES = 8        # reference samples before and after each set-up probe
IMPORT_PROBES = 7
CHILD_TIMEOUT_S = 60
CLI_MAIN = "import sys; from efdkit.cli import main; main()"


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


# ---------------------------------------------------------------------------
# Executing one query

def run_in_process(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:           # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:            # a traceback is a failed query
            code = 1
            err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


def run_subprocess(argv):
    try:
        done = subprocess.run([sys.executable, "-c", CLI_MAIN, *argv], capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, env=child_env())
    except subprocess.TimeoutExpired:
        return -1, "", f"killed after {CHILD_TIMEOUT_S} s"
    return done.returncode, done.stdout, done.stderr


def judge(q: corpus.Query, code: int, out: str, err: str):
    """None for a right answer, else why the query failed."""
    if code != q.exit:
        first = err.strip().splitlines()[:1]
        return f"exit {code}, expected {q.exit}: {first[0] if first else ''}"
    return oracle.check(q.kind, q.expect, out)


class Loop:
    """Outcome of sending queries one after another."""

    def __init__(self):
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.passes: list[tuple[int, int]] = []     # index ranges of whole passes

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def closed_loop(queries, execute, seconds=None, speed=None) -> Loop:
    """Send the corpus in order, pass after pass, until a pass ends after
    `seconds` and MIN_QUERIES were sent; with seconds=None send it once.
    Whole passes keep the measured mix equal to the stated composition.
    With a Speed, the reference loop runs between queries when due."""
    loop = Loop()
    start = perf_counter()
    while True:
        first = loop.attempted
        for q in queries:
            if speed:
                speed.sample_if_due()
            t0 = perf_counter()
            code, out, err = execute(q.argv)
            loop.starts.append(t0)
            loop.latencies.append(perf_counter() - t0)
            why = judge(q, code, out, err)
            if why:
                loop.failures.append(f"{' '.join(q.argv)}: {why}")
        loop.passes.append((first, loop.attempted))
        if seconds is None or (loop.attempted >= MIN_QUERIES
                               and perf_counter() - start >= seconds):
            break
    if speed:
        speed.sample()                      # the last queries get a sample after them
    return loop


# ---------------------------------------------------------------------------
# Set-up and import probes (fresh interpreters)

def setup_probe(subcommands, speed) -> tuple[float, float]:
    """Raw and scaled time from a fresh process to its first possible query."""
    warmups = json.dumps([corpus.WARMUPS[s] for s in subcommands])
    for _ in range(SETUP_SAMPLES):
        speed.sample()
    t0, start = perf_counter(), monotonic()
    done = subprocess.run([sys.executable, str(HERE / "probe.py"), str(SRC), warmups],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    t1 = perf_counter()
    for _ in range(SETUP_SAMPLES):
        speed.sample()
    word, _, stamp = done.stdout.strip().partition(" ")
    if done.returncode != 0 or word != "ready":
        raise BenchError(f"set-up probe failed: {done.stdout.strip()} {done.stderr.strip()}")
    raw = float(stamp) - start
    return raw, raw * speed.factor(t0, t1)


def exit_time(code: str) -> float:
    start = perf_counter()
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, env=child_env())
    if done.returncode != 0:
        raise BenchError(f"import probe failed: {done.stderr.strip()}")
    return perf_counter() - start


def import_seconds() -> float:
    """Median time of a child that imports efdkit.cli, minus the median of a
    bare interpreter; the two kinds alternate."""
    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(exit_time("pass"))
        full.append(exit_time("import efdkit.cli"))
    return statistics.median(full) - statistics.median(bare)


def import_cli():
    sys.path.insert(0, str(SRC))
    import efdkit.cli as cli
    return cli


def warm_up(cli, subcommands) -> None:
    for s in subcommands:
        code, _, err = run_in_process(cli, corpus.WARMUPS[s])
        if code != 0:
            raise BenchError(f"warm-up {s} exited with {code}: {err.strip()}")


# ---------------------------------------------------------------------------
# Known defect: documented model descriptors that efdkit rejects

def defect_probe(seed: int) -> list[corpus.Query]:
    """lex(qs:S, B) is a documented descriptor that efdkit's parser rejects
    (ROADMAP item 5).  These queries run untimed, outside the workload."""
    rng = random.Random(f"defects/{seed}")
    out = []
    for _ in range(4):
        p = rng.choice(corpus.PRIMES)
        right, rp = rng.choice((("z", []), ("q", None)))
        k = rng.randint(1, 12)
        holds = oracle.delta_holds([p], k) and oracle.delta_holds(rp, k)
        argv = ("check", "--model", f"lex(qs:{p},{right})", "--sentence", f"delta {k}")
        out.append(corpus.Query("check", argv, 0 if holds else 4, {"holds": holds}))
    return out


def count_rejected(cli, queries) -> int:
    return sum(1 for q in queries if judge(q, *run_in_process(cli, q.argv)))


# ---------------------------------------------------------------------------

def percentile(values, share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def timings(latencies, passes, failed_share) -> dict:
    """Throughput and latency of each pass, as the median over passes.  Each
    pass is a complete sample of the workload, so the median keeps a burst
    of noise inside one pass out of the result.  A pass's throughput counts
    only time spent in queries, not the client's checking or sampling."""
    per_pass = lambda f: statistics.median(f(latencies[i:j]) for i, j in passes)
    return {
        "queries_per_s": (per_pass(lambda lat: len(lat) * (1 - failed_share) / sum(lat)), "1/s"),
        "query_p50_ms": (per_pass(lambda lat: 1000 * statistics.median(lat)), "ms"),
        "query_p95_ms": (per_pass(lambda lat: 1000 * percentile(lat, 0.95)), "ms"),
    }


def end_to_end(args, queries) -> tuple[Loop, dict, dict]:
    """The end-to-end metrics at reference speed, and the raw times."""
    subcommands = corpus.subcommands(queries)
    speed = Speed()
    setups = [setup_probe(subcommands, speed) for _ in range(SETUP_PROBES)]
    if args.workload in corpus.SUBPROCESS_WORKLOADS:
        loop = closed_loop(queries, run_subprocess, args.seconds, speed)
    else:
        cli = import_cli()
        warm_up(cli, subcommands)
        loop = closed_loop(queries, lambda argv: run_in_process(cli, argv), args.seconds, speed)
    failed_share = len(loop.failures) / loop.attempted
    scaled = [lat * speed.factor(t, t + lat) for t, lat in zip(loop.starts, loop.latencies)]
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        **timings(scaled, loop.passes, failed_share),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw = {
        "setup_s": (statistics.median(r for r, _ in setups), "s"),
        **timings(loop.latencies, loop.passes, failed_share),
        "speed_factor": (statistics.median(speed.factor(t, t) for t in speed.at), "x"),
    }
    return loop, metrics, raw


def per_layer(args, queries) -> tuple[Loop, dict, dict]:
    """Each query runs twice back to back, untraced and traced, in
    alternating order, so machine noise falls on both sides alike."""
    from tracing import Tracer

    cli = import_cli()
    warm_up(cli, corpus.subcommands(queries))
    tracer, loop = Tracer(), Loop()
    spent = {False: 0.0, True: 0.0}
    for i, q in enumerate(queries):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.query = i
                tracer.install()
            t0 = perf_counter()
            code, out, err = run_in_process(cli, q.argv)
            loop.latencies.append(perf_counter() - t0)
            spent[traced] += loop.latencies[-1]
            if traced:
                tracer.uninstall()
            why = judge(q, code, out, err)
            if why:
                loop.failures.append(f"{' '.join(q.argv)}: {why}")
    metrics = tracer.metrics()
    metrics["import.efdkit_s"] = (import_seconds(), "s")
    metrics["trace_overhead_ratio"] = (spent[True] / spent[False] - 1, "ratio")
    metrics["models.parse_model.rejected"] = (count_rejected(cli, defect_probe(args.seed)), "count")
    tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return loop, metrics, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="efdkit query benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "efdkit" / "cli.py").is_file():
        print(f"error: run from an efdkit checkout; {SRC / 'efdkit'} is missing",
              file=sys.stderr)
        return 2

    queries = corpus.build(args.workload, args.seed)
    try:
        loop, metrics, raw = (per_layer if args.trace else end_to_end)(args, queries)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    mix = ", ".join(f"{name} {count}" for name, (count, _) in corpus.WORKLOADS[args.workload].items())
    failed = len(loop.failures)
    print(f"# {args.workload} seed {args.seed}: corpus of {len(queries)} queries ({mix})")
    print(f"# attempted {loop.attempted}, failed {failed}, "
          f"failed_ratio {failed / loop.attempted:.4f} of {loop.attempted} attempted")
    for line in loop.failures[:10]:
        print(f"# FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    for name, (value, unit) in raw.items():
        print(f"# raw {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
