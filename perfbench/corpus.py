"""Seeded query corpora for the four workloads.

The generator is the benchmark's own (it imports nothing from efdkit), so
a change to efdkit's generators cannot change a workload.  Every query
carries the answer the oracle expects, computed here from the benchmark's
own term trees.  The same (workload, seed) always gives the same corpus.

Excluded inputs: the unbounded-work inputs of the ROADMAP's item 5 (huge
scalars or powers, huge primes, more than 8 distinct forms, deep nesting,
decompositions with many x-variables).  Every argument keeps its size small:
k <= 24, at most 6 distinct linear forms in at most 3 variables, epsilon and
delta exponents <= 12 where efdkit's sampled checker searches candidates.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import oracle as O

PRIMES = (2, 3, 5, 7)


@dataclass(frozen=True)
class Query:
    kind: str             # oracle check, named after the subcommand
    argv: tuple           # passed to efdkit.cli.run
    exit: int             # expected exit code (check: 4 when falsified)
    expect: dict          # what the oracle compares the answer with
    stratum: str = ""     # composition bucket, e.g. "canon-m3-n2"; set by build()


# One warm-up query per subcommand, run during set-up.
WARMUPS = {
    "canon": ["canon", "x1 \\/ 2 x1"],
    "reduce": ["reduce", "--k", "4", "--term", "2 x1 \\/ 6 x1"],
    "classify": ["classify", "--sig", "mv", "--sentence", "epsilon 2"],
    "check": ["check", "--model", "q", "--sentence", "delta 2"],
    "eval": ["eval", "--model", "gamma(q)", "--term", "~z1", "--assign", "z1=(0, 1/2)"],
    "decompose": ["decompose", "--sentence", "epsilon 2"],
    "translate": ["translate", "--direction", "star", "--term", "x1"],
    "lattice": ["lattice", "--op", "meet", "--left", "divisible:2", "--right", "divisible:3"],
    "axioms": ["axioms", "--base", "bal", "--primes", "2"],
    "fulldim": ["fulldim", "--rows", "1,0;0,1"],
}


def _opt(flag: str, value: str) -> list:
    """--flag value, or --flag=value when argparse would read value as a flag."""
    return [f"{flag}={value}"] if value.startswith("-") else [flag, value]


def _qs(primes) -> str:
    return "qs:" + ",".join(map(str, primes))


# ---------------------------------------------------------------------------
# l-group terms with a known number of distinct linear forms

def _distinct_forms(rng, n, m, coef, ok=lambda f: True):
    """m distinct forms in Z^n, at least one of them using x_n."""
    while True:
        forms = []
        while len(forms) < m:
            f = tuple(rng.randint(-coef, coef) for _ in range(n))
            if f not in forms and ok(f):
                forms.append(f)
        if any(f[-1] for f in forms):
            return forms


def _lattice_tree(rng, leaves):
    nodes = list(leaves)
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        op = rng.choice(("join", "meet"))
        nodes[i:i + 2] = [(op, nodes[i], nodes[i + 1])]
    return nodes[0]


def _group_term(rng, forms, extra_repeats):
    leaves = list(forms) + [rng.choice(forms) for _ in range(extra_repeats)]
    rng.shuffle(leaves)
    return _lattice_tree(rng, [O.linear(f) for f in leaves])


def _max_x(t) -> int:
    if t[0] == "x":
        return t[1]
    return max((_max_x(c) for c in t[1:] if isinstance(c, tuple)), default=0)


def _points(rng, n, count, radius):
    return [[rng.randint(-radius, radius) for _ in range(n)] for _ in range(count)]


def canon_query(rng, n, m) -> Query:
    forms = _distinct_forms(rng, n, m, 3)
    term = _group_term(rng, forms, rng.randint(0, 2))
    wrap = rng.random()
    if wrap < 0.2:
        term = ("scal", rng.choice((2, 3)), term)
    elif wrap < 0.35:
        term = ("neg", term)
    elif wrap < 0.5:
        term = ("+", term, O.linear(tuple(rng.randint(-2, 2) for _ in range(n))))
    points = _points(rng, n, 12, 7)
    values = [O.eval_group(term, {O.x(i): c for i, c in enumerate(p, 1)}) for p in points]
    text = O.to_text(term)
    argv = ["canon", "--", text] if text.startswith("-") else ["canon", text]
    return Query("canon", tuple(argv), 0,
                 {"n": n, "points": points, "values": values})


def reduce_query(rng, n, m) -> Query:
    """k' = k / gcd(k, g), g the gcd of the term's values on Z^n.  In one
    variable the values are the multiples of t(1) and t(-1).  In more, every
    leaf is d times a primitive form, so g is exactly |c| d for an outer
    scalar c."""
    k = rng.randint(2, 24)
    c = rng.choice((1, 1, 2, 3, -1))
    if n == 1:
        forms = _distinct_forms(rng, 1, m, 6, ok=lambda f: f[0] != 0)
        term = _group_term(rng, forms, rng.randint(0, 1))
        term = term if c == 1 else ("neg", term) if c == -1 else ("scal", c, term)
        g = math.gcd(O.eval_group(term, {O.x(1): 1}), O.eval_group(term, {O.x(1): -1}))
    else:
        d = rng.choice((1, 2, 3, 4, 6))
        prims = _distinct_forms(rng, n, m, 3, ok=lambda f: math.gcd(*f) == 1)
        term = _group_term(rng, [tuple(d * a for a in f) for f in prims], rng.randint(0, 1))
        term = term if c == 1 else ("neg", term) if c == -1 else ("scal", c, term)
        g = abs(c) * d
    argv = ["reduce", "--k", str(k), *_opt("--term", O.to_text(term))]
    return Query("reduce", tuple(argv), 0, {"k_prime": k // math.gcd(k, g)})


# ---------------------------------------------------------------------------
# Model checking and evaluation in witness algebras

MODEL_PRIMES = (2, 3, 5, 7, 11)


def _k(j: int) -> int:
    return 2 + j % 11          # k = 2..12 in turn, so every seed has the same mix


def _model(rng, j: int, kind: str, k: int):
    """A scalar group descriptor of the given kind and its divisibility
    primes (None for Q).  For qs:S, even j get an S holding every prime of
    k and odd j an S that misses one, so half of them satisfy delta_k."""
    if kind == "z":
        return "z", []
    if kind == "q":
        return "q", None
    need = set(O.primes_of(k))
    primes = need | set(rng.sample(MODEL_PRIMES, rng.randint(0, 2)))
    if j % 2:
        primes.discard(rng.choice(sorted(need)))
        primes = primes or {rng.choice([p for p in MODEL_PRIMES if p not in need])}
    return _qs(sorted(primes)), sorted(primes)


def _check(model, sentence, holds, rng, extra=()) -> Query:
    argv = ["check", *extra, "--model", model, "--sentence", sentence,
            "--seed", str(rng.randint(0, 999))]
    return Query("check", tuple(argv), 0 if holds else 4, {"holds": holds})


def eps_gamma(kind):
    def gen(rng, j):
        k = _k(j)
        model, primes = _model(rng, j, kind, k)
        # --budget 100 (default 500): a true sentence costs ~0.2 s, not ~1 s
        return _check(f"gamma({model})", f"epsilon {k}", O.delta_holds(primes, k), rng,
                      ("--no-shortcut", "--budget", "100"))
    return gen


def delta_scalar(rng, j) -> Query:
    k = _k(j)
    model, primes = _model(rng, j // 3, ("z", "q", "qs")[j % 3], k)
    return _check(model, f"delta {k}", O.delta_holds(primes, k), rng)


def delta_lex(rng, j) -> Query:
    """lex(A, B) divides iff both factors do.  A qs: left factor is rejected
    by efdkit's descriptor parser (ROADMAP item 5); run.py probes that
    defect outside the workload."""
    k = _k(j)
    left, lp = (("z", []), ("q", None))[j % 2]
    right, rp = _model(rng, j // 6, ("z", "q", "qs")[j // 2 % 3], k)
    holds = O.delta_holds(lp, k) and O.delta_holds(rp, k)
    return _check(f"lex({left},{right})", f"delta {k}", holds, rng)


def delta_hoop(kind):
    def gen(rng, j):
        k = _k(j)
        model, primes = _model(rng, j, kind, k)
        return _check(f"cone({model})", f"delta {k}", O.delta_holds(primes, k), rng)
    return gen


def eps_two(rng, j) -> Query:
    # t_k is the identity on the two-element algebra, so epsilon_k holds
    return _check("two", f"epsilon {1 + j % 12}", True, rng)


def _gamma_element(rng):
    q = Fraction(rng.randint(0, 24), rng.randint(1, 12))
    return (0, q) if rng.random() < 0.5 else (1, -q)


def eval_query(rng, j) -> Query:
    k = _k(j)
    term = O.t_k(k)
    e = _gamma_element(rng)
    value = O.eval_gamma(term, {O.z(1): e})
    argv = ["eval", "--model", "gamma(q)", "--term", O.to_text(term),
            "--assign", f"z1={O.gamma_text(e)}"]
    return Query("eval", tuple(argv), 0, {"value": O.gamma_text(value)})


# ---------------------------------------------------------------------------
# The classification pipeline and its small neighbours

def classify_mv_query(rng, j) -> Query:
    ks = [rng.randint(2, 12) for _ in range(rng.choice((1, 1, 2)))]
    boolean = rng.random() < 0.25
    argv = ["classify", "--sig", "mv"]
    for k in ks:
        argv += ["--sentence", f"epsilon {k}"]
    if boolean:
        argv += ["--sentence", "boolean"]
    primes = frozenset(p for k in ks for p in O.primes_of(k))
    cls = ("boolean",) if boolean else ("divisible", "finite", primes)
    return Query("classify", tuple(argv), 0,
                 {"class": O.class_json("P", cls), "notes": []})


def classify_group_query(rng, j) -> Query:
    k = rng.randint(2, 24)
    a, b = (rng.choice([v for v in range(-6, 7) if v]) for _ in range(2))
    term = ("join", O.linear((a, 0)), O.linear((0, b)))
    argv = ["classify", "--sig", "group", "--sentence", f"delta {k} : {O.to_text(term)}"]
    kprime = k // math.gcd(k, math.gcd(a, b))
    primes = set(O.primes_of(kprime))
    if rng.random() < 0.3:
        k2 = rng.randint(2, 12)
        argv += ["--sentence", f"delta {k2}"]
        primes |= set(O.primes_of(k2))
    cls = ("divisible", "finite", frozenset(primes))
    return Query("classify", tuple(argv), 0, {"class": O.class_json("G", cls)})


def decompose_query(rng, j) -> Query:
    k = rng.randint(2, 12)
    q_values = [str(Fraction(rng.randint(1, 20), rng.randint(1, 6))) for _ in range(2)]
    return Query("decompose", ("decompose", "--sentence", f"epsilon {k}"), 0,
                 {"k": k, "q_values": q_values})


def _hoop_term(rng, n, depth):
    if depth == 0 or rng.random() < 0.25:
        return O.x(rng.randint(1, n))
    r = rng.random()
    if r < 0.4:
        return ("+", _hoop_term(rng, n, depth - 1), _hoop_term(rng, n, depth - 1))
    if r < 0.8:
        return ("monus", _hoop_term(rng, n, depth - 1), _hoop_term(rng, n, depth - 1))
    return ("scal", rng.randint(2, 4), _hoop_term(rng, n, depth - 1))


def translate_query(rng, j) -> Query:
    if rng.random() < 0.3:
        k = rng.randint(2, 12)
        argv = ("translate", "--direction", "star", "--sentence", f"delta {k}")
        return Query("translate", argv, 0,
                     {"k": k, "points": _points(rng, 1, 4, 9)})
    n = rng.randint(1, 3)
    term = _hoop_term(rng, n, 3)
    argv = ("translate", "--direction", "star", "--term", O.to_text(term))
    return Query("translate", argv, 0,
                 {"source": term, "points": _points(rng, _max_x(term), 6, 9)})


def _class_spec(rng, family):
    r = rng.random()
    if r < 0.15:
        return "trivial", ("trivial",)
    if r < 0.3 and family == "P":
        return "boolean", ("boolean",)
    primes = frozenset(rng.sample(PRIMES, rng.randint(0, 3)))
    body = ",".join(map(str, sorted(primes)))
    if rng.random() < 0.25:
        return f"divisible:co:{body}", ("divisible", "cofinite", primes)
    return f"divisible:{body}", ("divisible", "finite", primes)


def _expansion_spec(rng, base):
    r = rng.random()
    if r < 0.1:
        return f"{base}:inconsistent", ("trivial",)
    if r < 0.2 and base == "lp":
        return "lp:classical", ("boolean",)
    primes = frozenset(rng.sample(PRIMES, rng.randint(0, 3)))
    return f"{base}:" + ",".join(map(str, sorted(primes))), ("divisible", "finite", primes)


def lattice_query(rng, j) -> Query:
    op = rng.choice(("includes", "meet", "join", "order"))
    if op == "order":
        base = rng.choice(("bal", "lp"))
        (ls, lc), (rs, rc) = _expansion_spec(rng, base), _expansion_spec(rng, base)
        if lc == rc:
            rel = "equipollent"
        elif O.class_subset(rc, lc):
            rel = "morphism-exists"
        else:
            rel = "incomparable"
        argv = ("lattice", "--op", "order", "--left", ls, "--right", rs)
        return Query("lattice", argv, 0, {"fields": {"relation": rel}})
    family = rng.choice(("G", "P"))
    (ls, lc), (rs, rc) = _class_spec(rng, family), _class_spec(rng, family)
    fields = {"left": O.class_json(family, lc), "right": O.class_json(family, rc)}
    if op == "includes":
        fields["includes"] = O.class_subset(lc, rc)
    elif op == "meet":
        fields["meet"] = O.class_json(family, O.class_meet(lc, rc))
    else:
        fields["join"] = O.class_json(family, O.class_join(lc, rc))
    argv = ("lattice", "--family", family, "--op", op, "--left", ls, "--right", rs)
    return Query("lattice", argv, 0, {"fields": fields})


def axioms_query(rng, j) -> Query:
    base = rng.choice(("bal", "lp"))
    primes = sorted(rng.sample((2, 3, 5, 7, 11, 13), rng.randint(1, 4)))
    argv = ("axioms", "--base", base, "--primes", ",".join(map(str, primes)))
    return Query("axioms", argv, 0, {"base": base, "primes": primes})


def _dot(r, p):
    return sum(a * b for a, b in zip(r, p))


def _rows_positive_at(rng, p, count):
    rows = []
    while len(rows) < count:
        r = [rng.randint(-3, 3) for _ in p]
        if _dot(r, p) >= 1:
            rows.append(r)
    return rows


def fulldim_query(rng, j) -> Query:
    """Systems whose verdict is known by construction: either every row is
    positive at a chosen point, or a positive combination of some rows is 0
    (those rows are then the implicit equalities) while the others stay
    positive at a point where the combination's rows vanish."""
    n = rng.randint(1, 3)
    nonzero = lambda v: any(v)
    if rng.random() < 0.5:
        p = [rng.choice([v for v in range(-3, 4) if v]) for _ in range(n)]
        rows, full, eqs = _rows_positive_at(rng, p, rng.randint(1, 4)), True, []
    else:
        r = [0] * n
        while not nonzero(r):
            r = [rng.randint(-3, 3) for _ in range(n)]
        scale = rng.randint(1, 3)
        dep = [r, [-scale * c for c in r]]
        if n == 1:
            p = [0]
        else:
            if n == 2:
                p = [-r[1], r[0]]
            else:
                p = [0, 0, 0]
                while not nonzero(p):
                    w = [rng.randint(-2, 2) for _ in range(3)]
                    p = [r[1] * w[2] - r[2] * w[1], r[2] * w[0] - r[0] * w[2],
                         r[0] * w[1] - r[1] * w[0]]
        others = _rows_positive_at(rng, p, rng.randint(0, 2)) if nonzero(p) else []
        rows, full = dep + others, False
        rng.shuffle(rows)
        eqs = [list(O.primitive(row)) for row in dep]
    text = ";".join(",".join(map(str, row)) for row in rows)
    return Query("fulldim", ("fulldim", f"--rows={text}"), 0,
                 {"n": n, "rows": rows, "full": full, "equalities": eqs})


# ---------------------------------------------------------------------------
# Workloads: stratum -> (count, generator).  Counts are exact, so every
# seed has the same composition; the seed picks the members.

# group-canon: (subcommand, m distinct forms, n variables) -> queries;
# weighted toward m = 2..3, 10% at m >= 5.  The tail is mostly m = 5, n = 3,
# whose LP-call count varies by ~4% between terms (n = 2: ~20%), and p95
# (the 20th slowest query) falls in the middle of those 30 queries.  m = 6,
# n = 3 is left out: one such term costs ~3 s, a fifth of a pass.
def _group_canon_mix():
    mix = {}
    for m, counts in {1: (4, 3, 3), 2: (20, 20, 20), 3: (20, 20, 20), 4: (16, 17, 17)}.items():
        for n, count in enumerate(counts, start=1):
            mix[("canon", m, n)] = mix[("reduce", m, n)] = count
    mix.update({
        ("canon", 5, 1): 2, ("reduce", 5, 1): 1, ("canon", 5, 3): 15, ("reduce", 5, 3): 15,
        ("canon", 6, 1): 2, ("reduce", 6, 1): 1, ("canon", 6, 2): 2, ("reduce", 6, 2): 2,
    })
    return mix


GROUP_CANON_MIX = _group_canon_mix()


def _group_canon():
    gens = {"canon": canon_query, "reduce": reduce_query}
    return {f"{kind}-m{m}-n{n}": (count, lambda r, j, g=gens[kind], m=m, n=n: g(r, n, m))
            for (kind, m, n), count in GROUP_CANON_MIX.items()}


WORKLOADS = {
    "group-canon": _group_canon(),
    "mv-check": {
        "check-eps-gamma-q": (22, eps_gamma("q")),
        "check-eps-gamma-qs": (22, eps_gamma("qs")),
        "check-eps-gamma-z": (11, eps_gamma("z")),
        "check-delta-hoop-q": (11, delta_hoop("q")),
        "check-delta-hoop-qs": (22, delta_hoop("qs")),
        "check-delta-hoop-z": (11, delta_hoop("z")),
        "check-delta-scalar": (33, delta_scalar),
        "check-delta-lex": (24, delta_lex),
        "check-eps-two": (24, eps_two),
        "eval-tk": (132, eval_query),
    },
    "classify-pipeline": {
        "classify-mv": (80, classify_mv_query),
        "classify-group": (80, classify_group_query),
        "decompose": (40, decompose_query),
        "translate": (60, translate_query),
        "lattice": (60, lattice_query),
        "axioms": (40, axioms_query),
        "fulldim": (60, fulldim_query),
    },
    "cli-cold": {
        "lattice": (50, lattice_query),
        "axioms": (30, axioms_query),
        "fulldim": (40, fulldim_query),
        "classify-group": (40, classify_group_query),
        "eval": (40, eval_query),
    },
}

# cli-cold spawns the CLI once per query instead of calling it in-process
SUBPROCESS_WORKLOADS = {"cli-cold"}


def build(workload: str, seed: int) -> list[Query]:
    """The workload's corpus, interleaved so that every prefix has about
    the stated composition."""
    rng = random.Random(f"{workload}/{seed}")
    keyed = []
    for s_index, (name, (count, gen)) in enumerate(WORKLOADS[workload].items()):
        for j in range(count):
            keyed.append(((j + 0.5) / count, s_index, replace(gen(rng, j), stratum=name)))
    keyed.sort(key=lambda item: item[:2])
    return [q for _, _, q in keyed]


def subcommands(queries) -> list[str]:
    return sorted({q.argv[0] for q in queries})
