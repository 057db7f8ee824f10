"""The benchmark's own exact semantics, used to check every efdkit answer.

Nothing here imports efdkit: terms are plain tuples built by the corpus
generator, and the algebras are re-derived from their definitions (closed
forms on Gamma, lexicographic order on pairs, prime support for
divisibility), so a defect in efdkit cannot hide behind the checker.

Term nodes:
    ("x", i) ("z", i) ("0",) ("+", a, b) ("neg", a) ("join", a, b)
    ("meet", a, b) ("monus", a, b) ("mvneg", a) ("scal", k, a) ("pow", k, a)
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

ZERO = ("0",)


def x(i):
    return ("x", i)


def z(i):
    return ("z", i)


# ---------------------------------------------------------------------------
# Printing in efdkit's documented concrete syntax

_JOIN, _MEET, _SUM, _PREFIX, _POSTFIX = range(1, 6)


def _level(t) -> int:
    op = t[0]
    if op == "join":
        return _JOIN
    if op == "meet":
        return _MEET
    if op in ("+", "monus"):
        return _SUM
    if op in ("neg", "mvneg", "scal"):
        return _PREFIX
    return _POSTFIX


def _wrap(t, need: int) -> str:
    s = to_text(t)
    return f"({s})" if _level(t) < need else s


def to_text(t) -> str:
    op = t[0]
    if op in ("x", "z"):
        return f"{op}{t[1]}"
    if op == "0":
        return "0"
    if op == "join":
        return f"{_wrap(t[1], _JOIN)} \\/ {_wrap(t[2], _MEET)}"
    if op == "meet":
        return f"{_wrap(t[1], _MEET)} /\\ {_wrap(t[2], _SUM)}"
    if op == "+":
        if t[2][0] == "neg":
            return f"{_wrap(t[1], _SUM)} - {_wrap(t[2][1], _PREFIX)}"
        return f"{_wrap(t[1], _SUM)} + {_wrap(t[2], _PREFIX)}"
    if op == "monus":
        return f"{_wrap(t[1], _SUM)} -. {_wrap(t[2], _PREFIX)}"
    if op == "neg":
        return f"-{_wrap(t[1], _PREFIX)}"
    if op == "mvneg":
        return f"~{_wrap(t[1], _PREFIX)}"
    if op == "scal":
        return f"{t[1]} {_wrap(t[2], _POSTFIX)}"
    if op == "pow":
        inner = to_text(t[2])
        if t[2][0] not in ("x", "z", "0"):
            inner = f"({inner})"
        return f"{inner}^{t[1]}"
    raise ValueError(f"bad node {t!r}")


def linear(form) -> tuple:
    """The term c1 x1 + ... + cn xn, written the way a user would."""
    t = None
    for i, c in enumerate(form, start=1):
        if c == 0:
            continue
        mono = x(i) if abs(c) == 1 else ("scal", abs(c), x(i))
        if t is None:
            t = mono if c > 0 else ("neg", mono)
        else:
            t = ("+", t, mono if c > 0 else ("neg", mono))
    return ZERO if t is None else t


def t_k(k: int):
    """t_k(z1) = (k z1 /\\ ~2 z1^2) \\/ z1^k."""
    zz = z(1)
    kz = zz if k == 1 else ("scal", k, zz)
    zk = zz if k == 1 else ("pow", k, zz)
    return ("join", ("meet", kz, ("mvneg", ("scal", 2, ("pow", 2, zz)))), zk)


# ---------------------------------------------------------------------------
# Evaluation

def eval_group(t, env):
    """Value in an ordered group of rationals: join is max, meet is min."""
    op = t[0]
    if op in ("x", "z"):
        return env[t]
    if op == "0":
        return 0
    if op == "+":
        return eval_group(t[1], env) + eval_group(t[2], env)
    if op == "neg":
        return -eval_group(t[1], env)
    if op == "join":
        return max(eval_group(t[1], env), eval_group(t[2], env))
    if op == "meet":
        return min(eval_group(t[1], env), eval_group(t[2], env))
    if op == "scal":
        return t[1] * eval_group(t[2], env)
    raise ValueError(f"{op} is not a group operation")


def eval_hoop(t, env):
    """Value in the positive cone of the rationals: monus truncates at 0."""
    op = t[0]
    if op == "monus":
        return max(eval_hoop(t[1], env) - eval_hoop(t[2], env), 0)
    if op == "+":
        return eval_hoop(t[1], env) + eval_hoop(t[2], env)
    if op == "scal":
        return t[1] * eval_hoop(t[2], env)
    if op in ("x", "z", "0"):
        return eval_group(t, env)
    raise ValueError(f"{op} is not a hoop operation")


# Gamma(Z lex G, (1, 0)): elements are pairs (i, q) compared
# lexicographically, between (0, 0) and the unit (1, 0).  Python compares
# tuples lexicographically, so min/max are the lattice operations.
G0 = (0, Fraction(0))
G1 = (1, Fraction(0))


def _gclamp(i, q):
    return min(max((i, Fraction(q)), G0), G1)


def eval_gamma(t, env):
    op = t[0]
    if op in ("x", "z"):
        return env[t]
    if op == "0":
        return G0
    if op == "+":
        u, v = eval_gamma(t[1], env), eval_gamma(t[2], env)
        return _gclamp(u[0] + v[0], u[1] + v[1])
    if op == "mvneg":
        u = eval_gamma(t[1], env)
        return (1 - u[0], -u[1])
    if op == "join":
        return max(eval_gamma(t[1], env), eval_gamma(t[2], env))
    if op == "meet":
        return min(eval_gamma(t[1], env), eval_gamma(t[2], env))
    if op == "monus":
        u, v = eval_gamma(t[1], env), eval_gamma(t[2], env)
        return _gclamp(u[0] - v[0], u[1] - v[1])
    if op == "scal":
        # k.u = min(1, k u)
        u = eval_gamma(t[2], env)
        return _gclamp(t[1] * u[0], t[1] * u[1])
    if op == "pow":
        # u^k = max(0, k u - (k - 1))
        k, u = t[1], eval_gamma(t[2], env)
        return _gclamp(k * u[0] - (k - 1), k * u[1])
    raise ValueError(f"{op} is not an MV operation")


_JSON_OPS = {
    "plus": "+", "join": "join", "meet": "meet", "diff": "monus",
    "neg": "neg", "mvneg": "mvneg", "scalar": "scal", "power": "pow",
}


def from_json(obj):
    """efdkit's node-tagged AST as a benchmark term."""
    op = obj["op"]
    if op == "var":
        return (obj["kind"], obj["index"])
    if op == "zero":
        return ZERO
    mine = _JSON_OPS[op]
    if "left" in obj:
        return (mine, from_json(obj["left"]), from_json(obj["right"]))
    if "k" in obj:
        return (mine, obj["k"], from_json(obj["arg"]))
    return (mine, from_json(obj["arg"]))


def parse_gamma(text: str):
    """An element literal "(i, q)" as printed by efdkit."""
    inner = text.strip()
    if not (inner.startswith("(") and inner.endswith(")")):
        raise ValueError(f"not a pair: {text!r}")
    i, q = inner[1:-1].split(",")
    return (int(i), Fraction(q.strip()))


def gamma_text(e) -> str:
    return f"({e[0]}, {e[1]})"


# ---------------------------------------------------------------------------
# Arithmetic facts

def primes_of(k: int) -> list[int]:
    out, d = [], 2
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    if k > 1:
        out.append(k)
    return out


def delta_holds(primes, k: int) -> bool:
    """delta_k (unique k-th division) holds in Q_S iff primes(k) lie in S;
    primes=None stands for Q, an empty set for Z."""
    return primes is None or set(primes_of(k)) <= set(primes)


def integer_rank(vectors) -> int:
    """Rank over Q of rational vectors, by fraction-free elimination."""
    rows = []
    for v in vectors:
        den = math.lcm(*(Fraction(c).denominator for c in v))
        rows.append([int(Fraction(c) * den) for c in v])
    rank, cols = 0, len(rows[0]) if rows else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [p[col] * a - f * b for a, b in zip(rows[r], p)]
        rank += 1
    return rank


def primitive(form) -> tuple:
    g = math.gcd(*form)
    return tuple(c // g for c in form) if g > 1 else tuple(form)


# ---------------------------------------------------------------------------
# Classes of models, ordered by inclusion.  A class is ("trivial",),
# ("boolean",) or ("divisible", kind, primes) with kind "finite" or
# "cofinite"; divisible(S) is the class where every p in S divides.

def _prime_subset(a, b) -> bool:
    (ka, pa), (kb, pb) = a, b
    if ka == "finite" and kb == "finite":
        return pa <= pb
    if ka == "finite":
        return not (pa & pb)
    if kb == "finite":
        return False
    return pb <= pa


def _prime_union(a, b):
    (ka, pa), (kb, pb) = a, b
    if ka == kb == "finite":
        return ("finite", pa | pb)
    if ka == kb == "cofinite":
        return ("cofinite", pa & pb)
    fin, cof = (pa, pb) if ka == "finite" else (pb, pa)
    return ("cofinite", cof - fin)


def _prime_inter(a, b):
    (ka, pa), (kb, pb) = a, b
    if ka == kb == "finite":
        return ("finite", pa & pb)
    if ka == kb == "cofinite":
        return ("cofinite", pa | pb)
    fin, cof = (pa, pb) if ka == "finite" else (pb, pa)
    return ("finite", fin - cof)


_HEIGHT = {"trivial": 0, "boolean": 1, "divisible": 2}


def class_subset(c1, c2) -> bool:
    """Every model of c1 is a model of c2.  More primes, fewer models."""
    if c1[0] == "divisible" and c2[0] == "divisible":
        return _prime_subset(c2[1:], c1[1:])
    return _HEIGHT[c1[0]] <= _HEIGHT[c2[0]]


def class_meet(c1, c2):
    if c1[0] == "divisible" and c2[0] == "divisible":
        return ("divisible",) + _prime_union(c1[1:], c2[1:])
    return c1 if _HEIGHT[c1[0]] <= _HEIGHT[c2[0]] else c2


def class_join(c1, c2):
    if c1[0] == "divisible" and c2[0] == "divisible":
        return ("divisible",) + _prime_inter(c1[1:], c2[1:])
    return c1 if _HEIGHT[c1[0]] >= _HEIGHT[c2[0]] else c2


def class_json(family: str, c) -> dict:
    body = {"family": family, "class": c[0]}
    if c[0] == "divisible":
        kind, primes = c[1], sorted(c[2])
        body["primes"] = primes if kind == "finite" else {"cofinite": primes}
    return body


# ---------------------------------------------------------------------------
# Answer checks, one per query kind.  Each returns None when the answer is
# right and a one-line reason otherwise.

def check(kind: str, expect, stdout: str):
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    try:
        return _CHECKS[kind](expect, payload)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return f"malformed answer: {type(exc).__name__}: {exc}"


def _contains(region, point) -> bool:
    return all(sum(c * p for c, p in zip(row, point)) >= 0 for row in region)


def _check_canon(e, payload):
    pw = payload["piecewise"]
    if pw["n"] != e["n"]:
        return f"n is {pw['n']}, expected {e['n']}"
    for point, value in zip(e["points"], e["values"]):
        hits = [p for p in pw["pieces"] if _contains(p["region"], point)]
        if not hits:
            return f"no region contains {point}"
        for piece in hits:
            got = sum(c * p for c, p in zip(piece["form"], point))
            if got != value:
                return f"form {piece['form']} gives {got} at {point}, expected {value}"
    return None


def _check_reduce(e, payload):
    if payload["k_prime"] != e["k_prime"]:
        return f"k_prime {payload['k_prime']}, expected {e['k_prime']}"
    return None


def _check_class(e, payload):
    got = {k: payload.get(k) for k in ("family", "class", "primes")}
    want = {k: e["class"].get(k) for k in ("family", "class", "primes")}
    if got != want:
        return f"class {got}, expected {want}"
    if "notes" in e and payload.get("notes") != e["notes"]:
        return f"notes {payload.get('notes')}, expected {e['notes']}"
    return None


def _check_verdict(e, payload):
    falsified = payload["verdict"]["status"] == "falsified"
    if falsified == e["holds"]:
        return f"verdict {payload['verdict']['status']}, expected holds={e['holds']}"
    return None


def _check_eval(e, payload):
    got = parse_gamma(payload["value"])
    want = parse_gamma(e["value"])
    if got != want:
        return f"value {payload['value']}, expected {e['value']}"
    return None


def _check_decompose(e, payload):
    """Each branch of epsilon_k must still single out z = (0, q/k) over a
    radical x = (0, q), and z = 0 over a co-radical x."""
    k, n = e["k"], 1
    branches = payload["branches"]
    if [b["sign_vector"] for b in branches] != [[0], [1]]:
        return f"sign vectors {[b['sign_vector'] for b in branches]}"
    for b in branches:
        ast = b["sentence"]["ast"]
        if (ast["signature"], ast["n"], ast["m"]) != ("mv", n, 1):
            return "branch is not an mv sentence in x1, z1"
        eqs = [(from_json(q["lhs"]), from_json(q["rhs"])) for q in ast["equations"]]
        for q in e["q_values"]:
            q = Fraction(q)
            rad, corad = (0, q), (1, -q)
            cases = [
                (rad, (0, q / k), True),
                (rad, (0, q / k + Fraction(1, 7)), False),
                (corad, G0, True),
                (corad, (0, Fraction(1, 3)), False),
            ]
            for xv, zv, want in cases:
                env = {x(1): xv, z(1): zv}
                got = all(eval_gamma(l, env) == eval_gamma(r, env) for l, r in eqs)
                if got != want:
                    return f"branch {b['sign_vector']} at x={xv}, z={zv}: {got}"
    return None


def _check_star(e, payload):
    """star(t)(p) must equal t evaluated in the positive cone at |p|."""
    if "term" in payload:
        image = from_json(payload["term"])
        source = e["source"]
        for point in e["points"]:
            env = {x(i): Fraction(c) for i, c in enumerate(point, start=1)}
            absenv = {v: abs(c) for v, c in env.items()}
            if eval_group(image, env) != eval_hoop(source, absenv):
                return f"star image disagrees at {point}"
        return None
    ast = payload["sentence"]["ast"]
    eqs = [(from_json(q["lhs"]), from_json(q["rhs"])) for q in ast["equations"]]
    k = e["k"]
    for point in e["points"]:
        xv = Fraction(point[0])
        for zv, want in ((abs(xv) / k, True), (abs(xv) / k + 1, False), (-Fraction(1, k), False)):
            env = {x(1): xv, z(1): zv}
            if all(eval_group(l, env) == eval_group(r, env) for l, r in eqs) != want:
                return f"star sentence at x={xv}, z={zv} should be {want}"
    return None


def _check_lattice(e, payload):
    for key, want in e["fields"].items():
        if payload.get(key) != want:
            return f"{key} is {payload.get(key)!r}, expected {want!r}"
    return None


def _check_axioms(e, payload):
    axioms = payload["axioms"]
    if payload["primes"] != e["primes"] or len(axioms) != len(e["primes"]):
        return f"primes {payload['primes']}, expected {e['primes']}"
    letter = "A" if e["base"] == "bal" else "D"
    for p, ax in zip(e["primes"], axioms):
        if ax["name"] != f"{letter}_{p}" or ax["fresh_symbols"] != [f"d{p}"]:
            return f"axiom {ax['name']} for prime {p}"
        if f"{p} d{p}(x)" not in ax["formula"]:
            return f"formula {ax['formula']!r} does not scale d{p} by {p}"
    return None


def _check_fulldim(e, payload):
    rows = e["rows"]
    if payload["full_dimensional"] != e["full"]:
        return f"full_dimensional {payload['full_dimensional']}, expected {e['full']}"
    if e["full"]:
        basis = [[Fraction(c) for c in v] for v in payload["basis"]]
        if len(basis) != e["n"] or integer_rank(basis) != e["n"]:
            return "basis does not have full rank"
        if not all(_contains(rows, v) for v in basis):
            return "a basis vector leaves the cone"
        return None
    if list(payload["certificate"]) not in e["equalities"]:
        return f"certificate {payload['certificate']} is not an implicit equality"
    return None


_CHECKS = {
    "canon": _check_canon,
    "reduce": _check_reduce,
    "classify": _check_class,
    "check": _check_verdict,
    "eval": _check_eval,
    "decompose": _check_decompose,
    "translate": _check_star,
    "lattice": _check_lattice,
    "axioms": _check_axioms,
    "fulldim": _check_fulldim,
}
