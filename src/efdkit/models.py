"""Computable witness algebras with exact term evaluation and exact or
sampled sentence checking.

Every witness algebra is read off one totally ordered Abelian group G and
its arithmetic (zero, +, -, <, k-fold multiple):

- a group model is G itself: numbers, or (nested) lex pairs of numbers;
- cone(G) is the positive cone of G, a cancellative hoop with
  u -. v = (u - v) \\/ 0;
- an MV model is Gamma(G, u), the interval [0, u] with x + y cut at u and
  ~x = u - x (Mundici).  TwoMV is Gamma(Z, 1) on the bits 0 and 1, and the
  perfect algebra GammaPerfect(A) is Gamma(Z lex A, (1, 0)) (Di Nola and
  Lettieri): pairs (i, q) with i in {0, 1}, q >= 0 when i = 0 (the radical)
  and q <= 0 when i = 1.

Terms are walked on integer codes, the rational coordinates of elements
times a scale M that clears their denominators (_codec), through one table
of node operations per algebra (_evaluator).  eval_term scales by the
common denominator of one assignment and divides the value by it again;
the sampled checker keeps one M for a whole check, forms its candidate
pool at M, and when an assignment needs a larger M multiplies its memo up.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from collections.abc import Callable
from fractions import Fraction

from .lattice import is_prime
from .record import Record
from .terms import (
    Diff,
    EFDSentence,
    Join,
    Meet,
    MVNeg,
    Neg,
    Plus,
    Power,
    Scalar,
    Signature,
    Term,
    Var,
    ZERO,
    Zero,
    fold,
    free_vars,
    xvar,
)

__all__ = [
    "ModelError",
    "IntegerGroup",
    "RationalGroup",
    "LocalizedRationals",
    "LexProduct",
    "PositiveCone",
    "GammaPerfect",
    "TwoMV",
    "WitnessAlgebra",
    "species",
    "check_element",
    "eval_term",
    "radical_member",
    "gamma_div",
    "holds_delta_exact",
    "qs_member",
    "sample_elements",
    "Verdict",
    "check_sentence_sampled",
    "solutions_for_assignment",
    "candidate_pool",
    "parse_model",
    "model_name",
    "parse_element",
    "format_element",
    "format_assignment",
]


class ModelError(ValueError):
    pass


class IntegerGroup(Record):
    pass


class RationalGroup(Record):
    pass


class LocalizedRationals(Record):
    primes: frozenset[int]

    def __post_init__(self):
        for p in self.primes:
            if not is_prime(p):
                raise ModelError(f"{p} is not prime")


class LexProduct(Record):
    left: "WitnessAlgebra"
    right: "WitnessAlgebra"


class PositiveCone(Record):
    inner: "WitnessAlgebra"


class GammaPerfect(Record):
    """Gamma of (Z lex inner) with unit (1, 0)."""

    inner: "WitnessAlgebra"


class TwoMV(Record):
    pass


WitnessAlgebra = (
    IntegerGroup
    | RationalGroup
    | LocalizedRationals
    | LexProduct
    | PositiveCone
    | GammaPerfect
    | TwoMV
)

_GROUPS = (IntegerGroup, RationalGroup, LocalizedRationals, LexProduct)
_BITS = (0, 1)  # the universe of TwoMV


def species(a: WitnessAlgebra) -> Signature:
    if isinstance(a, _GROUPS):
        return Signature.GROUP
    if isinstance(a, PositiveCone):
        return Signature.HOOP
    if isinstance(a, (GammaPerfect, TwoMV)):
        return Signature.MV
    raise ModelError(f"not a witness algebra: {a!r}")


def qs_member(q: Fraction, primes: frozenset[int]) -> bool:
    """Exact membership in Q_S: the reduced denominator's prime support
    lies in S."""
    den = q.denominator
    for p in primes:
        while den % p == 0:
            den //= p
    return den == 1


def check_element(a: WitnessAlgebra, e) -> None:
    if isinstance(a, IntegerGroup):
        if not (isinstance(e, int) or (isinstance(e, Fraction) and e.denominator == 1)):
            raise ModelError(f"{format_element(e)} is not an integer")
    elif isinstance(a, RationalGroup):
        if not isinstance(e, (int, Fraction)):
            raise ModelError(f"{format_element(e)} is not a rational")
    elif isinstance(a, LocalizedRationals):
        if not isinstance(e, (int, Fraction)) or not qs_member(Fraction(e), a.primes):
            raise ModelError(f"{format_element(e)} is not in Q_S for S={sorted(a.primes)}")
    elif isinstance(a, LexProduct):
        if not (isinstance(e, tuple) and len(e) == 2):
            raise ModelError(f"{format_element(e)} is not a lex pair")
        check_element(a.left, e[0])
        check_element(a.right, e[1])
    elif isinstance(a, PositiveCone):
        check_element(a.inner, e)
        g = _group(a.inner)
        if g.lt(e, g.zero):
            raise ModelError(f"{format_element(e)} is negative")
    elif isinstance(a, GammaPerfect):
        if not (isinstance(e, tuple) and len(e) == 2 and e[0] in (0, 1)):
            raise ModelError(f"{format_element(e)} is not a Gamma pair")
        check_element(a.inner, e[1])
        g = _group(a.inner)
        if e[0] == 0 and g.lt(e[1], g.zero):
            raise ModelError(f"{format_element(e)} has a negative part on the radical side")
        if e[0] == 1 and g.lt(g.zero, e[1]):
            raise ModelError(f"{format_element(e)} has a positive part on the co-radical side")
    elif isinstance(a, TwoMV):
        if e not in _BITS:
            raise ModelError(f"{format_element(e)} is not a bit")
    else:
        raise ModelError(f"not a witness algebra: {a!r}")


# ---------------------------------------------------------------------------
# Ordered-group arithmetic: every witness algebra is read off one of these


class _Group:
    """A totally ordered Abelian group: zero, u + v, -u, u < v and k u.
    Equal only to itself, as _RATIONAL and _INTEGER have equal fields."""

    __slots__ = ("zero", "add", "neg", "lt", "scale")

    def __init__(self, zero, add: Callable, neg: Callable, lt: Callable, scale: Callable):
        self.zero, self.add, self.neg, self.lt, self.scale = zero, add, neg, lt, scale

    def join(self, u, v):
        return v if self.lt(u, v) else u

    def meet(self, u, v):
        return u if self.lt(u, v) else v


_RATIONAL = _Group(Fraction(0), operator.add, operator.neg, operator.lt, operator.mul)
_INTEGER = _Group(0, operator.add, operator.neg, operator.lt, operator.mul)


def _lex(left: _Group, right: _Group) -> _Group:
    """left x_lex right, ordered by the left coordinate first."""
    zero = (left.zero, right.zero)
    if left in (_RATIONAL, _INTEGER) and right in (_RATIONAL, _INTEGER):
        return _Group(
            zero,
            lambda u, v: (u[0] + v[0], u[1] + v[1]),
            lambda u: (-u[0], -u[1]),
            lambda u, v: u[0] < v[0] or (u[0] == v[0] and u[1] < v[1]),
            lambda k, u: (k * u[0], k * u[1]),
        )
    ladd, radd, lneg, rneg = left.add, right.add, left.neg, right.neg
    llt, rlt, lscale, rscale = left.lt, right.lt, left.scale, right.scale
    return _Group(
        zero,
        lambda u, v: (ladd(u[0], v[0]), radd(u[1], v[1])),
        lambda u: (lneg(u[0]), rneg(u[1])),
        lambda u, v: llt(u[0], v[0]) or (u[0] == v[0] and rlt(u[1], v[1])),
        lambda k, u: (lscale(k, u[0]), rscale(k, u[1])),
    )


@functools.lru_cache(maxsize=64)
def _group(a, scalar: _Group = _RATIONAL) -> _Group:
    """The group G of a group model: scalars, or nested lex pairs of them.
    With scalar=_INTEGER every scalar coordinate is an integer: G scaled by
    a common denominator, as the evaluator runs it."""
    if isinstance(a, LexProduct):
        return _lex(_group(a.left, scalar), _group(a.right, scalar))
    if isinstance(a, (IntegerGroup, RationalGroup, LocalizedRationals)):
        return scalar
    raise ModelError(f"not an ordered group: {a!r}")


# ---------------------------------------------------------------------------
# Scaling to integers: (den, up, down) per element shape
#
# den(e) is the lcm of the denominators of e's rational coordinates; up(e, D)
# multiplies each of them by D (a multiple of den(e)), down(u, D) divides
# them by D again.  x -> D x maps (1/D)Z onto Z preserving +, -, k x and <,
# so it commutes with every node operation, cut at the unit included.  The
# first coordinate of a Gamma pair and a bit of TwoMV are integers already.

_RATIONAL_LEAF = (
    operator.attrgetter("denominator"),
    lambda e, d: e.numerator * (d // e.denominator),
    Fraction,
)
_INTEGER_LEAF = (lambda e: 1, lambda e, d: e, lambda u, d: u)


def _pair_codec(left: tuple, right: tuple) -> tuple:
    (lden, lup, ldown), (rden, rup, rdown) = left, right
    return (
        lambda e: math.lcm(lden(e[0]), rden(e[1])),
        lambda e, d: (lup(e[0], d), rup(e[1], d)),
        lambda u, d: (ldown(u[0], d), rdown(u[1], d)),
    )


def _codec(a: WitnessAlgebra) -> tuple:
    """(den, up, down) for the elements of a."""
    if isinstance(a, (IntegerGroup, RationalGroup, LocalizedRationals)):
        return _RATIONAL_LEAF
    if isinstance(a, LexProduct):
        return _pair_codec(_codec(a.left), _codec(a.right))
    if isinstance(a, PositiveCone):
        return _codec(a.inner)
    if isinstance(a, GammaPerfect):
        return _pair_codec(_INTEGER_LEAF, _codec(a.inner))
    if isinstance(a, TwoMV):
        return _INTEGER_LEAF
    raise ModelError(f"not a witness algebra: {a!r}")


# ---------------------------------------------------------------------------
# Term evaluation


def eval_term(a: WitnessAlgebra, t: Term, assignment: dict) -> object:
    """Exact evaluation of t in a under a total assignment keyed by Var.

    The walk runs on integers: the assigned values are scaled by the lcm D
    of the denominators of their rational coordinates, and the value is
    divided by D again."""
    walk, (den, up, down) = _evaluator(a)
    d = math.lcm(*map(den, assignment.values()))
    return down(walk(t, {v: up(e, d) for v, e in assignment.items()}), d)


@functools.lru_cache(maxsize=64)
def _evaluator(a: WitnessAlgebra):
    """The term walker of a over integer coordinates, with the scaling of
    its elements, built once per algebra value.  A group model is its group
    G, cone(G) is the positive cone of G, and an MV model is Gamma(G, u):
    TwoMV is Gamma(Z, 1), GammaPerfect is Gamma(Z lex inner, (1, 0))."""
    if isinstance(a, PositiveCone):
        g = _group(a.inner, _INTEGER)
        walk = _walker("a hoop model", g, {
            Plus: g.add,
            Diff: _monus(g),
            Scalar: _nonnegative(g.scale, "negative scalar in a hoop term"),
        })
    elif isinstance(a, TwoMV):
        walk = _walker("TwoMV", _INTEGER, _gamma_ops(_INTEGER, 1))
    elif isinstance(a, GammaPerfect):
        inner = _group(a.inner, _INTEGER)
        g = _lex(_INTEGER, inner)
        walk = _walker("a Gamma model", g, _gamma_ops(g, (1, inner.zero)))
    else:
        g = _group(a, _INTEGER)
        walk = _walker("a group model", g, {Plus: g.add, Neg: g.neg, Scalar: g.scale})
    return walk, _codec(a)


def _monus(g: _Group) -> Callable:
    """u -. v = (u - v) \\/ 0, in the positive cone of G and in Gamma(G, u)."""
    add, neg, join, zero = g.add, g.neg, g.join, g.zero
    return lambda u, v: join(add(u, neg(v)), zero)


def _gamma_ops(g: _Group, unit) -> dict:
    """Gamma(G, u) on [0, u]: x + y and k x are cut at u, ~x = u - x and
    x^k = ~(k ~x)."""
    add, neg, lt = g.add, g.neg, g.lt

    def cap(x):
        return x if lt(x, unit) else unit

    def mvneg(x):
        return add(unit, neg(x))

    scale = _nonnegative(lambda k, u: cap(g.scale(k, u)), "negative scalar in an MV term")
    return {
        Plus: lambda u, v: cap(add(u, v)),
        Diff: _monus(g),
        MVNeg: mvneg,
        Scalar: scale,
        Power: lambda k, u: mvneg(scale(k, mvneg(u))),
    }


def _nonnegative(scale: Callable, message: str) -> Callable:
    def checked(k, u):
        if k < 0:
            raise ModelError(message)
        return scale(k, u)

    return checked


def _walker(label: str, g: _Group, ops: dict) -> Callable:
    """The recursive evaluator over one algebra's node operations, keyed by
    node type: (left, right) for Plus and Diff, arg for Neg and MVNeg,
    (k, arg) for Scalar and Power.  Join and meet come from the order of g."""

    def walk(t, env):
        node = nodes.get(type(t))
        if node is None:
            raise ModelError(f"{type(t).__name__} not evaluable in {label}")
        return node(t, env)

    def binary(f):
        return lambda t, env: f(walk(t.left, env), walk(t.right, env))

    def unary(f):
        return lambda t, env: f(walk(t.arg, env))

    def scaled(f):
        return lambda t, env: f(t.k, walk(t.arg, env))

    shapes = {
        Plus: binary, Diff: binary, Neg: unary, MVNeg: unary, Scalar: scaled, Power: scaled
    }
    nodes = {kind: shapes[kind](f) for kind, f in ops.items()}
    nodes[Var] = _lookup
    nodes[Zero] = lambda t, env: g.zero
    nodes[Join] = binary(g.join)
    nodes[Meet] = binary(g.meet)
    return walk


def _lookup(t: Var, assignment: dict):
    try:
        return assignment[t]
    except KeyError:
        raise ModelError(f"assignment missing {t.kind}{t.index}") from None


def radical_member(a: GammaPerfect | TwoMV, e) -> bool:
    """e is in the radical iff e * e = 0."""
    check_element(a, e)
    return eval_term(a, Power(2, xvar(1)), {xvar(1): e}) == eval_term(a, ZERO, {})


def gamma_div(a: GammaPerfect, e, k: int):
    """The element whose k-fold t_k image is e, i.e. (i, q/k), or None when
    the division leaves the inner group."""
    check_element(a, e)
    if not isinstance(a.inner, _GROUPS) or isinstance(a.inner, LexProduct):
        raise ModelError("gamma_div supports scalar inner groups only")
    cand = (e[0], Fraction(e[1]) / k)
    return cand if _element_ok(a, cand) else None


# ---------------------------------------------------------------------------
# Exact sentence decisions


def holds_delta_exact(a, k: int) -> bool:
    """Whether a is k-divisible: Q always, Z only for k = 1, Q_S iff 1/k lies
    in Q_S, lex(A, B) iff A and B are, cone(G) and Gamma(Z lex G) iff G is."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if isinstance(a, RationalGroup):
        return True
    if isinstance(a, IntegerGroup):
        return k == 1
    if isinstance(a, LocalizedRationals):
        return qs_member(Fraction(1, k), a.primes)
    if isinstance(a, LexProduct):
        return holds_delta_exact(a.left, k) and holds_delta_exact(a.right, k)
    if isinstance(a, (PositiveCone, GammaPerfect)):
        return holds_delta_exact(a.inner, k)
    raise ModelError(f"no exact delta_k decision for {a!r}")


# ---------------------------------------------------------------------------
# Sampling


def sample_elements(a: WitnessAlgebra, count: int, seed: int, cap: int = 12) -> list:
    rng = random.Random(seed)
    return [_sample_one(a, rng, cap) for _ in range(count)]


def _sample_one(a, rng: random.Random, cap: int):
    if isinstance(a, IntegerGroup):
        return Fraction(rng.randint(-cap, cap))
    if isinstance(a, RationalGroup):
        return Fraction(rng.randint(-cap, cap), rng.randint(1, cap))
    if isinstance(a, LocalizedRationals):
        den = 1
        for p in a.primes:
            den *= p ** rng.randint(0, 2)
        return Fraction(rng.randint(-cap, cap), den)
    if isinstance(a, LexProduct):
        return (_sample_one(a.left, rng, cap), _sample_one(a.right, rng, cap))
    if isinstance(a, (PositiveCone, GammaPerfect)):
        g = _group(a.inner)
        v = _sample_one(a.inner, rng, cap)
        mag = g.join(v, g.neg(v))
        if isinstance(a, PositiveCone):
            return mag
        if rng.random() < 0.5:
            return (0, mag)
        return (1, g.neg(mag))
    if isinstance(a, TwoMV):
        return rng.randint(0, 1)
    raise ModelError(f"not a witness algebra: {a!r}")


# ---------------------------------------------------------------------------
# Sentence checking


class Verdict(Record):
    status: str  # "holds", "consistent-on-sample" or "falsified"
    exact: bool  # False for a sampled pass and for a refutation by candidate search
    witness: tuple | None = None  # (x-assignment, z-solutions found there)
    detail: str = ""  # the deciding procedure, then the reason for a refutation

    def to_json(self):
        witness = None
        if self.witness is not None:
            env, sols = self.witness
            solutions = [[format_element(z) for z in zs] for zs in sols]
            witness = {"x": format_assignment(env), "solutions": solutions}
        return {
            "status": self.status,
            "confidence": "exact" if self.exact else "sampled",
            "witness": witness,
            "detail": self.detail,
        }


def _linear_part(g: _Group, t: Term, env: dict):
    """Read t as sum(coeff_j * z_j) + constant in g for the fixed x-assignment.

    Returns (coeffs: dict[int,int], constant) or None when a z-variable
    sits under a lattice or negation-incompatible operation.  A z-free join
    or meet is read off its children's constants.
    """

    def part(node, *kids):
        if isinstance(node, Var):
            if node.kind == "z":
                return ({node.index: 1}, g.zero)
            return ({}, _lookup(node, env))
        if isinstance(node, Zero):
            return ({}, g.zero)
        if None in kids:
            return None
        if isinstance(node, Plus):
            (lc, lv), (rc, rv) = kids
            coeffs = dict(lc)
            for j, c in rc.items():
                coeffs[j] = coeffs.get(j, 0) + c
            return (coeffs, g.add(lv, rv))
        if isinstance(node, (Neg, Scalar)):
            ((coeffs, v),) = kids
            k = -1 if isinstance(node, Neg) else node.k
            return ({j: k * c for j, c in coeffs.items()}, g.scale(k, v))
        if isinstance(node, (Join, Meet)):
            (lc, lv), (rc, rv) = kids
            if lc or rc:  # a z-variable occurs, with a zero coefficient or not
                return None
            return ({}, (g.join if isinstance(node, Join) else g.meet)(lv, rv))
        return None

    return fold(t, part)


def candidate_pool(a, xvals: list, cap: int = 12) -> list:
    """Structured z-candidates derived from the values of an x-assignment
    (and of the z-free equation sides there): zero, the values, their small
    integer divisions, and MV negations where defined.  Sorted, without
    repeats, and every candidate is an element of a.  It is the decoded
    view of _pool at m = D lcm(1..cap), D the common denominator of xvals."""
    if isinstance(a, TwoMV):
        return list(_BITS)
    den, _, down = _codec(a)
    m = math.lcm(*map(den, xvals)) * math.lcm(*range(1, cap + 1))
    return [down(w, m) for w in _pool(a, xvals, m, cap)]


def _pool(a, values: list, m: int, cap: int) -> list:
    """The candidate pool of the values as codes at scale m, a multiple of
    D lcm(1..cap) for their common denominator D: zero and each v / d
    (d <= cap) with its negative, or in a cone and in Gamma its absolute
    value, that lie in a; sorted, without repeats.  v / d scales to
    up(v, m // d), and Gamma pairs those q >= 0 as (0, q) and (1, -q)."""
    gamma = isinstance(a, GammaPerfect)
    if gamma:
        values = [e[1] for e in values]
    cone = gamma or isinstance(a, PositiveCone)
    group = a.inner if cone else a
    g = _group(group, _INTEGER)
    up = _codec(group)[1]
    scaled = {g.zero}
    for v in values:
        for d in range(1, cap + 1):
            w = up(v, m // d)
            if cone:
                scaled.add(g.join(w, g.neg(w)))
            else:
                scaled.add(w)
                scaled.add(g.neg(w))
    member = _in_group(group, m)
    pool = [w for w in sorted(scaled) if member(w)]
    if gamma:
        # q >= 0, so (0, q) and (1, -q) lie in Gamma iff q lies in the inner group
        return [e for q in pool for e in ((0, q), (1, -q))]
    return pool


def _in_group(a, m: int) -> Callable:
    """Membership in the group model a of a code at scale m: w / m lies in
    Q_S iff w is divisible by the part of m coprime to S (Z: all of m, Q: 1),
    and a lex pair lies in a lex product coordinate by coordinate."""
    if isinstance(a, LexProduct):
        left, right = _in_group(a.left, m), _in_group(a.right, m)
        return lambda w: left(w[0]) and right(w[1])
    k = 1 if isinstance(a, RationalGroup) else m
    for p in getattr(a, "primes", ()):
        while k % p == 0:
            k //= p
    return lambda w: w % k == 0


def _element_ok(a, e) -> bool:
    try:
        check_element(a, e)
    except ModelError:
        return False
    return True


def _nonzero(a):
    """A fixed nonzero element of the group model a: 1 in a scalar group,
    and in a lex product that of the left factor paired with zero."""
    if isinstance(a, LexProduct):
        return (_nonzero(a.left), _group(a.right).zero)
    return Fraction(1)


def solutions_for_assignment(a, phi: EFDSentence, xassign: dict):
    """Solutions z-bar of phi's equations at a fixed x-assignment, at most
    two: a second one already refutes uniqueness.

    Returns (solutions, exact): exact is True when the answer is complete
    (exhaustive domain or exact linear solve), False for candidate search.
    """
    return _Solver(a, phi).solve(xassign)


_MISSING = object()


def _no_z(zs) -> tuple:
    """The z-key of a side without z-variables."""
    return ()


class _Side:
    """One equation side and its memo: codes of the x-values of its free
    variables -> codes of the z-values of its free variables -> the code of
    the side's value."""

    __slots__ = ("term", "xvars", "zkey", "memo")

    def __init__(self, term: Term):
        fv = free_vars(term)
        self.term = term
        self.xvars = tuple(sorted((v for v in fv if v.kind == "x"), key=lambda v: v.index))
        zpos = sorted(v.index - 1 for v in fv if v.kind == "z")
        self.zkey = operator.itemgetter(*zpos) if len(zpos) > 1 else _no_z
        if len(zpos) == 1:  # a one-tuple, as every other z-key
            self.zkey = operator.itemgetter(slice(zpos[0], zpos[0] + 1))
        self.memo = {}


class _Solver:
    """solutions_for_assignment for one sentence in one algebra, one
    x-assignment after another.  A check builds one and drops it when it
    returns, so the memo of each equation side lives for that check only:
    the side is evaluated once per distinct tuple of values of its own free
    variables (t_k(z1) once per z1, x1 once per assignment).  A side without
    z-variables is evaluated first, since its value seeds the candidate pool;
    the others in the order of the plain search.

    The candidate search runs on integer codes at one scale M for the whole
    check: M only grows, to lcm(M, D lcm(1..cap)) before an assignment whose
    x-values have the common denominator D, and when it grows by r every
    memo key and value is multiplied by r, so no memo entry is lost.  Codes
    are decoded only for the z-free seeds and the reported solutions; the
    bits of the two-element model are their own codes and are not scaled."""

    def __init__(self, a, phi: EFDSentence, cap: int = 12):
        self.a, self.phi, self.cap = a, phi, cap
        self.linear = species(a) is Signature.GROUP and phi.m == 1
        self.exhaustive = isinstance(a, TwoMV)
        self.zvars = tuple(Var("z", j) for j in range(1, phi.m + 1))
        self.sides = [(_Side(lhs), _Side(rhs)) for lhs, rhs in phi.equations]
        self.walk, (self.den, self.up, self.down) = _evaluator(a)
        self.scale, self.lcm_cap = 1, math.lcm(*range(1, cap + 1))

    def solve(self, xassign: dict):
        if self.linear:
            found = self._solve_linear(xassign)
            if found is not None:
                return found
        # bounded structured candidate search, exhaustive on the two-element model
        return self._search(xassign), self.exhaustive

    def _solve_linear(self, xassign: dict):
        """The exact solve of group equations linear in z1, or None when a
        z-variable sits under a lattice operation.  Each row c z1 + b = 0 is
        read on codes at the scale d of the assignment, and z1 = -b / c is
        formed at d times the lcm of the coefficients."""
        a, g = self.a, _group(self.a, _INTEGER)
        d = math.lcm(*map(self.den, xassign.values()))
        env = {v: self.up(e, d) for v, e in xassign.items()}
        rows = []
        for lhs, rhs in self.phi.equations:
            lp, rp = _linear_part(g, lhs, env), _linear_part(g, rhs, env)
            if lp is None or rp is None:
                return None
            rows.append((lp[0].get(1, 0) - rp[0].get(1, 0), g.add(lp[1], g.neg(rp[1]))))
        lcm = math.lcm(*(c for c, _ in rows if c))
        zs = {g.scale(-(lcm // c), b) for c, b in rows if c}
        if any(c == 0 and b != g.zero for c, b in rows) or len(zs) > 1:
            return [], True
        if zs:
            (z,) = zs
            return ([(self.down(z, d * lcm),)] if _in_group(a, d * lcm)(z) else []), True
        # every z solves: report two witnesses of non-uniqueness
        zero = _group(a).zero
        pool = candidate_pool(a, list(xassign.values()), self.cap)
        other = next((z for z in pool if z != zero), None)
        if other is None:  # the pool is {0}: every x is zero, or there is none
            other = _nonzero(a)
        return [(zero,), (other,)], True

    def _rescale(self, m: int) -> None:
        """Move every memo key and value from scale self.scale to m."""
        up, r = self.up, m // self.scale
        for side in itertools.chain.from_iterable(self.sides):
            side.memo = {
                tuple(up(x, r) for x in xs): {
                    tuple(up(z, r) for z in zs): up(v, r) for zs, v in table.items()
                }
                for xs, table in side.memo.items()
            }
        self.scale = m

    def _search(self, xassign: dict) -> list:
        walk, zvars, down = self.walk, self.zvars, self.down
        if self.exhaustive:  # the bits are their own codes
            m, env = 1, xassign
        else:
            m = math.lcm(self.scale, math.lcm(*map(self.den, xassign.values())) * self.lcm_cap)
            if m != self.scale:
                self._rescale(m)
            env = {v: self.up(e, m) for v, e in xassign.items()}
        # per side: (term, z-key, the memo table of this assignment's x-codes)
        tables = [
            tuple(
                (s.term, s.zkey, s.memo.setdefault(tuple(map(env.get, s.xvars)), {}))
                for s in eq
            )
            for eq in self.sides
        ]

        def value(side, zs):
            term, zkey, table = side
            key = zkey(zs)
            v = table.get(key, _MISSING)
            if v is _MISSING:
                codes = dict(env)
                codes.update(zip(zvars, zs))
                v = table[key] = walk(term, codes)
            return v

        if self.exhaustive:
            pool = _BITS
        else:
            # the value of a z-free side joins the x-values, so that the pool
            # holds the solution of z = t(x) and its small divisions
            seeds = list(xassign.values())
            for side in itertools.chain.from_iterable(tables):
                if side[1] is _no_z:
                    v = down(value(side, ()), m)
                    if v not in seeds:
                        seeds.append(v)
            pool = _pool(self.a, seeds, m, self.cap)
        sols = []
        for zs in itertools.product(pool, repeat=self.phi.m):
            if all(value(lhs, zs) == value(rhs, zs) for lhs, rhs in tables):
                sols.append(zs)
                if len(sols) == 2:
                    break
        return sols if self.exhaustive else [tuple(down(z, m) for z in zs) for zs in sols]


def _structured_x(a, n: int) -> list[dict]:
    """Canonical x-assignments checked before random sampling."""
    basics = []
    if isinstance(a, (IntegerGroup, RationalGroup, LocalizedRationals)):
        basics = [Fraction(0), Fraction(1), Fraction(-1)]
    elif isinstance(a, PositiveCone):
        basics = [Fraction(0), Fraction(1)]
    elif isinstance(a, GammaPerfect):
        basics = [(0, Fraction(0)), (0, Fraction(1)), (1, Fraction(-1)), (1, Fraction(0))]
    elif isinstance(a, TwoMV):
        basics = _BITS
    return [{Var("x", i): v for i in range(1, n + 1)} for v in basics if _element_ok(a, v)]


def _sampled_x(a, n: int, seed: int):
    """Random x-assignments, drawn one at a time from one seeded stream."""
    rng = random.Random(seed)
    while True:
        yield {Var("x", i): _sample_one(a, rng, 12) for i in range(1, n + 1)}


def _distinct(assignments):
    """The assignments whose x-values did not occur before.  A check stops
    at its first failing assignment, so a repeat was already decided, and
    passed, at its first occurrence."""
    seen = set()
    for env in assignments:
        key = tuple(env.values())
        if key not in seen:
            seen.add(key)
            yield env


def check_sentence_sampled(
    a, phi: EFDSentence, budget: int = 500, seed: int = 0
) -> Verdict:
    """Search for existence or uniqueness violations of phi over sampled
    x-assignments.  Exact per-sample solving is used where the equations are
    group-linear in the z-block or the model is finite; otherwise a bounded
    structured candidate set is searched.  A pass is labelled sampled, and a
    refutation exact when the failing assignment was solved exactly.
    The structured assignments come first, then random ones, up to budget;
    each distinct assignment is solved once.
    """
    if species(a) is not phi.signature:
        raise ModelError(
            f"signature mismatch: {phi.signature.value} sentence on a "
            f"{species(a).value} model"
        )
    solver = _Solver(a, phi)
    assignments = itertools.chain(_structured_x(a, phi.n), _sampled_x(a, phi.n, seed))
    for count, env in enumerate(_distinct(itertools.islice(assignments, max(budget, 1))), 1):
        sols, exact = solver.solve(env)
        if len(sols) != 1:
            if sols:
                reason = "two distinct z-solutions"
            else:
                reason = "no z-solution" if exact else "no z-solution among candidates"
            return Verdict("falsified", exact, (dict(env), sols[:2]), f"sampled: {reason}")
    return Verdict("consistent-on-sample", False, None, f"sampled: {count} distinct x-assignments")


# ---------------------------------------------------------------------------
# CLI model descriptors


def parse_model(text: str) -> WitnessAlgebra:
    """Descriptors: z, q, qs:2,3, lex(z,qs:2), cone(q), gamma(q), two."""
    text = text.strip()
    if text == "z":
        return IntegerGroup()
    if text == "q":
        return RationalGroup()
    if text == "two":
        return TwoMV()
    if text.startswith("qs:"):
        try:
            primes = frozenset(int(p) for p in text[3:].split(",") if p)
        except ValueError:
            raise ModelError(f"bad prime list in {text!r}") from None
        return LocalizedRationals(primes)
    if text.startswith("lex(") and text.endswith(")"):
        left, right = _split_args(text[4:-1])
        return LexProduct(_group_model("lex", left), _group_model("lex", right))
    if text.startswith("cone(") and text.endswith(")"):
        return PositiveCone(_group_model("cone", text[5:-1]))
    if text.startswith("gamma(") and text.endswith(")"):
        inner = text[6:-1]
        if inner.startswith("qs:") or inner in ("z", "q"):
            return GammaPerfect(parse_model(inner))
        raise ModelError(f"gamma expects a scalar group descriptor, got {inner!r}")
    raise ModelError(f"unknown model descriptor {text!r}")


def _group_model(form: str, text: str) -> WitnessAlgebra:
    """The ordered group named inside cone(...) or lex(...): z, q, qs:...
    or lex(...)."""
    a = parse_model(text)
    if not isinstance(a, (IntegerGroup, RationalGroup, LocalizedRationals, LexProduct)):
        raise ModelError(f"{form} expects an ordered group descriptor, got {text.strip()!r}")
    return a


def _split_args(text: str) -> tuple[str, str]:
    """Split at the first depth-0 comma that is not inside a qs: prime list;
    a comma after a qs: prefix continues the list when a digit follows it."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            in_primes = text[:i].strip().startswith("qs:")
            if not (in_primes and text[i + 1 :].lstrip()[:1].isdigit()):
                return text[:i], text[i + 1 :]
    raise ModelError(f"expected two comma-separated descriptors in {text!r}")


def model_name(a: WitnessAlgebra) -> str:
    if isinstance(a, IntegerGroup):
        return "z"
    if isinstance(a, RationalGroup):
        return "q"
    if isinstance(a, LocalizedRationals):
        return "qs:" + ",".join(str(p) for p in sorted(a.primes))
    if isinstance(a, LexProduct):
        return f"lex({model_name(a.left)},{model_name(a.right)})"
    if isinstance(a, PositiveCone):
        return f"cone({model_name(a.inner)})"
    if isinstance(a, GammaPerfect):
        return f"gamma({model_name(a.inner)})"
    return "two"


def parse_element(a: WitnessAlgebra, text: str):
    """Element literals: 3, -5/2, (0, 1/2), (1, -3/4)."""
    text = text.strip()
    if isinstance(a, (GammaPerfect, LexProduct)):
        parts = _pair_halves(text)
        if isinstance(a, GammaPerfect):
            e = (int(parts[0]), _parse_rational(parts[1]))
        else:
            e = (parse_element(a.left, parts[0]), parse_element(a.right, parts[1]))
        check_element(a, e)
        return e
    if isinstance(a, TwoMV):
        e = int(text)
    else:
        e = _parse_rational(text)
    check_element(a, e)
    return e


def _pair_halves(text: str) -> tuple[str, str]:
    """The two halves of a pair literal (u, v), split at its one comma
    outside nested parentheses, so that u and v may be pairs themselves."""
    if text.startswith("(") and text.endswith(")"):
        inner, depth, commas = text[1:-1], 0, []
        for i, ch in enumerate(inner):
            depth += (ch == "(") - (ch == ")")
            if ch == "," and depth == 0:
                commas.append(i)
        if len(commas) == 1:
            (i,) = commas
            return inner[:i], inner[i + 1 :]
    raise ModelError(f"pair literal expected, got {text!r}")


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ModelError(f"zero denominator in {text.strip()!r}") from None


def format_element(e) -> str:
    if isinstance(e, tuple):
        return "(" + ", ".join(format_element(v) for v in e) + ")"
    return str(e)


def format_assignment(env: dict) -> dict:
    """Variable name -> formatted element, x-variables first, by index."""
    return {
        f"{v.kind}{v.index}": format_element(e)
        for v, e in sorted(env.items(), key=lambda kv: (kv[0].kind, kv[0].index))
    }
