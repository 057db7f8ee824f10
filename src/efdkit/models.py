"""Computable witness algebras with exact term evaluation and exact or
sampled sentence checking.

Every witness algebra is read off one totally ordered Abelian group G, an
l-group with zero, +, -, k-fold multiple, \\/ and /\\:

- a group model is G itself: numbers, or (nested) lex pairs of numbers;
- cone(G) is the positive cone of G, a cancellative hoop with
  u -. v = (u - v) \\/ 0;
- an MV model is Gamma(G, u), the interval [0, u] with x + y cut at u and
  ~x = u - x (Mundici).  TwoMV is Gamma(Z, 1) on the bits 0 and 1, and the
  perfect algebra GammaPerfect(A) is Gamma(Z lex A, (1, 0)) (Di Nola and
  Lettieri): pairs (i, q) with i in {0, 1}, q >= 0 when i = 0 (the radical)
  and q <= 0 when i = 1.

The node operations of each signature are written once, over any such
l-group (_operations).  Terms are compiled to closures over integer codes,
the rational coordinates of elements times a scale M that clears their
denominators (_codec), from that table at the integer-code group
(_evaluator).  eval_term scales by the common denominator of one
assignment and divides the value by it again; the sampled checker compiles
each equation side it runs once, and fixes M when it starts at a multiple
of every denominator its samples and pools can hold.  With one z, outside
two, it solves each sampled assignment exactly through efdkit.onez, which
folds the sides with z into piecewise-linear functions of z1, an l-group
pointwise, with the same table; with more z it searches a candidate pool.
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
from .record import Record, _set
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


class _Atom(Record):
    __slots__ = ()  # a witness algebra without parameters
    __init__ = object.__init__  # no fields to set


class IntegerGroup(_Atom):
    __slots__ = ()


class RationalGroup(_Atom):
    __slots__ = ()


class LocalizedRationals(Record):
    __slots__ = ("primes",)
    primes: frozenset[int]

    def __init__(self, primes: frozenset[int]):
        for p in primes:
            if not is_prime(p):
                raise ModelError(f"{p} is not prime")
        _set(self, "primes", primes)


class LexProduct(Record):
    __slots__ = ("left", "right")
    left: "WitnessAlgebra"
    right: "WitnessAlgebra"

    def __init__(self, left: "WitnessAlgebra", right: "WitnessAlgebra"):
        _set(self, "left", left)
        _set(self, "right", right)


class _Over(Record):
    __slots__ = ("inner",)  # a witness algebra read off one inner group
    inner: "WitnessAlgebra"

    def __init__(self, inner: "WitnessAlgebra"):
        _set(self, "inner", inner)


class PositiveCone(_Over):
    __slots__ = ()


class GammaPerfect(_Over):
    """Gamma of (Z lex inner) with unit (1, 0)."""

    __slots__ = ()


class TwoMV(_Atom):
    __slots__ = ()


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
        if e < _group(a.inner).zero:
            raise ModelError(f"{format_element(e)} is negative")
    elif isinstance(a, GammaPerfect):
        if not (isinstance(e, tuple) and len(e) == 2 and e[0] in (0, 1)):
            raise ModelError(f"{format_element(e)} is not a Gamma pair")
        check_element(a.inner, e[1])
        zero = _group(a.inner).zero
        if e[0] == 0 and e[1] < zero:
            raise ModelError(f"{format_element(e)} has a negative part on the radical side")
        if e[0] == 1 and e[1] > zero:
            raise ModelError(f"{format_element(e)} has a positive part on the co-radical side")
    elif isinstance(a, TwoMV):
        if e not in _BITS:
            raise ModelError(f"{format_element(e)} is not a bit")
    else:
        raise ModelError(f"not a witness algebra: {a!r}")


# ---------------------------------------------------------------------------
# Ordered-group arithmetic: every witness algebra is read off one of these


class _Group:
    """A totally ordered Abelian group: zero, u + v, u - v, -u, k u, and
    u \\/ v and u /\\ v.  Python's order on numbers and on nested tuples of
    them is the lex order, so join and meet are max and min.  Equal only to
    itself, as _RATIONAL and _INTEGER have equal fields."""

    __slots__ = ("zero", "add", "sub", "neg", "scale")
    join, meet = max, min

    def __init__(self, zero, add: Callable, sub: Callable, neg: Callable, scale: Callable):
        self.zero, self.add, self.sub, self.neg, self.scale = zero, add, sub, neg, scale


_RATIONAL = _Group(Fraction(0), operator.add, operator.sub, operator.neg, operator.mul)
_INTEGER = _Group(0, operator.add, operator.sub, operator.neg, operator.mul)


def _lex(left: _Group, right: _Group) -> _Group:
    """left x_lex right, ordered by the left coordinate first."""
    zero = (left.zero, right.zero)
    if left in (_RATIONAL, _INTEGER) and right in (_RATIONAL, _INTEGER):
        return _Group(
            zero,
            lambda u, v: (u[0] + v[0], u[1] + v[1]),
            lambda u, v: (u[0] - v[0], u[1] - v[1]),
            lambda u: (-u[0], -u[1]),
            lambda k, u: (k * u[0], k * u[1]),
        )
    ladd, radd, lsub, rsub = left.add, right.add, left.sub, right.sub
    lneg, rneg, lscale, rscale = left.neg, right.neg, left.scale, right.scale
    return _Group(
        zero,
        lambda u, v: (ladd(u[0], v[0]), radd(u[1], v[1])),
        lambda u, v: (lsub(u[0], v[0]), rsub(u[1], v[1])),
        lambda u: (lneg(u[0]), rneg(u[1])),
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

    t is compiled and run on integers: the assigned values are scaled by
    the lcm D of the denominators of their rational coordinates, and the
    value is divided by D again."""
    compile_, (den, up, down) = _evaluator(a)
    d = math.lcm(*map(den, assignment.values()))
    slots = {(v.kind, v.index): i for i, v in enumerate(assignment)}
    return down(compile_(t, slots)[0]([up(e, d) for e in assignment.values()]), d)


@functools.lru_cache(maxsize=64)
def _evaluator(a: WitnessAlgebra):
    """The term compiler of a over integer coordinates, with the scaling of
    its elements, built once per algebra value: _operations over the group
    G of a scaled to integers.  A group model is G, cone(G) is the positive
    cone of G, TwoMV is Gamma(Z, 1) and GammaPerfect is Gamma(Z lex inner,
    (1, 0))."""
    unit = None
    if isinstance(a, TwoMV):
        g, unit = _INTEGER, 1
    elif isinstance(a, GammaPerfect):
        g = _lex(_INTEGER, _group(a.inner, _INTEGER))
        unit = (1, g.zero[1])
    else:
        g = _group(a.inner if isinstance(a, PositiveCone) else a, _INTEGER)
    return _compiler(g.zero, *_operations(a, g, unit)), _codec(a)


def _operations(a: WitnessAlgebra, g, unit) -> tuple:
    """(label, ops): the node operations of a's signature over an l-group g
    (zero, add, sub, neg, scale, join, meet), keyed by node type: (left,
    right) for the binary nodes, arg for Neg and MVNeg, (k, arg) for Scalar
    and Power.  A group model is g; a cone is its positive cone, with
    u -. v = (u - v) \\/ 0; an MV model is Gamma(g, unit), with x + y and k x
    cut at unit, ~x = unit - x and x^k = ~(k ~x)."""
    join, meet, add, sub, scale, zero = g.join, g.meet, g.add, g.sub, g.scale, g.zero
    ops = {Plus: add, Join: join, Meet: meet}
    if isinstance(a, _GROUPS):
        return "a group model", {**ops, Neg: g.neg, Scalar: scale}
    ops[Diff] = lambda u, v: join(sub(u, v), zero)
    if isinstance(a, PositiveCone):
        ops[Scalar] = _nonnegative(scale, "negative scalar in a hoop term")
        return "a hoop model", ops
    mvneg = functools.partial(sub, unit)
    times = _nonnegative(lambda k, u: meet(scale(k, u), unit), "negative scalar in an MV term")
    ops.update({
        Plus: lambda u, v: meet(add(u, v), unit),
        MVNeg: mvneg,
        Scalar: times,
        Power: lambda k, u: mvneg(times(k, mvneg(u))),
    })
    return ("TwoMV" if isinstance(a, TwoMV) else "a Gamma model"), ops


def _nonnegative(scale: Callable, message: str) -> Callable:
    def checked(k, u):
        if k < 0:
            raise ModelError(message)
        return scale(k, u)

    return checked


def _compiler(zero, label: str, ops: dict) -> Callable:
    """compile(t, slots): t as one closure per node over codes, v read at
    codes[slots[v.kind, v.index]], and the slots read.  ops are the node
    operations of _operations, and zero the value of Zero.  A node outside
    ops, a variable without a slot and a negative k raise when evaluation
    reaches them, left first, as a recursive walk."""

    def compile_(t: Term, slots: dict) -> tuple:
        done, reads = {}, set()  # done: id -> closure of a binary node

        def node(t):
            kind = type(t)
            f = ops.get(kind)
            if f is None:
                if kind is Var:
                    i = slots.get((t.kind, t.index))
                    if i is None:
                        return functools.partial(_fail, f"assignment missing {t.kind}{t.index}")
                    reads.add(i)
                    return operator.itemgetter(i)
                if kind is Zero:
                    return lambda codes: zero
                return functools.partial(_fail, f"{kind.__name__} not evaluable in {label}")
            # the closures bind f and the children as defaults: node() makes no cells
            if kind is Scalar or kind is Power:
                return lambda codes, f=f, k=t.k, arg=node(t.arg): f(k, arg(codes))
            if kind is Neg or kind is MVNeg:
                return lambda codes, f=f, arg=node(t.arg): f(arg(codes))
            fn = done.get(id(t))  # each binary node object compiles once, as in terms.fold
            if fn is None:
                left, right = node(t.left), node(t.right)
                fn = done[id(t)] = lambda codes, f=f, u=left, v=right: f(u(codes), v(codes))
            return fn

        return node(t), reads

    return compile_


def _fail(message: str, codes):
    raise ModelError(message)


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


def _sample_den(a, cap: int) -> int:
    """The lcm of every denominator that _sample_one(a, _, cap) can draw."""
    if isinstance(a, LexProduct):
        return math.lcm(_sample_den(a.left, cap), _sample_den(a.right, cap))
    if isinstance(a, (PositiveCone, GammaPerfect)):
        return _sample_den(a.inner, cap)
    if isinstance(a, RationalGroup):
        return math.lcm(*range(1, cap + 1))
    return math.prod(p * p for p in getattr(a, "primes", ()))  # Q_S, Z and TwoMV


# ---------------------------------------------------------------------------
# Sentence checking


class Verdict(Record):
    status: str  # "holds", "consistent-on-sample", "falsified" or "inconclusive"
    exact: bool  # False for a sampled pass and for an inconclusive candidate search
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
    a scalar group iff _prime_part(a, m) divides w, and a lex pair lies in a
    lex product coordinate by coordinate."""
    if isinstance(a, LexProduct):
        left, right = _in_group(a.left, m), _in_group(a.right, m)
        return lambda w: left(w[0]) and right(w[1])
    k = _prime_part(a, m)
    return lambda w: w % k == 0


def _prime_part(a, k: int) -> int:
    """The part of k prime to S for Q_S (Z: all of k, Q: 1): w / k lies in
    the scalar group a iff it divides w."""
    if isinstance(a, RationalGroup):
        return 1
    for p in getattr(a, "primes", ()):
        while k % p == 0:
            k //= p
    return k


def _element_ok(a, e) -> bool:
    try:
        check_element(a, e)
    except ModelError:
        return False
    return True


def solutions_for_assignment(a, phi: EFDSentence, xassign: dict):
    """Solutions z-bar of phi's equations at a fixed x-assignment, at most
    two: a second one already refutes uniqueness.

    Returns (solutions, exact): exact is True when no solution is missing
    (one z outside two, the exhaustive two, or two solutions found), False
    for a candidate search that found fewer than two.
    """
    return _Solver(a, phi).solve(xassign)


_MISSING = object()


def _no_z(codes) -> tuple:
    """The key of a side without z-variables."""
    return ()


class _Side:
    """One equation side and its memo, keyed by the codes of the x-values
    of its free variables: per z-key the code of the side's value in a
    candidate search, and with one z its value (no z) or its pieces.  fn is
    the compiled side, None for a side that onez folds instead."""

    __slots__ = ("fn", "xkey", "zkey", "hasz", "memo")

    def __init__(self, fn, free: frozenset):
        xpos = sorted(v.index - 1 for v in free if v.kind == "x")
        zpos = sorted(v.index - 1 for v in free if v.kind == "z")
        self.fn = fn
        self.xkey = operator.itemgetter(*xpos) if xpos else _no_z
        self.zkey = operator.itemgetter(*zpos) if zpos else _no_z
        self.hasz = bool(zpos)
        self.memo = {}


class _Solver:
    """solutions_for_assignment for one sentence in one algebra, one
    x-assignment after another.  A check builds one and drops it when it
    returns, so the memo of each equation side lives for that check only.

    With one z, outside two, onez.OneZ solves each assignment exactly: an
    x-free side such as t_k(z1) is folded into pieces once per check, and a
    z-free side is a constant.  With more, a bounded candidate search runs
    each side once per distinct tuple of values of its own free variables
    (x1 once per assignment); the value of a z-free side seeds the pool.
    Two is searched exhaustively.

    Both run on codes at one scale M, fixed here: lcm(1..cap) times every
    denominator _sample_one draws with that cap, so every sample and its
    pool (v / d, d <= cap) are codes at M.  Other x-values of denominator D
    raise M to lcm(M, D lcm(1..cap)); the memo stays, since a compiled or
    folded side maps codes to codes without reading M (x -> M x commutes
    with every node operation).  Codes are decoded only for the z-free seeds
    and the reported solutions; the bits of TwoMV are their own codes."""

    def __init__(self, a, phi: EFDSentence, cap: int = 12):
        self.a, self.phi, self.cap = a, phi, cap
        self.exhaustive = isinstance(a, TwoMV)
        names = [("x", i) for i in range(1, phi.n + 1)] + [("z", j) for j in range(1, phi.m + 1)]
        self.xvars = tuple(Var(*name) for name in names[: phi.n])
        slots = {name: i for i, name in enumerate(names)}
        compile_, (self.den, self.up, self.down) = _evaluator(a)
        self.folds = phi.m == 1 and not self.exhaustive  # one z: onez.OneZ solves

        def side(t: Term, free: frozenset) -> _Side:
            # OneZ folds a side with z, so its closure would never run
            folded = self.folds and any(v.kind == "z" for v in free)
            return _Side(None if folded else compile_(t, slots)[0], free)

        self.sides = [tuple(map(side, eq, free)) for eq, free in zip(phi.equations, phi.side_vars)]
        self.lcm_cap = math.lcm(*range(1, cap + 1))
        self.scale = self.lcm_cap * _sample_den(a, cap)
        self.onez = None

    def solve(self, xassign: dict):
        d = math.lcm(*map(self.den, xassign.values()))
        m = self.scale = math.lcm(self.scale, d * self.lcm_cap)  # grows only for new denominators
        xcodes = tuple(self.up(_lookup(v, xassign), m) for v in self.xvars)
        if self.folds:
            if self.onez is None:
                from .onez import OneZ  # compiled at the first one-z solve, not by import efdkit

                self.onez = OneZ(self.a, self.phi.equations, self.sides)
            return [(z,) for z in self.onez.solve(xcodes, m)], True
        sols = self._search(xassign, xcodes, m)
        return sols, self.exhaustive or len(sols) == 2

    def _search(self, xassign: dict, xcodes: tuple, m: int) -> list:
        down = self.down
        # per side: (compiled side, z-key, the memo table of this assignment's x-codes)
        tables = [
            tuple((s.fn, s.zkey, s.memo.setdefault(s.xkey(xcodes), {})) for s in eq)
            for eq in self.sides
        ]

        def value(side, zs):
            fn, zkey, table = side
            key = zkey(zs)
            v = table.get(key, _MISSING)
            if v is _MISSING:
                v = table[key] = fn(xcodes + zs)
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
        return [tuple(down(z, m) for z in zs) for zs in sols]


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
    x-assignments.  Each assignment is solved exactly with one z (outside
    two) and on two, and by a bounded candidate search otherwise.  A pass
    is labelled sampled, and a refutation exact; a candidate search that
    finds no solution is inconclusive.  The structured assignments come
    first, then random ones, up to budget; each distinct assignment is
    solved once.
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
            if not exact:
                reason = "no z-solution among candidates"
                return Verdict("inconclusive", False, (dict(env), []), f"sampled: {reason}")
            reason = "two distinct z-solutions" if sols else "no z-solution"
            return Verdict("falsified", True, (dict(env), sols[:2]), f"sampled: {reason}")
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
