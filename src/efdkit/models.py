"""Computable witness algebras with exact term evaluation and exact or
sampled sentence checking.

Every witness algebra is read off one totally ordered Abelian group G, a
lex product of the scalar groups Z, Q and Q_S: an l-group with zero, +, -,
k-fold multiple, \\/ and /\\:

- a group model is G itself: numbers, or (nested) lex pairs of numbers;
- cone(G) is the positive cone of G, a cancellative hoop with
  u -. v = (u - v) \\/ 0;
- an MV model is Gamma(G, u), the interval [0, u] with x + y cut at u and
  ~x = u - x (Mundici).  TwoMV is Gamma(Z, 1) on the bits 0 and 1, and the
  perfect algebra GammaPerfect(A) is Gamma(Z lex A, (1, 0)) (Di Nola and
  Lettieri): pairs (i, q) with i in {0, 1}, q >= 0 when i = 0 (the radical)
  and q <= 0 when i = 1.

So an element is a flat tuple of scalar coordinates, led by a bit in an MV
model, and _layout is the one reading of them off an algebra: it scales an
element to its integer code (every rational coordinate times a scale M that
clears its denominators: an int for one coordinate, else a flat tuple),
runs codes in an integer l-group, draws random elements as codes and tests
codes for membership.  The node operations of each signature are written
once, over any such l-group (_operations), and terms compile to closures
over codes (_evaluator).  The sampled checker fixes M when it starts, draws
every x-assignment as codes at M, runs each equation side it compiles on
them and decodes only a witness.  With one z, outside two, it solves each
assignment exactly through efdkit.onez, which folds the sides with z into
piecewise-linear functions of z1 with the same table; with more z it
searches a candidate pool.
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
        # built in ascending order, so that equal sets iterate alike: the
        # sampler draws one power per prime in this order
        _set(self, "primes", frozenset(sorted(primes)))


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
        if e < _zero(a.inner):
            raise ModelError(f"{format_element(e)} is negative")
    elif isinstance(a, GammaPerfect):
        if not (isinstance(e, tuple) and len(e) == 2 and e[0] in (0, 1)):
            raise ModelError(f"{format_element(e)} is not a Gamma pair")
        check_element(a.inner, e[1])
        zero = _zero(a.inner)
        if e[0] == 0 and e[1] < zero:
            raise ModelError(f"{format_element(e)} has a negative part on the radical side")
        if e[0] == 1 and e[1] > zero:
            raise ModelError(f"{format_element(e)} has a positive part on the co-radical side")
    elif isinstance(a, TwoMV):
        if e not in _BITS:
            raise ModelError(f"{format_element(e)} is not a bit")
    else:
        raise ModelError(f"not a witness algebra: {a!r}")


def _zero(a):
    """The zero of the group model a, as an element of int coordinates."""
    return _layout(a).shape(itertools.repeat(0))


# ---------------------------------------------------------------------------
# Coordinates: every element is a flat tuple of scalar coordinates


class _Group:
    """A totally ordered Abelian group of integer codes: zero, u + v, u - v,
    -u, k u, u \\/ v and u /\\ v, and div(u, k), u / k for a k that divides
    every coordinate.  Python's order on ints and on flat tuples of them is
    the lex order, so join and meet are max and min."""

    __slots__ = ("zero", "add", "sub", "neg", "scale", "div")
    join, meet = max, min

    def __init__(self, zero, *ops: Callable):
        self.zero, (self.add, self.sub, self.neg, self.scale, self.div) = zero, ops


def _codes(n: int) -> _Group:
    """The group of codes with n coordinates: ints for one, pairs unrolled,
    and map over longer tuples."""
    if n == 1:
        return _Group(0, operator.add, operator.sub, operator.neg, operator.mul, operator.floordiv)
    if n == 2:
        return _Group(
            (0, 0),
            lambda u, v: (u[0] + v[0], u[1] + v[1]),
            lambda u, v: (u[0] - v[0], u[1] - v[1]),
            lambda u: (-u[0], -u[1]),
            lambda k, u: (k * u[0], k * u[1]),
            lambda u, k: (u[0] // k, u[1] // k),
        )
    return _Group(
        (0,) * n,
        lambda u, v: tuple(map(operator.add, u, v)),
        lambda u, v: tuple(map(operator.sub, u, v)),
        lambda u: tuple(map(operator.neg, u)),
        lambda k, u: tuple([k * x for x in u]),
        lambda u, k: tuple([x // k for x in u]),
    )


# (den, up, down) of one coordinate.  den(e) is the denominator of a rational
# coordinate; up(e, D) multiplies it by D (a multiple of den(e)), down(w, D)
# divides it by D again.  x -> D x maps (1/D)Z onto Z preserving +, -, k x
# and <, so it commutes with every node operation, cut at the unit included.
# The bit of a Gamma pair and of TwoMV is an integer already: it is unscaled.
_SCALED = (
    operator.attrgetter("denominator"),
    lambda e, d: e.numerator * (d // e.denominator),
    Fraction,
)
_UNSCALED = (lambda e: 1, lambda e, d: e, lambda w, d: w)


class _Layout:
    """The coordinates of the elements of one witness algebra: a flat tuple
    with one coordinate per leaf (group, scaled), group the scalar group Z,
    Q or Q_S it lies in, and scaled False only for the bit that leads a
    Gamma pair and the bit of TwoMV.  flat(e) is the tuple of an element's
    coordinates, and shape(it) the element, nested pairs, of an iterator.

    A code is an element with every scaled coordinate times a scale M: an
    int for one coordinate, otherwise a flat tuple of ints, in the integer
    l-group group.  den(e) is the lcm of the denominators of e, up(e, M)
    its code and down(w, M) the element of a code.  unit is the code of the
    unit of an MV model, and cone is True when every element is >= 0."""

    __slots__ = (
        "leaves", "shape", "flat", "unit", "cone", "group", "coords", "den", "up", "down", "_draws"
    )

    def __init__(self, leaves: list, shape: Callable, flat: Callable, unit=None, cone=False):
        self.leaves, self.shape, self.flat, self.unit, self.cone = leaves, shape, flat, unit, cone
        self.group = _codes(len(leaves))
        self.coords = _single if len(leaves) == 1 else _same
        self._draws = [_scalar_draw(group) for group, scaled in leaves if scaled]
        codecs = [_SCALED if scaled else _UNSCALED for _, scaled in leaves]
        if len(codecs) == 1:
            self.den, self.up, self.down = codecs[0]
        elif len(codecs) == 2:  # every Gamma model and lex(A, B) of scalars, unrolled
            (lden, lup, ldown), (rden, rup, rdown) = codecs
            self.den = lambda e: math.lcm(lden(e[0]), rden(e[1]))
            self.up = lambda e, d: (lup(e[0], d), rup(e[1], d))
            self.down = lambda w, d: (ldown(w[0], d), rdown(w[1], d))
        else:
            dens, ups, downs = zip(*codecs)
            self.den = lambda e: math.lcm(*[f(x) for f, x in zip(dens, flat(e))])
            self.up = lambda e, d: tuple([f(x, d) for f, x in zip(ups, flat(e))])
            self.down = lambda w, d: shape(iter([f(x, d) for f, x in zip(downs, w)]))

    def sample_den(self, cap: int) -> int:
        """The lcm of every denominator that draw can give with that cap."""
        return math.lcm(*[
            math.lcm(*range(1, cap + 1)) if isinstance(group, RationalGroup)
            else math.prod(p * p for p in getattr(group, "primes", ()))
            for group, scaled in self.leaves if scaled
        ])

    def draw(self, rng: random.Random, cap: int, m: int):
        """A random element as its code at m, a multiple of sample_den(cap):
        per scaled coordinate a numerator in [-cap, cap] over a denominator
        up to cap (Q), p^j, j <= 2, per p in S (Q_S) or 1 (Z); in a cone the
        larger of v and -v, and in Gamma that one, |v|, as (0, |v|) or
        (1, -|v|) with equal odds; in two a bit."""
        if not self._draws:  # two
            return rng.randint(0, 1)
        v = [f(rng, cap, m) for f in self._draws]
        if self.cone:
            v = max(v, [-x for x in v])  # lists compare in the lex order too
            if self.unit is not None:
                v = [0, *v] if rng.random() < 0.5 else [1, *[-x for x in v]]
        return v[0] if len(v) == 1 else tuple(v)

    def member(self, w, n: int, m: int) -> bool:
        """Whether w / n is the code of an element at scale m: each scaled
        coordinate x / (n m), and each unscaled x / n, lies in its scalar
        group (iff the part of the divisor prime to S divides x), and it is
        >= 0 in a cone and <= unit in an MV model."""
        g = self.group
        if (self.cone and w < g.zero) or (self.unit is not None and g.scale(n, self.unit) < w):
            return False
        for x, (group, scaled) in zip(self.coords(w), self.leaves):
            if x % _prime_part(group, n * m if scaled else n):
                return False
        return True


def _scalar_draw(a) -> Callable:
    """The draw of one coordinate in the scalar group a (_Layout.draw)."""
    if isinstance(a, RationalGroup):

        def draw(rng, cap, m):
            n = rng.randint(-cap, cap)
            return n * (m // rng.randint(1, cap))

        return draw
    primes = getattr(a, "primes", ())  # none for Z

    def draw(rng, cap, m):
        den = 1
        for p in primes:
            den *= p ** rng.randint(0, 2)
        return rng.randint(-cap, cap) * (m // den)

    return draw


def _bit(it) -> int:
    return int(next(it))


def _single(e) -> tuple:
    return (e,)


def _same(e):
    return e


_BIT = (IntegerGroup(), False)  # the unscaled leaf


@functools.lru_cache(maxsize=64)
def _layout(a: WitnessAlgebra) -> _Layout:
    """The coordinate layout of a: the only reading of an element's shape
    off the algebra."""
    if isinstance(a, (IntegerGroup, RationalGroup, LocalizedRationals)):
        return _Layout([(a, True)], next, _single)
    if isinstance(a, LexProduct):
        left, right = _layout(a.left), _layout(a.right)
        lflat, rflat, lshape, rshape = left.flat, right.flat, left.shape, right.shape
        return _Layout(
            left.leaves + right.leaves,
            lambda it: (lshape(it), rshape(it)),
            lambda e: lflat(e[0]) + rflat(e[1]),
        )
    if isinstance(a, PositiveCone):
        inner = _layout(a.inner)
        return _Layout(inner.leaves, inner.shape, inner.flat, cone=True)
    if isinstance(a, GammaPerfect):
        inner = _layout(a.inner)
        ishape, iflat = inner.shape, inner.flat
        return _Layout(
            [_BIT] + inner.leaves,
            lambda it: (_bit(it), ishape(it)),
            lambda e: (e[0],) + iflat(e[1]),
            unit=(1,) + (0,) * len(inner.leaves),
            cone=True,
        )
    if isinstance(a, TwoMV):
        return _Layout([_BIT], _bit, _single, unit=1, cone=True)
    raise ModelError(f"not a witness algebra: {a!r}")


def sample_elements(a: WitnessAlgebra, count: int, seed: int, cap: int = 12) -> list:
    layout = _layout(a)
    rng, m = random.Random(seed), layout.sample_den(cap)
    return [layout.down(layout.draw(rng, cap, m), m) for _ in range(count)]


# ---------------------------------------------------------------------------
# Term evaluation


def eval_term(a: WitnessAlgebra, t: Term, assignment: dict) -> object:
    """Exact evaluation of t in a under a total assignment keyed by Var.

    t is compiled and run on integers: the assigned values are scaled by
    the lcm D of the denominators of their rational coordinates, and the
    value is divided by D again."""
    compile_, layout = _evaluator(a)
    up, d = layout.up, math.lcm(*map(layout.den, assignment.values()))
    slots = {(v.kind, v.index): i for i, v in enumerate(assignment)}
    return layout.down(compile_(t, slots)[0]([up(e, d) for e in assignment.values()]), d)


@functools.lru_cache(maxsize=64)
def _evaluator(a: WitnessAlgebra):
    """(compile, layout): the term compiler of a over its codes, built once
    per algebra value from _operations at the integer group of the codes
    and the code of the unit, and the layout of its elements."""
    layout = _layout(a)
    g = layout.group
    return _compiler(g.zero, *_operations(a, g, layout.unit)), layout


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
    """Whether a is k-divisible: iff 1/k lies in the scalar group of every
    scaled coordinate (Q always, Z only for k = 1, Q_S iff k is a product of
    primes of S), so lex(A, B) iff A and B are, cone(G) and Gamma(Z lex G)
    iff G is."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if isinstance(a, TwoMV):
        raise ModelError(f"no exact delta_k decision for {a!r}")
    for group, scaled in _layout(a).leaves:
        if scaled and _prime_part(group, k) != 1:
            return False
    return True


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
    layout = _layout(a)
    m = math.lcm(*map(layout.den, xvals)) * math.lcm(*range(1, cap + 1))
    return [layout.down(w, m) for w in _pool(a, [layout.up(v, m) for v in xvals], m, cap)]


def _pool(a, codes: list, m: int, cap: int) -> list:
    """The candidate pool of values with these codes at scale m, a multiple
    of D lcm(1..cap) for their common denominator D: zero and each v / d
    (d <= cap), the code divided by d, with its negative, or in a cone its
    absolute value, that lie in a; sorted, without repeats.  In Gamma each
    (i, q) gives (0, |q| / d), paired with its negation (1, -|q| / d)."""
    layout = _layout(a)
    g, unit = layout.group, layout.unit
    scaled = {g.zero}
    for w in codes:
        if unit is not None:
            w = g.meet(w, g.sub(unit, w))  # (0, |q|) of (i, q)
        elif layout.cone:
            w = g.join(w, g.neg(w))
        for d in range(1, cap + 1):
            v = g.div(w, d)
            scaled.add(v)
            if not layout.cone:
                scaled.add(g.neg(v))
    pool = [w for w in sorted(scaled) if layout.member(w, 1, m)]
    if unit is not None:
        return [e for p in pool for e in (p, g.sub(unit, p))]
    return pool


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
    denominator _Layout.draw gives with that cap, so every sample and its
    pool (v / d, d <= cap) are codes at M.  solve_codes takes x-codes at M;
    solve scales x-values up, and other x-values of denominator D raise M
    to lcm(M, D lcm(1..cap)) first.  The memo stays, since a compiled or
    folded side maps codes to codes without reading M (x -> M x commutes
    with every node operation).  Only the reported solutions are decoded;
    the bits of TwoMV are their own codes."""

    def __init__(self, a, phi: EFDSentence, cap: int = 12):
        self.a, self.phi, self.cap = a, phi, cap
        self.exhaustive = isinstance(a, TwoMV)
        names = [("x", i) for i in range(1, phi.n + 1)] + [("z", j) for j in range(1, phi.m + 1)]
        self.xvars = tuple(Var(*name) for name in names[: phi.n])
        slots = {name: i for i, name in enumerate(names)}
        compile_, self.layout = _evaluator(a)
        self.folds = phi.m == 1 and not self.exhaustive  # one z: onez.OneZ solves

        def side(t: Term, free: frozenset) -> _Side:
            # OneZ folds a side with z, so its closure would never run
            folded = self.folds and any(v.kind == "z" for v in free)
            return _Side(None if folded else compile_(t, slots)[0], free)

        self.sides = [tuple(map(side, eq, free)) for eq, free in zip(phi.equations, phi.side_vars)]
        self.lcm_cap = math.lcm(*range(1, cap + 1))
        self.scale = self.lcm_cap * self.layout.sample_den(cap)
        self.onez = None

    def solve(self, xassign: dict):
        up, d = self.layout.up, math.lcm(*map(self.layout.den, xassign.values()))
        m = self.scale = math.lcm(self.scale, d * self.lcm_cap)  # grows only for new denominators
        return self.solve_codes(tuple([up(_lookup(v, xassign), m) for v in self.xvars]))

    def solve_codes(self, xcodes: tuple):
        """solve at the x-assignment with these codes at the scale M."""
        m = self.scale
        if self.folds:
            if self.onez is None:
                from .onez import OneZ  # compiled at the first one-z solve, not by import efdkit

                self.onez = OneZ(self.a, self.phi.equations, self.sides)
            return [(z,) for z in self.onez.solve(xcodes, m)], True
        sols = self._search(xcodes, m)
        return sols, self.exhaustive or len(sols) == 2

    def _search(self, xcodes: tuple, m: int) -> list:
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
            seeds = list(xcodes)
            for side in itertools.chain.from_iterable(tables):
                if side[1] is _no_z:
                    seeds.append(value(side, ()))
            pool = _pool(self.a, seeds, m, self.cap)
        sols = []
        for zs in itertools.product(pool, repeat=self.phi.m):
            if all(value(lhs, zs) == value(rhs, zs) for lhs, rhs in tables):
                sols.append(zs)
                if len(sols) == 2:
                    break
        down = self.layout.down
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


def _sampled_x(layout: _Layout, n: int, seed: int, m: int):
    """Random x-assignments as codes at scale m, drawn one at a time from
    one seeded stream."""
    rng = random.Random(seed)
    while True:
        yield tuple([layout.draw(rng, 12, m) for _ in range(n)])


def _distinct(assignments):
    """The assignments that did not occur before.  A check stops at its
    first failing assignment, so a repeat was already decided, and passed,
    at its first occurrence."""
    seen = set()
    for xcodes in assignments:
        if xcodes not in seen:
            seen.add(xcodes)
            yield xcodes


def check_sentence_sampled(
    a, phi: EFDSentence, budget: int = 500, seed: int = 0
) -> Verdict:
    """Search for existence or uniqueness violations of phi over sampled
    x-assignments.  Each assignment is solved exactly with one z (outside
    two) and on two, and by a bounded candidate search otherwise.  A pass
    is labelled sampled, and a refutation exact; a candidate search that
    finds no solution is inconclusive.  The structured assignments come
    first, then random ones, up to budget; each distinct assignment is
    solved once, as codes at the solver's scale, and only a witness is
    decoded.
    """
    if species(a) is not phi.signature:
        raise ModelError(
            f"signature mismatch: {phi.signature.value} sentence on a "
            f"{species(a).value} model"
        )
    solver = _Solver(a, phi)
    layout, m, xvars = solver.layout, solver.scale, solver.xvars
    structured = [tuple([layout.up(env[v], m) for v in xvars]) for env in _structured_x(a, phi.n)]
    assignments = itertools.chain(structured, _sampled_x(layout, phi.n, seed, m))
    for count, xcodes in enumerate(_distinct(itertools.islice(assignments, max(budget, 1))), 1):
        sols, exact = solver.solve_codes(xcodes)
        if len(sols) != 1:
            env = {v: layout.down(w, m) for v, w in zip(xvars, xcodes)}
            if not exact:
                reason = "no z-solution among candidates"
                return Verdict("inconclusive", False, (env, []), f"sampled: {reason}")
            reason = "two distinct z-solutions" if sols else "no z-solution"
            return Verdict("falsified", True, (env, sols[:2]), f"sampled: {reason}")
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
