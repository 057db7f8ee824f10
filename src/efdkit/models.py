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
once, over any such l-group (_operations), and one compiler (_compiler)
makes closures of a term over any of them: over codes (_evaluator).  The
sampled checker fixes M when it starts, draws every x-assignment as codes
at M, runs each equation side it compiles on them and solves on codes: it
decodes only the solutions of the assignment its verdict reports.  With
one z, outside two, it solves each assignment exactly (_Solver): the same
compiler runs the sides with z in efdkit.onez, the l-group of
piecewise-linear functions of z1, and the roots and zero pieces of one
table of pieces give every solution.  With more z it searches a
candidate pool.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from collections.abc import Callable
from fractions import Fraction

from .errors import BudgetExceeded
from .lattice import is_prime, parse_primes
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
    fold,
    max_index,
    parse_integer,
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
    # ints and unrolled pairs, as measured on mv-check (Python 3.11, 2 cores):
    # mapped pairs ran 8.5% fewer queries/s at a 13% higher p95, and 1-tuples
    # 1.7% fewer (2.3% on classify-pipeline)
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
# divides it by D again, and down(w, D, q) decodes the coordinate w / q of a
# point of the one-z hull (onez).  x -> D x maps (1/D)Z onto Z preserving +,
# -, k x and <, so it commutes with every node operation, cut at the unit
# included.  The bit of a Gamma pair and of TwoMV is an integer already: it
# is unscaled, and a point's bit is q times it.
_SCALED = (
    operator.attrgetter("denominator"),
    lambda e, d: e.numerator * (d // e.denominator),
    lambda w, d, q=1: Fraction(w, q * d),
)
_UNSCALED = (lambda e: 1, lambda e, d: e, lambda w, d, q=1: w // q)


class _Layout:
    """The coordinates of the elements of one witness algebra: a flat tuple
    with one coordinate per leaf (group, scaled), group the scalar group Z,
    Q or Q_S it lies in, and scaled False only for the bit that leads a
    Gamma pair and the bit of TwoMV.  flat(e) is the tuple of an element's
    coordinates, and shape(it) the element, nested pairs, of an iterator.

    A code is an element with every scaled coordinate times a scale M: an
    int for one coordinate, otherwise a flat tuple of ints, in the integer
    l-group group.  den(e) is the lcm of the denominators of e, up(e, M)
    its code and down(w, M) the element of a code; down(w, M, q) is the
    element of the point w / q of the one-z hull (onez), w a code: each
    scaled coordinate x / (q M), the bit x // q.  unit is the code of the
    unit of an MV model, and cone is True when every element is >= 0.
    space is the number of codes a draw with the cap _CAP gives (_space)."""

    __slots__ = (
        "leaves", "shape", "flat", "unit", "cone", "group", "coords", "den", "up", "down", "space"
    )

    def __init__(self, leaves: list, shape: Callable, flat: Callable, unit=None, cone=False):
        self.leaves, self.shape, self.flat, self.unit, self.cone = leaves, shape, flat, unit, cone
        self.group = _codes(len(leaves))
        self.coords = _single if len(leaves) == 1 else _same
        self.space = self._space(_CAP)
        codecs = [_SCALED if scaled else _UNSCALED for _, scaled in leaves]
        if len(codecs) == 1:
            self.den, self.up, self.down = codecs[0]
        elif len(codecs) == 2:  # Gamma and lex(A, B) of scalars, unrolled as in _codes
            (lden, lup, ldown), (rden, rup, rdown) = codecs
            self.den = lambda e: math.lcm(lden(e[0]), rden(e[1]))
            self.up = lambda e, d: (lup(e[0], d), rup(e[1], d))
            self.down = lambda w, d, q=1: (ldown(w[0], d, q), rdown(w[1], d, q))
        else:
            dens, ups, downs = zip(*codecs)
            self.den = lambda e: math.lcm(*[f(x) for f, x in zip(dens, flat(e))])
            self.up = lambda e, d: tuple([f(x, d) for f, x in zip(ups, flat(e))])
            self.down = lambda w, d, q=1: shape(iter([f(x, d, q) for f, x in zip(downs, w)]))

    def sample_den(self, cap: int) -> int:
        """The lcm of every denominator that a draw with that cap gives."""
        return math.lcm(*[
            math.prod([math.lcm(*f) for f in _scalar_dens(group, cap)])
            for group, scaled in self.leaves if scaled
        ])

    def drawer(self, cap: int) -> Callable:
        """draw(rng, m): a random element as its code at m, a multiple of
        sample_den(cap): per scaled coordinate a numerator in [-cap, cap]
        over one of its denominators (_scalar_draw); in a cone the larger of
        v and -v, and in Gamma that one, |v|, as (0, |v|) or (1, -|v|) with
        equal odds; in two a bit.  For one scaled coordinate it is one
        closure, with the same calls of rng."""
        draws = [_scalar_draw(group, cap) for group, scaled in self.leaves if scaled]
        cone, unit = self.cone, self.unit
        if not draws:  # two
            return lambda rng, m: rng.randint(0, 1)
        if len(draws) == 1:
            (f,) = draws
            if not cone:
                return f
            if unit is None:
                return lambda rng, m: abs(f(rng, m))

            def gamma(rng, m):
                v = abs(f(rng, m))
                return (0, v) if rng.random() < 0.5 else (1, -v)

            return gamma

        def draw(rng, m):
            v = [f(rng, m) for f in draws]
            if cone:
                v = max(v, [-x for x in v])  # lists compare in the lex order too
                if unit is not None:
                    v = [0, *v] if rng.random() < 0.5 else [1, *[-x for x in v]]
            return tuple(v)

        return draw

    def _space(self, cap: int) -> int:
        """The number of codes a draw with that cap gives, the structured
        ones among them.  A scaled coordinate takes 0 and +-n/d in lowest
        terms, 1 <= n <= cap, d a denominator (they are closed under
        divisors): counted per n, as d is prime to n iff each factor is."""
        count = 1
        for group, scaled in self.leaves:
            if scaled:
                factors = _scalar_dens(group, cap)
                count *= 1 + 2 * sum(
                    math.prod([sum([math.gcd(n, d) == 1 for d in f]) for f in factors])
                    for n in range(1, cap + 1)
                )
        if self.cone:  # v and -v are drawn as one, for v != 0: the draws are closed under negation
            count = (count + 1) // 2
        return count if self.unit is None else 2 * count  # as (0, |v|) and as (1, -|v|)

    def structured(self, m: int) -> list:
        """The codes at m of the x-values a sampled check tries first: 0,
        then +e and -e for the unit e of each scaled coordinate in turn (only
        +e in a cone), then in an MV model unit - b for each b so far, last
        first."""
        g, k = self.group, len(self.leaves)
        codes = [g.zero]
        for i, (_, scaled) in enumerate(self.leaves):
            if scaled:
                e = m if k == 1 else tuple([m if j == i else 0 for j in range(k)])
                codes += [e] if self.cone else [e, g.neg(e)]
        if self.unit is not None:
            codes += [g.sub(self.unit, b) for b in reversed(codes)]
        return codes

    def member(self, w, m: int) -> bool:
        """Whether w is the code of an element at scale m: each scaled
        coordinate x / m lies in its scalar group (iff the part of m prime
        to S divides x), and w is >= 0 in a cone and <= unit in an MV
        model."""
        if (self.cone and w < self.group.zero) or (self.unit is not None and self.unit < w):
            return False
        for x, (group, scaled) in zip(self.coords(w), self.leaves):
            if scaled and x % _prime_part(group, m):
                return False
        return True


def _scalar_dens(a, cap: int) -> list:
    """The denominators a draw with that cap gives a coordinate in the
    scalar group a: the products of one entry of each sequence, 1 .. cap
    for Q, 1, p, p^2 per p in S for Q_S, none (only 1) for Z, with entries
    of two sequences coprime."""
    if isinstance(a, RationalGroup):
        return [range(1, cap + 1)]
    return [(1, p, p * p) for p in getattr(a, "primes", ())]


def _scalar_draw(a, cap: int) -> Callable:
    """draw(rng, m): one coordinate in the scalar group a, as its code at m:
    a numerator in [-cap, cap], drawn first for Q and last otherwise, over
    a denominator of _scalar_dens."""
    factors = _scalar_dens(a, cap)  # choice(f) draws as randint(1, len(f)) does
    if isinstance(a, RationalGroup):
        (dens,) = factors

        def draw(rng, m):
            n = rng.randint(-cap, cap)
            return n * (m // rng.choice(dens))

        return draw

    def draw(rng, m):
        den = 1
        for f in factors:
            den *= rng.choice(f)
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


_CAP = 12  # the cap of a sampled check's draws (_Layout.drawer) and of its pool's divisors (_pool)
_LCM_CAP = math.lcm(*range(1, _CAP + 1))


def sample_elements(a: WitnessAlgebra, count: int, seed: int, cap: int = _CAP) -> list:
    layout = _layout(a)
    rng, m, draw = random.Random(seed), layout.sample_den(cap), layout.drawer(cap)
    return [layout.down(draw(rng, m), m) for _ in range(count)]


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
    """compile(t, slots): t as one closure per node over values (terms.fold,
    so a shared node compiles once but runs once per reference), v read at
    values[slots[v.kind, v.index]], and the set of slots read, from which
    _Solver reads which variables each side has.  ops are the node
    operations of _operations over the l-group of the values (codes, or
    onez's pieces), and zero the value of Zero.  A node outside ops, a
    variable without a slot and a negative k raise when evaluation reaches
    them, left first, as a recursive walk."""

    def compile_(t: Term, slots: dict) -> tuple:
        reads = set()

        def node(t, *kids):
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
                return lambda codes, f=f, k=t.k, arg=kids[0]: f(k, arg(codes))
            if len(kids) == 1:
                return lambda codes, f=f, arg=kids[0]: f(arg(codes))
            return lambda codes, f=f, u=kids[0], v=kids[1]: f(u(codes), v(codes))

        return fold(t, node), reads

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
    pool = [w for w in sorted(scaled) if layout.member(w, m)]
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


_SEARCH_BOUND = 1 << 21  # z-candidates per check; check_in_two tests fewer than 2^(n+m+1)


class _Side:
    """One equation side compiled, and its memo.  fn maps the codes of an
    assignment to the code of the side's value; with one z, a side with z
    maps them to its pieces (onez._Hull.compile), or to their table when
    _Solver compares it with a constant.  reads are the slots the compile
    read, x_i at i - 1 and z_j at n + j - 1; the memo is keyed by the codes
    at them, but for z1 on the hull.  zmax is the highest index of its
    z-variables, 0 for none."""

    __slots__ = ("fn", "reads", "key", "zmax", "memo")

    def __init__(self, fn: Callable, reads: set, n: int, hull: bool):
        self.fn, self.reads = fn, reads
        self.zmax = max(0, max(reads, default=-1) + 1 - n)
        pos = sorted(i for i in reads if i < n or not hull)
        self.key = operator.itemgetter(*pos) if pos else lambda codes: ()
        self.memo = {}

    def value(self, codes: tuple):
        key = self.key(codes)
        v = self.memo.get(key)
        if v is None:
            v = self.memo[key] = self.fn(codes)
        return v


class _Solver:
    """solutions_for_assignment for one sentence in one algebra, one
    x-assignment after another.  A check builds one and drops it when it
    returns, so the memo of each equation side lives for that check only.

    A side is walked to compile it, and its variables are read off the
    slots the compile reads (_Side); a one-z solver also takes its
    max_index to choose the compiler.  With one z, outside two, each
    assignment is solved exactly on the hull of onez, imported when such a
    solver is built: a side with z is compiled over the hull
    (onez._Hull.compile), so an x-free one such as t_k(z1) runs into
    pieces once per check, and a z-free side is a constant.  One equation
    with a z-free side compares that constant with the table of the other
    side's pieces, made once per x-key; otherwise l - r, or with more
    equations the sum of their |l - r|, is tabled and solved for zero.
    With more z, a candidate search sets z1, z2, ... in turn over a pool
    seeded by the value of each z-free side, tests each equation once its
    highest z is set and stops at two solutions, within _SEARCH_BOUND
    candidates a check.  Two is searched exhaustively.

    Both run on codes at one scale M, fixed here: lcm(1.._CAP) times every
    denominator a draw (_Layout.drawer) gives with _CAP, so every sample
    and its pool (v / d, d <= _CAP) are codes at M.  solve_codes takes
    x-codes at M; codes scales x-values up, and other x-values of
    denominator D raise M to lcm(M, D lcm(1.._CAP)) first.  The memo stays, since a side
    compiled on codes or on the hull maps codes to codes without reading M
    (x -> M x commutes with every node operation).  solve_codes returns
    solutions undecoded: the search's z-codes, and the one-z hull's points
    (w, q), whose root test reads the prime parts of the table's slopes and
    of M (parts, taken with M).  decode makes their elements, which solve
    does for each assignment and a sampled check for the one its verdict
    reports.  The bits of TwoMV are their own codes."""

    def __init__(self, a, phi: EFDSentence):
        self.a, self.phi = a, phi
        self.exhaustive = isinstance(a, TwoMV)
        names = [("x", i) for i in range(1, phi.n + 1)] + [("z", j) for j in range(1, phi.m + 1)]
        self.xvars = tuple(Var(*name) for name in names[: phi.n])
        slots = {name: i for i, name in enumerate(names)}
        compile_, self.layout = _evaluator(a)
        self.hull = hull = None
        if phi.m == 1 and not self.exhaustive:
            from .onez import _hull  # compiled by the first one-z solver, not by import efdkit

            self.hull = hull = _hull(a)

        def side(t: Term) -> _Side:
            compile_side = hull.compile if hull and max_index(t, "z") else compile_
            return _Side(*compile_side(t, slots), phi.n, hull is not None)

        self.sides = [tuple(map(side, eq)) for eq in phi.equations]
        self.levels = [[] for _ in range(phi.m + 1)]  # the search's equations by their highest z
        for eq in self.sides:
            j = max(s.zmax for s in eq)  # a side reading each x and z1 .. z_j never hits a memo
            self.levels[j].append(tuple(s.fn if j and len(s.reads) == phi.n + j else s.value
                                        for s in eq))
        read = {i + 1 - phi.n for eq in self.sides for s in eq for i in s.reads if i >= phi.n}
        self.read = [j in read for j in range(phi.m + 1)]  # whether some equation reads z_j
        self.tests = 0  # the z-candidates tested so far, at most _SEARCH_BOUND
        # one z-free side is compared with the other's table, not l - r tabled:
        # without this, mv-check ran 31% fewer queries/s at twice the p95
        self.single = None
        if hull is not None and len(self.sides) == 1:
            lhs, rhs = self.sides[0]
            if bool(lhs.zmax) != bool(rhs.zmax):
                pieces, const = (lhs, rhs) if lhs.zmax else (rhs, lhs)
                pieces.fn = lambda xcodes, fn=pieces.fn: hull.table(fn(xcodes))
                self.single = pieces, const
        self.scale = _LCM_CAP * self.layout.sample_den(_CAP)
        self.parts = None if hull is None else hull.parts(self.scale)

    def solve(self, xassign: dict):
        sols, exact = self.solve_codes(self.codes(xassign))
        return self.decode(sols), exact

    def codes(self, xassign: dict) -> tuple:
        """The codes of an x-assignment at the scale M, which grows first
        where a value's denominator needs it."""
        up, d = self.layout.up, math.lcm(*map(self.layout.den, xassign.values()))
        m = math.lcm(self.scale, d * _LCM_CAP)  # grows only for new denominators
        if m != self.scale:
            self.scale, self.parts = m, None if self.hull is None else self.hull.parts(m)
        return tuple([up(_lookup(v, xassign), m) for v in self.xvars])

    def solve_codes(self, xcodes: tuple):
        """solve at the x-assignment with these codes at the scale M, its
        solutions undecoded (decode)."""
        m, hull = self.scale, self.hull
        if hull is None:
            sols = self._search(xcodes, m)
            return sols, self.exhaustive or len(sols) == 2
        if self.single is not None:
            table, const = self.single
            roots = hull.solve(table.value(xcodes), const.value(xcodes), m, self.parts)
            return [(z,) for z in roots], True
        h = None
        for eq in self.sides:
            lhs, rhs = (s.value(xcodes) if s.zmax else [(hull.lo, 0, s.value(xcodes))] for s in eq)
            d = hull.sub(lhs, rhs)
            if len(self.sides) > 1:
                d = hull.join(d, hull.neg(d))
            h = d if h is None else hull.add(h, d)
        return [(z,) for z in hull.solve(hull.table(h), hull.codes.zero, m, self.parts)], True

    def decode(self, sols: list) -> list:
        """The elements of solutions of solve_codes at the scale M: codes,
        or the hull's points (w, q) with one z."""
        m, down = self.scale, self.layout.down
        if self.hull is not None:
            return [(down(w, m, q),) for ((w, q),) in sols]
        return [tuple([down(z, m) for z in zs]) for zs in sols]

    def _search(self, xcodes: tuple, m: int) -> list:
        if self.exhaustive:
            pool = _BITS
        else:
            # the value of a z-free side joins the x-values, so that the pool
            # holds the solution of z = t(x) and its small divisions
            seeds = list(xcodes)
            seeds.extend(s.value(xcodes) for eq in self.sides for s in eq if not s.zmax)
            pool = _pool(self.a, seeds, m, _CAP)
        sols = []
        for lhs, rhs in self.levels[0]:
            if lhs(xcodes) != rhs(xcodes):
                break
        else:
            self._extend(xcodes, 1, pool, sols)
        n = self.phi.n
        return [codes[n:] for codes in sols]

    def _extend(self, codes: tuple, j: int, pool, sols: list) -> bool:
        """Set z_j after codes (x-codes, then z_1 .. z_{j-1}) to each value of
        the pool, in the order of itertools.product, and go on where the
        equations whose highest z is z_j hold.  True once sols holds two.

        A z_j that no equation reads leaves the same solutions past it at
        every value, so it is set to the first candidate only: where that
        adds one solution, the same tuple at the second candidate is the
        second, as the product loop finds them."""
        if j > self.phi.m:
            sols.append(codes)
            return len(sols) == 2
        if not self.read[j]:
            found = len(sols)
            if self._extend(codes + (pool[0],), j + 1, pool, sols):
                return True
            if len(sols) == found + 1 and len(pool) > 1:
                at = len(codes)
                sols.append(sols[-1][:at] + (pool[1],) + sols[-1][at + 1 :])
                return True
            return False
        tests = self.levels[j]
        self.tests += len(pool) if tests else 0
        if self.tests > _SEARCH_BOUND:
            raise BudgetExceeded(f"the candidate search tests more than {_SEARCH_BOUND} z-values")
        for z in pool:
            zs = codes + (z,)
            for lhs, rhs in tests:
                if lhs(zs) != rhs(zs):
                    break
            else:
                if self._extend(zs, j + 1, pool, sols):
                    return True
        return False


def _distinct(assignments):
    """The assignments that did not occur before.  A check stops at its
    first failing assignment, so a repeat was already decided, and passed,
    at its first occurrence."""
    seen = set()
    for xcodes in assignments:
        if xcodes not in seen:
            seen.add(xcodes)
            yield xcodes


def _refutation(env: dict, sols: list, procedure: str) -> Verdict:
    """The exact refutation at the x-assignment env, whose z-solutions are sols: none or two."""
    reason = "two distinct z-solutions" if sols else "no z-solution"
    return Verdict("falsified", True, (env, sols[:2]), f"{procedure}: {reason}")


def check_sentence_sampled(
    a, phi: EFDSentence, budget: int = 500, seed: int = 0
) -> Verdict:
    """Search for existence or uniqueness violations of phi over sampled
    x-assignments.  Each assignment is solved exactly with one z (outside
    two) and on two, and by a bounded candidate search otherwise.  A pass
    is labelled sampled, and a refutation exact; a candidate search that
    finds no solution is inconclusive.  The structured assignments come
    first, each x at one value of _Layout.structured, then random ones from
    one seeded stream, up to budget, or until every assignment the draws
    can give (_Layout.space per x) was solved; each distinct assignment is
    solved once, as codes at the solver's scale, and only a refutation's
    solutions are decoded.  Past _SEARCH_BOUND it passes on the
    assignments solved before.
    """
    if species(a) is not phi.signature:
        raise ModelError(
            f"signature mismatch: {phi.signature.value} sentence on a "
            f"{species(a).value} model"
        )
    solver = _Solver(a, phi)
    layout, m, xvars = solver.layout, solver.scale, solver.xvars
    rng, n, draw = random.Random(seed), phi.n, layout.drawer(_CAP)
    assignments = itertools.chain(
        [(w,) * n for w in layout.structured(m)],
        iter(lambda: tuple([draw(rng, m) for _ in range(n)]), None),  # endless
    )
    space = layout.space**n  # the distinct assignments there are to draw
    for count, xcodes in enumerate(_distinct(itertools.islice(assignments, max(budget, 1))), 1):
        try:
            sols, exact = solver.solve_codes(xcodes)
        except BudgetExceeded:
            if count == 1:
                raise
            detail = f"sampled: {count - 1} distinct x-assignments (search bound {_SEARCH_BOUND} reached)"
            return Verdict("consistent-on-sample", False, None, detail)
        if len(sols) != 1:
            env = {v: layout.down(w, m) for v, w in zip(xvars, xcodes)}
            if not exact:
                reason = "no z-solution among candidates"
                return Verdict("inconclusive", False, (env, []), f"sampled: {reason}")
            return _refutation(env, solver.decode(sols), "sampled")
        if count == space:
            break
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
        return LocalizedRationals(parse_primes(text[3:]))
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
            lead = parse_integer(parts[0], f"integer literal expected, got {parts[0].strip()!r}")
            e = (lead, _parse_rational(parts[1]))
        else:
            e = (parse_element(a.left, parts[0]), parse_element(a.right, parts[1]))
        check_element(a, e)
        return e
    if isinstance(a, TwoMV):
        e = parse_integer(text, f"integer literal expected, got {text!r}")
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
    """INT or INT/INT, each INT read by parse_integer."""
    message = f"rational literal expected, got {text.strip()!r}"
    num, slash, den = text.partition("/")
    p = parse_integer(num, message)
    q = parse_integer(den, message) if slash else 1
    if q == 0:
        raise ModelError(f"zero denominator in {text.strip()!r}")
    return Fraction(p, q)


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
