"""Piecewise-linear canonical forms of l-group terms, reduction of
delta_{k,t} to delta_{k'}, and classification of supported sentence sets
into canonical AE-classes.
"""

from __future__ import annotations

import math
import operator

from .errors import BudgetExceeded, FragmentError
from .geometry import (
    IneqSystem,
    LinearForm,
    _dot,
    feasible_point,
    gcd_all,
    normalize_row,
)
from .lattice import AEClass, PrimeSet, divisible_g, prime_factors, trivial_g
from .record import Record
from .terms import (
    Diff,
    EFDSentence,
    Join,
    Meet,
    Neg,
    Plus,
    Scalar,
    Signature,
    SignatureError,
    Term,
    Var,
    ZERO,
    Zero,
    fold,
    max_index,
)

__all__ = [
    "FragmentError",
    "PiecewiseLinear",
    "DeltaKT",
    "ABSURD",
    "piecewise_canonical",
    "reduce_delta_kt",
    "classify_group_sentences",
    "sentence_to_delta_kt",
    "DEFAULT_CELL_BUDGET",
]

DEFAULT_CELL_BUDGET = 1000  # cell tests per canonical form, by point or by LP

ABSURD = "absurd"  # explicit marker producing the Trivial class


class PiecewiseLinear(Record):
    n: int
    pieces: tuple[tuple[IneqSystem, LinearForm], ...]

    def to_json(self):
        return {
            "n": self.n,
            "pieces": [
                {"region": [list(r) for r in region.rows], "form": list(form)}
                for region, form in self.pieces
            ],
        }


class DeltaKT(Record):
    """delta_{k,t}: forall x-bar exists! z with k z = t(x-bar)."""

    k: int
    t: Term  # group term over x-variables only

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if max_index(self.t, "z"):
            raise FragmentError("delta_{k,t} requires t over x-variables only")


# ---------------------------------------------------------------------------
# Piecewise canonical form


def _leaf_form(t: Term, n: int) -> LinearForm:
    """The linear form of a variable or 0; every other leaf is rejected."""
    if isinstance(t, Var):
        if t.kind != "x":
            raise SignatureError("canonical forms take terms over x-variables only")
        i = t.index  # a variable past a given n has the zero form
        return (0,) * (i - 1) + (1,) + (0,) * (n - i) if i <= n else (0,) * n
    if isinstance(t, Zero):
        return (0,) * n
    if isinstance(t, Diff):
        raise SignatureError("monus is not a group operation")
    raise SignatureError(f"{type(t).__name__} not admitted in group terms")


def _add(f: LinearForm, g: LinearForm) -> LinearForm:
    return tuple(map(operator.add, f, g))


def _scale(k: int, f: LinearForm) -> LinearForm:
    return tuple(map(k.__mul__, f))


def piecewise_canonical(
    t: Term, n: int | None = None, cap: int = DEFAULT_CELL_BUDGET
) -> PiecewiseLinear:
    """Cells of t, refined bottom-up over the term.

    A cell is a row set, the cone where every row is >= 0, with the linear
    form t takes there.  A variable or 0 is one cell, the whole space.  A
    negation or scalar maps the forms of its argument's cells.  A sum, join
    or meet intersects every cell of one child with every cell of the other
    and keeps the full-dimensional intersections: a sum adds the two forms;
    a join or meet, where the forms f and g differ, splits the intersection
    by the row r = f - g into r >= 0 and -r >= 0, each half taking the
    larger form under a join and the smaller under a meet.  Every cell is a
    full-dimensional cone on which t is the cell's form, and the cells cover
    Q^n.

    Each cell keeps an integer point strictly inside it, 0 for the whole
    space.  A cell test, memoised on the row set for this call, is decided
    by a candidate q with row . q > 0 for every row (either cell's point
    for an intersection, _lifts for a half), else by one LP, the joint
    interior probe of is_full_dimensional (cell rows are never zero),
    whose point is scaled to integers.  No test is spent where the answer
    is known: a row set that contains the other child's is already a cell,
    a half whose row is already present is the whole intersection, and a
    half holding both r and -r is a hyperplane.

    The cap bounds the cell tests, however each is decided: the call raises
    BudgetExceeded before it would make test number cap + 1.
    """
    if n is None:
        n = max_index(t, "x")

    zero = (0,) * n
    points: dict[frozenset, LinearForm | None] = {frozenset(): zero}

    def interior(rows, candidates) -> LinearForm | None:
        key = frozenset(rows)
        if key not in points:
            if len(points) > cap:
                raise BudgetExceeded(f"the canonical form needs more than {cap} cell tests")
            q = next((q for q in candidates if all(_dot(r, q) > 0 for r in rows)), None)
            if q is None and (x := feasible_point(rows, [1] * len(rows), n)) is not None:
                m = math.lcm(*(c.denominator for c in x))
                q = tuple(c.numerator * (m // c.denominator) for c in x)
            points[key] = q
        return points[key]

    def meets(outer, inner):
        """(rows, f, g, p) for each full-dimensional intersection of a cell of
        outer (form f) with a cell of inner (form g), outer rows first."""
        for rows1, f, p1 in outer:
            for rows2, g, p2 in inner:
                rows = rows1 + tuple(r for r in rows2 if r not in rows1)
                # unless one row set contains the other, the union is new
                if len(rows) in (len(rows1), len(rows2)):
                    p = p1 if len(rows) == len(rows1) else p2
                else:
                    p = interior(rows, (p1, p2))
                if p is not None:
                    yield rows, f, g, p

    def cells(node, *kids):
        kind = type(node)
        if kind is Plus:
            # the right summand's cells outermost, its rows first
            return [(rows, _add(f, g), p) for rows, g, f, p in meets(kids[1], kids[0])]
        if kind is Neg or kind is Scalar:
            k = -1 if kind is Neg else node.k
            if k == 0:
                return [((), zero, zero)]
            return [(rows, _scale(k, f), p) for rows, f, p in kids[0]]
        if kind is not Join and kind is not Meet:
            return [((), _leaf_form(node, n), zero)]
        join = kind is Join
        out = []
        for rows, f, g, p in meets(kids[0], kids[1]):
            if f == g:
                out.append((rows, f, p))
                continue
            r = normalize_row(tuple(a - b for a, b in zip(f, g)))
            neg = tuple(-c for c in r)
            # on r >= 0, f >= g
            halves = ((r, neg, f if join else g), (neg, r, g if join else f))
            for row, opposite, form in halves:
                if row in rows:
                    out.append((rows, form, p))
                elif opposite not in rows and (q := interior(rows + (row,), _lifts(p, rows, row))):
                    out.append((rows + (row,), form, q))
        return out

    return PiecewiseLinear(
        n, tuple((IneqSystem(n, rows), form) for rows, form, _ in fold(t, cells))
    )


def _lifts(p: LinearForm, rows, row: LinearForm):
    """p, then N p + row with N = 1 + max |s . row| over the rows s: strictly
    inside every s >= 0 as p is, and inside row >= 0 too when row . p >= 0."""
    yield p
    big = 1 + max((abs(_dot(s, row)) for s in rows), default=0)
    yield tuple(big * a + b for a, b in zip(p, row))


# ---------------------------------------------------------------------------
# Reduction and classification


def reduce_delta_kt(d: DeltaKT, cap: int = DEFAULT_CELL_BUDGET) -> int:
    """k' with delta_{k,t} equivalent to delta_{k'} over l-groups:
    divide k by gcd({k} union all piece coefficients)."""
    if d.k == 1:  # k' divides k
        return 1
    pw = piecewise_canonical(d.t, cap=cap)
    coeffs = [c for _, form in pw.pieces for c in form]
    g = gcd_all([d.k] + coeffs)
    return d.k // math.gcd(d.k, g)


def sentence_to_delta_kt(phi: EFDSentence) -> DeltaKT:
    """Recognize a group or hoop sentence of the shape forall x-bar exists!
    z1 with k z1 = t(x-bar), k z1 possibly spelled as a sum of multiples of
    z1.  A hoop equation may also be spelled (k z1 -. t) + (t -. k z1) = 0,
    as in the hoop image of a decomposition branch."""
    if phi.signature is Signature.MV:
        raise FragmentError("delta_{k,t} recognition expects a group or hoop sentence")
    if phi.m != 1 or len(phi.equations) != 1:
        raise FragmentError("supported fragment: single equation, single z-variable")
    lhs, rhs = phi.equations[0]
    if rhs == ZERO and isinstance(lhs, Plus):
        a, b = lhs.left, lhs.right
        if isinstance(a, Diff) and isinstance(b, Diff) and a.left == b.right and a.right == b.left:
            lhs, rhs = a.left, a.right
    for a, b in ((lhs, rhs), (rhs, lhs)):
        k = _kz1(a)
        if k is not None and max_index(b, "z") == 0:
            return DeltaKT(k, b)
    raise FragmentError(
        "supported fragment: one side must be k z1 with the other z-free"
    )


def _kz1(t: Term) -> int | None:
    """Multiplicity when t is z1, k z1, or a sum of such."""

    def multiplicity(node, *kids):
        if isinstance(node, Var):
            return 1 if node.kind == "z" and node.index == 1 else None
        if not kids or None in kids:
            return None
        if isinstance(node, Plus):
            return kids[0] + kids[1]
        if isinstance(node, Scalar) and node.k >= 1:
            return node.k * kids[0]
        return None

    return fold(t, multiplicity)


def classify_group_sentences(
    sentences, cap: int = DEFAULT_CELL_BUDGET
) -> AEClass:
    """Combine delta_{k,t} inputs into the canonical AE-class of l-groups.

    Inputs may be DeltaKT values, group EFD-sentences of that shape, or the
    ABSURD marker (yielding the Trivial class).  A conjunction of delta_k's
    is equivalent to delta of the product, and divisibility by k to
    divisibility by the prime factors of k.
    """
    primes: set[int] = set()
    for item in sentences:
        if item == ABSURD:
            return trivial_g()
        if isinstance(item, EFDSentence) and item.signature is Signature.GROUP:
            item = sentence_to_delta_kt(item)
        if not isinstance(item, DeltaKT):
            raise FragmentError(f"unsupported classification input {item!r}")
        primes |= prime_factors(reduce_delta_kt(item, cap=cap))
    return divisible_g(PrimeSet.finite(primes))

