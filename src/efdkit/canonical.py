"""Piecewise-linear canonical forms of l-group terms, recognition of the
delta_{k,t} shape in a group or hoop sentence, and reduction of delta_{k,t}
to delta_{k'}.
"""

from __future__ import annotations

import math
import operator

from .errors import DEFAULT_CELL_BUDGET, BudgetExceeded, FragmentError
from .geometry import (
    IneqSystem,
    LinearForm,
    _dot,
    feasible_point,
    normalize_row,
)
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
    "piecewise_canonical",
    "reduce_delta_kt",
    "sentence_to_delta_kt",
    "DEFAULT_CELL_BUDGET",
]

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
    space.  A cell test, memoised on the row set for this call, first
    searches the line p + t d for a point with row . q > 0 for every row
    (_line_search): through p1 with d = p2 - p1 for an intersection of cells
    with points p1 and p2, through the cell's point p with d = r for a half
    r >= 0.  Failing that, a row set holding both r and -r is a hyperplane;
    else one LP decides: feasible_point on rows . x >= 1, the one LP of
    is_full_dimensional (cell rows are never zero), whose point is scaled
    to integers.  No test is spent where the answer is known: a row set
    that contains the other child's is already a cell, a half whose row is
    already present is the whole intersection, and a half holding both r
    and -r is a hyperplane.

    The cap bounds the cell tests, however each is decided: the call raises
    BudgetExceeded before it would make test number cap + 1.
    """
    if n is None:
        n = max_index(t, "x")

    zero = (0,) * n
    points: dict[frozenset, LinearForm | None] = {frozenset(): zero}

    def interior(rows, p, d) -> LinearForm | None:
        key = frozenset(rows)
        if key not in points:
            if len(points) > cap:
                raise BudgetExceeded(f"the canonical form needs more than {cap} cell tests")
            points[key] = _interior_point(rows, key, p, d)
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
                    p = interior(rows, p1, tuple(map(operator.sub, p2, p1)))
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
                elif opposite not in rows and (q := interior(rows + (row,), p, row)):
                    out.append((rows + (row,), form, q))
        return out

    return PiecewiseLinear(
        n, tuple((IneqSystem(n, rows), form) for rows, form, _ in fold(t, cells))
    )


def _interior_point(rows, key, p, d) -> LinearForm | None:
    """An integer point strictly inside every row of the set key, or None
    when the rows have no common interior: on the line p + t d if the line
    meets the interior, else none on a hyperplane, else by one LP."""
    q = _line_search(rows, p, d)
    if q is None and not any(tuple(-c for c in r) in key for r in rows):
        x = feasible_point(rows, [1] * len(rows), len(p))
        if x is not None:
            m = math.lcm(*(c.denominator for c in x))
            q = tuple(c.numerator * (m // c.denominator) for c in x)
    return q


def _line_search(rows, p, d) -> LinearForm | None:
    """The point p + t d, scaled to coprime integers, strictly inside every
    row s, or None if there is none: p itself when t = 0 is allowed, else
    the t of least denominator.  Each row bounds t on one side through
    s . p + t (s . d) > 0; the bounds are fractions num / den, den >= 0,
    with den = 0 for an infinite one."""
    lo, lo_den, hi, hi_den = -1, 0, 1, 0
    for s in rows:
        a, b = _dot(s, p), _dot(s, d)
        if b > 0:
            if -a * lo_den > lo * b:
                lo, lo_den = -a, b
        elif b < 0:
            if a * hi_den < -hi * b:
                hi, hi_den = a, -b
        elif a <= 0:
            return None
    if lo < 0 < hi:
        return p
    if lo * hi_den >= hi * lo_den:
        return None
    if lo >= 0:
        num, den = _simplest(lo, lo_den, hi, hi_den)
    else:
        num, den = _simplest(-hi, hi_den, -lo, lo_den)
        num = -num
    q = [den * a + num * b for a, b in zip(p, d)]
    g = math.gcd(*q)
    return tuple(c // g for c in q)


def _simplest(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """(num, den), the rational of least denominator strictly between a / b
    and c / d, for 0 <= a / b < c / d and b > 0; d = 0 reads c / d as
    infinite.  The continued-fraction recursion of the Stern-Brocot tree."""
    q = a // b
    if (q + 1) * d < c:
        return q + 1, 1
    num, den = _simplest(d, c - q * d, b, a - q * b)
    return q * num + den, num


# ---------------------------------------------------------------------------
# Recognition and reduction of delta_{k,t}


def reduce_delta_kt(d: DeltaKT, cap: int = DEFAULT_CELL_BUDGET) -> int:
    """k' with delta_{k,t} equivalent to delta_{k'} over l-groups:
    k / gcd(k, g), where g is the gcd of t's values on Z^n, that is of the
    coefficients of all its pieces.

    One fold bounds g from both sides before any cell test (_gcd_bounds): a
    divisor L of every piece's coefficients and a multiple G, the gcd of t's
    values at a few integer points.  L | g | G, so where gcd(k, L) =
    gcd(k, G) both equal gcd(k, g); for n <= 1, t(1) and t(-1) are the
    coefficients of the only pieces, so G = g.  Only where the bounds
    disagree are the cells refined, and only there does the cap bound the
    cell tests."""
    k = d.k
    if k == 1:  # k' divides k
        return 1
    n = max_index(d.t, "x")
    low, high = _gcd_bounds(d.t, n)
    if n > 1 and math.gcd(k, low) != math.gcd(k, high):
        pw = piecewise_canonical(d.t, n, cap=cap)
        high = math.gcd(*(c for _, form in pw.pieces for c in form))
    return k // math.gcd(k, high)


def _gcd_bounds(t: Term, n: int) -> tuple[int, int]:
    """(L, G) with L | g | G for the gcd g of t's values on Z^n.  L folds as
    the cells do: a variable 1, 0 zero, a scalar k multiplies it by |k|, a
    negation being the scalar -1, and a sum, join or meet takes the gcd of
    its children's.  G is the gcd of t's values at each +-e_i, (1, 2, ..., n)
    and (2, -3, 4, ...), folded as one tuple of values per node."""
    points = [tuple((i == j) * s for j in range(n)) for i in range(n) for s in (1, -1)]
    points += [tuple(range(1, n + 1)), tuple((-1) ** j * (j + 2) for j in range(n))]
    columns = tuple(zip(*points))  # per variable, its value at each point
    zeros = (0,) * len(points)

    def bounds(node, *kids):
        kind = type(node)
        if kind is Plus or kind is Join or kind is Meet:
            (a, u), (b, v) = kids
            op = operator.add if kind is Plus else max if kind is Join else min
            return math.gcd(a, b), tuple(map(op, u, v))
        if kind is Neg or kind is Scalar:
            k = -1 if kind is Neg else node.k
            a, u = kids[0]
            return abs(k) * a, tuple(map(k.__mul__, u))
        if kind is Var and node.kind == "x":
            return 1, columns[node.index - 1]
        _leaf_form(node, n)  # 0 here; any node that is no group leaf raises
        return 0, zeros

    low, values = fold(t, bounds)
    return low, math.gcd(*values)


_ONE_EQUATION_ONE_Z = "supported fragment: single equation, single z-variable"


def sentence_to_delta_kt(phi: EFDSentence) -> DeltaKT:
    """Recognize a group or hoop sentence of the shape forall x-bar exists!
    z1 with k z1 = t(x-bar): one equation over one z, read by
    equation_to_delta_kt."""
    if phi.signature is Signature.MV:
        raise FragmentError("delta_{k,t} recognition expects a group or hoop sentence")
    if len(phi.equations) != 1:
        raise FragmentError(_ONE_EQUATION_ONE_Z)
    return equation_to_delta_kt(*phi.equations[0], phi.m)


def equation_to_delta_kt(lhs: Term, rhs: Term, m: int) -> DeltaKT:
    """Recognize a group or hoop equation k z1 = t(x-bar) of a sentence
    over m z-variables (only m = 1 is in the fragment), k z1 possibly
    spelled as a sum of multiples of z1.  A hoop equation may also be
    spelled (k z1 -. t) + (t -. k z1) = 0, as in the hoop image of a
    decomposition branch; either side may be the k z1 or the 0."""
    if m != 1:
        raise FragmentError(_ONE_EQUATION_ONE_Z)
    if lhs == ZERO:
        lhs, rhs = rhs, lhs
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
