"""Exact one-z solving: every solution, up to two, of the equations of a
sentence with one z-variable at a fixed x-assignment, in every witness
algebra but two.

At fixed x, every term is a continuous piecewise-linear function of z1 over
the divisible hull of the model: Q for a scalar group and its cone, and Q^d
in the lex order for a lex product and for Gamma(Z lex A, (1, 0)), d the
number of scalar coordinates.  A point of the hull is a code of the
model's layout (models._layout): an int for one coordinate, otherwise a
flat tuple of ints, every coordinate times the scale M but the bit of a
Gamma pair.  Codes add, subtract and scale in the layout's integer group,
and Python's order on them is the lex order.

A term folds bottom-up into pieces (l, a, b): from the start l to the
next piece's start (or the domain's end), it is a z + b, with a an integer
and b a code.  A start is None for -oo, or a point n / q of the hull kept
as (n, q): n a code and q >= 1 in lowest terms, so the fold runs on
integers.  These functions form an l-group pointwise:
+, - and k x merge the starts, and \\/ and /\\ add the crossing
point -(b1 - b2) / (a1 - a2) where it falls inside an interval.  The node
operations of each signature come from models._operations over it, as the
term compiler's come over integer codes.  The domain is the hull for a
group, [0, oo) for a cone and [0, u] for Gamma.

The solutions of h(z) = c are the roots (c - b) / a of the pieces that
reach c and lie in the model, and the model elements of each piece that is
c throughout: the test points of linear quantifier elimination
(Ferrante-Rackoff 1975; Loos-Weispfenning 1993), so the answer is complete.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .models import ModelError, RationalGroup, _layout, _operations, _prime_part
from .terms import Power, Scalar, Var, Zero, fold

__all__ = ["OneZ"]


def _put(out: list, l, a: int, b) -> None:
    """Append the piece a z + b from l, or extend the last one if equal."""
    if not out or out[-1][1] != a or out[-1][2] != b:
        out.append((l, a, b))


def _steps(g, coords) -> tuple:
    """(le, sum, difference, larger, smaller) on codes in the integer group
    g, coords(w) the coordinates of a code w: le(p, r) is p <= r for two
    starts (n, q), and the others are the _merge steps of f + g, f - g,
    f \\/ g and f /\\ g on one interval."""
    add, sub, scale = g.add, g.sub, g.scale

    def le(p, r):
        if p[1] == r[1]:
            return p[0] <= r[0]
        return scale(r[1], p[0]) <= scale(p[1], r[0])

    def total(out, l, r, p, q):
        _put(out, l, p[1] + q[1], add(p[2], q[2]))

    def difference(out, l, r, p, q):
        _put(out, l, p[1] - q[1], sub(p[2], q[2]))

    def lattice(join: bool):
        def each(out, l, r, p, q):
            (_, a1, b1), (_, a2, b2) = p, q
            if a1 == a2:
                _put(out, l, a1, (b1 if (b1 >= b2) == join else b2))
                return
            if a1 > a2:
                a1, b1, a2, b2 = a2, b2, a1, b1
            # a1 z + b1 exceeds a2 z + b2 below the crossing z = w / d, not above
            w, d = sub(b1, b2), a2 - a1
            k = math.gcd(d, *coords(w))
            z = (w, d) if k == 1 else (g.div(w, k), d // k)
            (a1, b1), (a2, b2) = ((a1, b1), (a2, b2)) if join else ((a2, b2), (a1, b1))
            if l is not None and le(z, l):
                _put(out, l, a2, b2)
            elif r is not None and le(r, z):
                _put(out, l, a1, b1)
            else:
                _put(out, l, a1, b1)
                _put(out, z, a2, b2)

        return each

    return le, total, difference, lattice(True), lattice(False)


class _Hull:
    """The piecewise-linear functions of z1 over the divisible hull of one
    algebra: an l-group pointwise (zero, add, sub, neg, scale, join and
    meet), at which models._operations builds the node operations of the
    algebra's signature.  codes is the integer group of the codes."""

    def __init__(self, a):
        layout = _layout(a)
        self.leaves, self.shape, self.coords = layout.leaves, layout.shape, layout.coords
        self.member, self.codes = layout.member, layout.group
        self.le, self._sum, self._difference, self._larger, self._smaller = _steps(
            layout.group, layout.coords
        )
        zero = layout.group.zero
        self.lo = (zero, 1) if layout.cone else None
        self.hi = unit = None
        self.zero = [(self.lo, 0, zero)]
        self.identity = [(self.lo, 1, zero)]
        if layout.unit is not None:
            self.hi = (layout.unit, 1)
            unit = [(self.lo, 0, layout.unit)]
        self.label, self.ops = _operations(a, self, unit)

    # -- folding -------------------------------------------------------------

    def fold(self, t, xcodes: tuple) -> list:
        """The pieces of t at the x-assignment with these codes."""
        ops, lo = self.ops, self.lo

        def node(n, *kids):
            kind = type(n)
            if kind is Var:
                if n.kind == "z":
                    return self.identity
                return [(lo, 0, xcodes[n.index - 1])]
            if kind is Zero:
                return self.zero
            op = ops.get(kind)
            if op is None:
                raise ModelError(f"{kind.__name__} not evaluable in {self.label}")
            if kind is Scalar or kind is Power:
                return op(n.k, *kids)
            return op(*kids)

        return fold(t, node)

    def _merge(self, f: list, g: list, each) -> list:
        """each(out, l, r, p, q) over the common refinement of f and g: the
        intervals [l, r] (None at an infinite end) and the pieces p of f and
        q of g there."""
        le, out, i, j, last_f, last_g = self.le, [], 0, 0, len(f) - 1, len(g) - 1
        l = f[0][0]
        while i < last_f or j < last_g:
            if j == last_g:
                r, di, dj = f[i + 1][0], 1, 0
            elif i == last_f:
                r, di, dj = g[j + 1][0], 0, 1
            else:
                r, rg = f[i + 1][0], g[j + 1][0]
                if r == rg:
                    di = dj = 1
                elif le(r, rg):
                    di, dj = 1, 0
                else:
                    r, di, dj = rg, 0, 1
            each(out, l, r, f[i], g[j])
            i, j, l = i + di, j + dj, r
        each(out, l, self.hi, f[i], g[j])
        return out

    def add(self, f: list, g: list) -> list:
        return self._merge(f, g, self._sum)

    def sub(self, f: list, g: list) -> list:
        return self._merge(f, g, self._difference)

    def neg(self, f: list) -> list:
        neg = self.codes.neg
        return [(l, -a, neg(b)) for l, a, b in f]

    def scale(self, k: int, f: list) -> list:
        if k == 0:
            return self.zero
        scale = self.codes.scale
        return [(l, k * a, scale(k, b)) for l, a, b in f]

    def join(self, f: list, g: list) -> list:
        return self._merge(f, g, self._larger)

    def meet(self, f: list, g: list) -> list:
        return self._merge(f, g, self._smaller)

    # -- solving -------------------------------------------------------------

    def table(self, f: list) -> tuple:
        """(L, rows): per piece (low, high, a, b, l, r), the range of its
        values on [l, r] times L (None at an infinite end), L the lcm of the
        denominators of the ends, so that a constant c meets a piece iff
        low <= L c <= high on integers."""
        hi, add, scale = self.hi, self.codes.add, self.codes.scale
        rows, dens = [], set()
        for i, (l, a, b) in enumerate(f):
            r = f[i + 1][0] if i + 1 < len(f) else hi
            if a == 0:
                vl = vr = (b, 1)
            else:
                # a n / q + b = (a n + q b) / q
                vl = None if l is None else (add(scale(a, l[0]), scale(l[1], b)), l[1])
                vr = None if r is None else (add(scale(a, r[0]), scale(r[1], b)), r[1])
                if a < 0:
                    vl, vr = vr, vl
                dens.update(v[1] for v in (vl, vr) if v is not None)
            rows.append((vl, vr, a, b, l, r))
        big = math.lcm(*dens)

        def up(v):
            return None if v is None else (v[0] if v[1] == big else scale(big // v[1], v[0]))

        return big, [(up(vl), up(vr), a, b, l, r) for vl, vr, a, b, l, r in rows]

    def solve(self, table: tuple, c: tuple, m: int) -> list:
        """The elements z, up to two and ascending, with h(z) = c for the
        tabled h, c a code and m the scale of the codes."""
        big, rows = table
        cl = c if big == 1 else self.codes.scale(big, c)
        found = []
        for low, high, a, b, l, r in rows:
            if (low is None or low <= cl) and (high is None or cl <= high):
                for e in self._root(self.codes.sub(c, b), a, m) if a else self._points(l, r, m):
                    if e not in found:
                        found.append(e)
                        if len(found) == 2:
                            return found
        return found

    def _root(self, w, a: int, m: int) -> tuple:
        """w / a as an element, if it is one (_Layout.member)."""
        if a < 0:
            w, a = self.codes.neg(w), -a
        if not self.member(w, a, m):
            return ()
        values = (
            Fraction(x, a * m) if scaled else x // a
            for x, (_, scaled) in zip(self.coords(w), self.leaves)
        )
        return (self.shape(values),)

    def _points(self, l, r, m: int) -> list:
        """Up to two elements in [l, r], l and r starts or None."""

        def actual(v):
            if v is None:
                return None
            n, q = v
            return tuple(
                Fraction(x, q * m if scaled else q)
                for x, (_, scaled) in zip(self.coords(n), self.leaves)
            )

        return [self.shape(iter(e)) for e in _lex_points(self.leaves, actual(l), actual(r), 2)]


def _lex_points(leaves: list, l, r, count: int) -> list:
    """Up to count points of the lex product of the leaves in [l, r],
    ascending, coordinate by coordinate."""
    if not leaves:
        return [()]
    group, rest = leaves[0][0], leaves[1:]
    l0, lr = (None, None) if l is None else (l[0], l[1:])
    r0, rr = (None, None) if r is None else (r[0], r[1:])
    if l0 is not None and l0 == r0:
        if _prime_part(group, l0.denominator) != 1:
            return []
        return [(l0,) + t for t in _lex_points(rest, lr, rr, count)]
    out = []
    # two more first coordinates than needed: the ends may bound the rest
    for e in _leaf_points(group, l0, r0, count + 2):
        low, high = lr if e == l0 else None, rr if e == r0 else None
        out += [(e,) + t for t in _lex_points(rest, low, high, count - len(out))]
        if len(out) >= count:
            break
    return out[:count]


def _leaf_points(group, l, r, count: int) -> list:
    """Up to count elements of the scalar group in [l, r] with l < r,
    ascending: multiples of a step 1 / p^j, p = 2 for Q and the least prime
    of S for Q_S, so fine that count of them fit when both ends are finite
    and the group is dense."""
    step = Fraction(1)
    base = 2 if isinstance(group, RationalGroup) else min(getattr(group, "primes", ()), default=0)
    if l is not None and r is not None and base:
        while step * count > r - l:
            step /= base
    if l is not None:
        first = math.ceil(l / step) * step
    elif r is not None:
        first = (math.floor(r / step) - count + 1) * step
    else:
        first = Fraction(0)
    return [v for v in (first + i * step for i in range(count)) if r is None or v <= r]


@functools.lru_cache(maxsize=64)
def _hull(a) -> _Hull:
    return _Hull(a)


class OneZ:
    """The one-z solve of one sentence in one algebra, one x-assignment
    after another.  sides are the compiled equation sides of models._Solver,
    whose memo maps the codes of a side's own x-values to its value when it
    has no z, and to its pieces otherwise: so an x-free side such as t_k(z1)
    is folded once per check, and a z-free one is a constant."""

    def __init__(self, a, equations: tuple, sides: list):
        self.hull = _hull(a)
        self.equations = [tuple(zip(eq, eq_sides)) for eq, eq_sides in zip(equations, sides)]
        # one equation with one z-free side: its value meets the other side's table
        self.single = None
        if len(self.equations) == 1:
            (lt, ls), (rt, rs) = self.equations[0]
            if ls.hasz != rs.hasz:
                self.single = ((lt, ls), rs) if ls.hasz else ((rt, rs), ls)

    @staticmethod
    def _memo(side, xcodes: tuple, make):
        key = side.xkey(xcodes)
        v = side.memo.get(key)
        if v is None:
            v = side.memo[key] = make()
        return v

    def _value(self, side, xcodes: tuple):
        return self._memo(side, xcodes, lambda: side.fn(xcodes))

    def solve(self, xcodes: tuple, m: int) -> list:
        hull = self.hull
        if self.single is not None:
            (t, side), const = self.single
            table = self._memo(side, xcodes, lambda: hull.table(hull.fold(t, xcodes)))
            return hull.solve(table, self._value(const, xcodes), m)
        h = None
        for eq in self.equations:
            lhs, rhs = (
                self._memo(s, xcodes, lambda: hull.fold(t, xcodes))
                if s.hasz
                else [(hull.lo, 0, self._value(s, xcodes))]
                for t, s in eq
            )
            d = hull.sub(lhs, rhs)
            if len(self.equations) > 1:
                d = hull.join(d, hull.neg(d))
            h = d if h is None else hull.add(h, d)
        return hull.solve(hull.table(h), hull.codes.zero, m)
