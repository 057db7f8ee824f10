"""Exact linear algebra over the rationals: homogeneous inequality systems,
full-dimensionality of solution cones.

Arithmetic is exact and never uses floating point.  One LP, phase 1 of the
simplex on the Farkas alternative of A x >= b, ends with a point x or with
integer multipliers y >= 0, A^T y = 0, b . y > 0 that prove there is none;
a cone's full-dimensionality takes one such LP.  The simplex pivots integer
rows over one common positive determinant and divides exactly; points and
basis vectors are returned as fractions.Fraction.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .record import Record, _set

__all__ = [
    "LinearForm",
    "IneqSystem",
    "RationalVector",
    "FullDimResult",
    "DimensionMismatch",
    "normalize_row",
    "feasible_point",
    "is_full_dimensional",
]

LinearForm = tuple[int, ...]
RationalVector = tuple[Fraction, ...]


class DimensionMismatch(ValueError):
    pass


class IneqSystem(Record):
    """Conjunction of rows read as row . x >= 0; the empty system is Q^n."""

    __slots__ = ("n", "rows")
    n: int
    rows: tuple[LinearForm, ...]

    def __init__(self, n: int, rows: tuple[LinearForm, ...]):
        for row in rows:
            if len(row) != n:
                raise DimensionMismatch(f"row {row} has length {len(row)}, expected {n}")
        _set(self, "n", n)
        _set(self, "rows", rows)

    def contains(self, point: Sequence[Fraction]) -> bool:
        if len(point) != self.n:
            raise DimensionMismatch(f"point has length {len(point)}, expected {self.n}")
        return all(_dot(row, point) >= 0 for row in self.rows)


class FullDimResult(Record):
    full_dimensional: bool
    basis: tuple[RationalVector, ...] | None  # n independent solutions when true
    certificate: LinearForm | None  # nonzero form vanishing on the cone when false


def _dot(row: Sequence, point: Sequence) -> int | Fraction:
    return sum(map(operator.mul, row, point))


def normalize_row(row: Sequence[int]) -> LinearForm:
    g = math.gcd(*(abs(c) for c in row)) if any(row) else 0
    return tuple(c // g for c in row) if g > 1 else tuple(row)


# ---------------------------------------------------------------------------
# Exact feasibility: phase 1 on the Farkas alternative, Bland's rule


def feasible_point(
    rows: Sequence[Sequence[int]], rhs: Sequence[int], n: int
) -> list[Fraction] | None:
    """Find x in Q^n with row . x >= b for every (row, b) pair, or None."""
    if not rows:
        return [Fraction(0)] * n
    return _farkas(rows, rhs, n)[0]


def _farkas(rows, rhs, n) -> tuple[list[Fraction] | None, list[int] | None]:
    """(x, None) with A x >= b, or (None, y) with integers y >= 0, A^T y = 0
    and b . y > 0 (Farkas 1902; with b = 1, Gordan 1873), for m > 0 rows.

    Phase 1 runs on the alternative {A^T y = 0, b . y = 1, y >= 0}: n + 1
    rows (the columns of A, then b) over y_1..y_m, one artificial per row,
    and the right-hand side.  Bland's rule enters the lowest y of negative
    reduced cost and breaks ratio ties towards the lowest basic index, so
    it terminates.  At optimum 0 the basic y solve the alternative.  Else
    the simplex multipliers pi, read off the cost row at the artificials
    (reduced cost 1 - pi_k), satisfy A pi_x + b pi_b <= 0 with pi_b equal to
    the optimum, so x = -pi_x / pi_b.

    The tableau is pivoted fraction-free (Edmonds 1967, Bareiss 1968): every
    row is kept as integers over one common positive determinant ``det``, the
    true tableau being the integer one divided by ``det``; each update
    divides exactly.
    """
    m = len(rows)
    last = m + n + 1  # the right-hand side column
    unit = [0] * (n + 1)
    tableau = [[*col, *unit, 0] for col in zip(*rows)]
    tableau.append([*rhs, *unit, 1])
    for k, trow in enumerate(tableau):
        trow[m + k] = 1
    basis = list(range(m, last))
    cost = [-sum(row) - b for row, b in zip(rows, rhs)] + unit + [-1]
    det = 1
    while (entering := next((j for j in range(m) if cost[j] < 0), None)) is not None:
        # least ratio rhs_i / T[i][entering] over T[i][entering] > 0, cross-
        # multiplied (both over det), ties to the lowest basic index; phase 1
        # is bounded below by 0, so some row qualifies
        leaving = None
        for i, trow in enumerate(tableau):
            den = trow[entering]
            if den > 0:
                if leaving is not None:
                    d = trow[last] * best_den - best_num * den
                    if d > 0 or d == 0 and basis[i] > basis[leaving]:
                        continue
                leaving, best_num, best_den = i, trow[last], den
        det = _pivot(tableau, cost, leaving, entering, det)
        basis[leaving] = entering
    if cost[last] == 0:
        y = [0] * m
        for i, b in enumerate(basis):
            if b < m:
                y[b] = tableau[i][last]
        return None, y
    # cost[m + k] = det (1 - pi_k), so x_k = -pi_k / pi_b with pi_b > 0
    pi_b = det - cost[m + n]
    return [Fraction(cost[m + k] - det, pi_b) for k in range(n)], None


def _pivot(tableau, cost, leaving, entering, det) -> int:
    """Integer pivot on tableau[leaving][entering]; returns the new det.

    Sylvester's identity makes every division by the old det exact.
    """
    prow = tableau[leaving]
    p = prow[entering]
    for i, trow in enumerate(tableau):
        if i == leaving:
            continue
        f = trow[entering]
        if f:
            tableau[i] = [(a * p - f * b) // det for a, b in zip(trow, prow)]
        else:
            tableau[i] = [a * p // det for a in trow]
    f = cost[entering]
    if f:
        cost[:] = [(a * p - f * b) // det for a, b in zip(cost, prow)]
    else:
        cost[:] = [a * p // det for a in cost]
    return p


# ---------------------------------------------------------------------------
# Full-dimensionality


def is_full_dimensional(s: IneqSystem) -> FullDimResult:
    """Decide whether the cone {x : rows.x >= 0} spans Q^n.

    The rows can all be made strict jointly iff each can individually (sum
    the individual witnesses), and by scale-invariance iff rows.x >= 1 is
    feasible: one LP decides.  Its point is the basis's centre; when there
    is none, its Gordan multipliers y >= 0, y^T rows = 0, make every row of
    their support an implicit equality (y . rows x = 0 with rows x >= 0),
    and the first such row is the certificate.
    """
    nonzero = [row for row in s.rows if any(row)]
    if not nonzero:
        basis = tuple(_unit(s.n, j) for j in range(s.n))
        return FullDimResult(True, basis, None)
    point, y = _farkas(nonzero, [1] * len(nonzero), s.n)
    if point is not None:
        return FullDimResult(True, _basis_around(point, nonzero, s.n), None)
    return FullDimResult(False, None, normalize_row(next(r for r, c in zip(nonzero, y) if c)))


def _unit(n: int, j: int) -> RationalVector:
    return tuple(Fraction(1 if i == j else 0) for i in range(n))


def _basis_around(point: list[Fraction], rows, n: int) -> tuple[RationalVector, ...]:
    """n independent solutions near an interior point with rows.point >= 1.

    The point p, then scale*p + e_j for every j except j*, the last index
    where p is nonzero: e_j lies in the span of p and the earlier e_i exactly
    when j = j*.  With scale above every row's absolute sum, each
    scale*p + e_j keeps rows.x >= 1.
    """
    scale = max(sum(abs(c) for c in row) for row in rows) + 1
    last = max(j for j, c in enumerate(point) if c)
    return (tuple(point),) + tuple(
        tuple(scale * c + (1 if i == j else 0) for i, c in enumerate(point))
        for j in range(n)
        if j != last
    )
