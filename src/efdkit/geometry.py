"""Exact linear algebra over the rationals: homogeneous inequality systems,
full-dimensionality of solution cones.

Arithmetic is exact and never uses floating point.  The simplex pivots
integer rows over one common positive determinant and divides exactly;
points and basis vectors are returned as fractions.Fraction.
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
    "gcd_all",
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


def gcd_all(values: Sequence[int]) -> int:
    if not values or not any(values):
        raise ValueError("gcd_all requires at least one nonzero value")
    return math.gcd(*(abs(v) for v in values))


# ---------------------------------------------------------------------------
# Exact feasibility: phase-1 simplex with Bland's rule


def feasible_point(
    rows: Sequence[Sequence[int]], rhs: Sequence[int], n: int
) -> list[Fraction] | None:
    """Find x in Q^n with row . x >= b for every (row, b) pair, or None.

    Free variables are split x = u - v; each inequality gets a slack; phase-1
    artificials are driven to zero with Bland's rule (guaranteed termination).

    The tableau is pivoted fraction-free (Edmonds 1967, Bareiss 1968): every
    row is kept as integers over one common positive determinant ``det``, the
    true tableau being the integer one divided by ``det``.  Each update
    divides exactly, so the pivots are those of the rational simplex and the
    point, returned as Fractions, is the same.
    """
    m = len(rows)
    if m == 0:
        return [Fraction(0)] * n
    # columns: u_1..u_n, v_1..v_n, s_1..s_m, a_1..a_m
    num_cols = 2 * n + 2 * m
    tableau: list[list[int]] = []
    basis: list[int] = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        # row.(u - v) - s_i = b, flipped to keep the right-hand side >= 0
        coeffs = [0] * (num_cols + 1)
        sign = 1 if b >= 0 else -1
        for j, c in enumerate(row):
            coeffs[j] = sign * c
            coeffs[n + j] = -sign * c
        coeffs[2 * n + i] = -sign
        coeffs[2 * n + m + i] = 1
        coeffs[num_cols] = abs(b)
        tableau.append(coeffs)
        basis.append(2 * n + m + i)
    # phase-1 objective: minimize the sum of artificials
    cost = [-sum(col) for col in zip(*tableau)]
    for j in range(2 * n + m, num_cols):
        cost[j] = 0
    in_basis = set(basis)
    det = 1

    while True:
        entering = next(
            (j for j in range(num_cols) if cost[j] < 0 and j not in in_basis), None
        )
        if entering is None:
            break
        # ratio test rhs_i / T[i][entering], cross-multiplied (both over det);
        # Bland tie-break on the leaving basic variable
        leaving = None
        best_num = best_den = 0
        for i, trow in enumerate(tableau):
            den = trow[entering]
            if den > 0:
                num = trow[num_cols]
                if leaving is None:
                    better = True
                else:
                    lhs, rhs_ = num * best_den, best_num * den
                    better = lhs < rhs_ or (lhs == rhs_ and basis[i] < basis[leaving])
                if better:
                    best_num, best_den, leaving = num, den, i
        if leaving is None:
            # unbounded in phase 1 cannot happen (objective bounded below by 0)
            raise RuntimeError("phase-1 simplex unbounded")
        det = _pivot(tableau, cost, leaving, entering, det)
        in_basis.discard(basis[leaving])
        in_basis.add(entering)
        basis[leaving] = entering

    if any(tableau[i][num_cols] for i in range(m) if basis[i] >= 2 * n + m):
        return None
    point = [0] * n
    for i, b in enumerate(basis):
        if b < n:
            point[b] += tableau[i][num_cols]
        elif b < 2 * n:
            point[b - n] -= tableau[i][num_cols]
    return [Fraction(v, det) for v in point]


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

    A row is an implicit equality iff {rows.x >= 0, row_i.x >= 1} is
    infeasible (scale-invariance makes the >= 1 normalization sound); the
    cone is full-dimensional iff no implicit equality exists.  The rows can
    all be made strict jointly iff each can individually (sum the individual
    witnesses), so one feasibility probe with every row at >= 1 decides it.
    """
    nonzero = [row for row in s.rows if any(row)]
    if not nonzero:
        basis = tuple(_unit(s.n, j) for j in range(s.n))
        return FullDimResult(True, basis, None)
    point = feasible_point(nonzero, [1] * len(nonzero), s.n)
    if point is not None:
        return FullDimResult(True, _basis_around(point, nonzero, s.n), None)
    # locate an implicit-equality row for the certificate
    for i, row in enumerate(nonzero):
        rhs = [0] * len(nonzero)
        rhs[i] = 1
        if feasible_point(nonzero, rhs, s.n) is None:
            return FullDimResult(False, None, normalize_row(row))
    raise RuntimeError("joint probe infeasible but no implicit-equality row found")


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
