"""Piecewise-linear canonical forms of l-group terms, reduction of
delta_{k,t} to delta_{k'}, and classification of supported sentence sets
into canonical AE-classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .geometry import (
    IneqSystem,
    LinearForm,
    feasible_point,
    gcd_all,
    normalize_row,
)
from .lattice import AEClass, PrimeSet, divisible_g, prime_factors, trivial_g
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
    Zero,
    max_index,
)

__all__ = [
    "CapExceeded",
    "FragmentError",
    "PiecewiseLinear",
    "DeltaKT",
    "ABSURD",
    "LatLeaf",
    "LatJoin",
    "LatMeet",
    "LatticeTerm",
    "distribute_to_lattice_normal",
    "collect_forms",
    "piecewise_canonical",
    "evaluate_piecewise",
    "reduce_delta_kt",
    "classify_group_sentences",
    "sentence_to_delta_kt",
    "delta_equivalent",
    "DEFAULT_FORM_CAP",
]

DEFAULT_FORM_CAP = 8

ABSURD = "absurd"  # explicit marker producing the Trivial class


class CapExceeded(ValueError):
    pass


class FragmentError(ValueError):
    pass


@dataclass(frozen=True)
class PiecewiseLinear:
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


@dataclass(frozen=True)
class DeltaKT:
    """delta_{k,t}: forall x-bar exists! z with k z = t(x-bar)."""

    k: int
    t: Term  # group term over x-variables only

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if max_index(self.t, "z"):
            raise FragmentError("delta_{k,t} requires t over x-variables only")


@dataclass(frozen=True)
class LatLeaf:
    form: LinearForm


@dataclass(frozen=True)
class LatJoin:
    left: "LatticeTerm"
    right: "LatticeTerm"


@dataclass(frozen=True)
class LatMeet:
    left: "LatticeTerm"
    right: "LatticeTerm"


LatticeTerm = Union[LatLeaf, LatJoin, LatMeet]


# ---------------------------------------------------------------------------
# Lattice normal form: push +, -, scalars through \/ and /\


def distribute_to_lattice_normal(t: Term, n: int | None = None) -> LatticeTerm:
    """Rewrite a group term over x-variables as a pure join/meet term whose
    leaves are integer linear forms."""
    if n is None:
        n = max_index(t, "x")
    return _normal(t, n)


def _normal(t: Term, n: int) -> LatticeTerm:
    if isinstance(t, Var):
        if t.kind != "x":
            raise SignatureError("canonical forms take terms over x-variables only")
        return LatLeaf(tuple(1 if i == t.index else 0 for i in range(1, n + 1)))
    if isinstance(t, Zero):
        return LatLeaf((0,) * n)
    if isinstance(t, Plus):
        return _lat_add(_normal(t.left, n), _normal(t.right, n))
    if isinstance(t, Neg):
        return _lat_neg(_normal(t.arg, n))
    if isinstance(t, Join):
        return LatJoin(_normal(t.left, n), _normal(t.right, n))
    if isinstance(t, Meet):
        return LatMeet(_normal(t.left, n), _normal(t.right, n))
    if isinstance(t, Scalar):
        return _lat_scale(_normal(t.arg, n), t.k, n)
    if isinstance(t, Diff):
        raise SignatureError("monus is not a group operation")
    raise SignatureError(f"{type(t).__name__} not admitted in group terms")


def _lat_add(a: LatticeTerm, b: LatticeTerm) -> LatticeTerm:
    # addition distributes over join and meet in l-groups
    if isinstance(a, LatLeaf) and isinstance(b, LatLeaf):
        return LatLeaf(tuple(x + y for x, y in zip(a.form, b.form)))
    if isinstance(a, (LatJoin, LatMeet)):
        return type(a)(_lat_add(a.left, b), _lat_add(a.right, b))
    return type(b)(_lat_add(a, b.left), _lat_add(a, b.right))


def _lat_neg(a: LatticeTerm) -> LatticeTerm:
    if isinstance(a, LatLeaf):
        return LatLeaf(tuple(-c for c in a.form))
    swapped = LatMeet if isinstance(a, LatJoin) else LatJoin
    return swapped(_lat_neg(a.left), _lat_neg(a.right))


def _lat_scale(a: LatticeTerm, k: int, n: int) -> LatticeTerm:
    if k == 0:
        return LatLeaf((0,) * n)
    if k < 0:
        return _lat_neg(_lat_scale(a, -k, n))
    if isinstance(a, LatLeaf):
        return LatLeaf(tuple(k * c for c in a.form))
    return type(a)(_lat_scale(a.left, k, n), _lat_scale(a.right, k, n))


def collect_forms(lt: LatticeTerm) -> list[LinearForm]:
    """Distinct leaf forms in first-occurrence order."""
    forms: list[LinearForm] = []
    def walk(node):
        if isinstance(node, LatLeaf):
            if node.form not in forms:
                forms.append(node.form)
        else:
            walk(node.left)
            walk(node.right)
    walk(lt)
    return forms


# ---------------------------------------------------------------------------
# Piecewise canonical form


def piecewise_canonical(
    t: Term, n: int | None = None, cap: int = DEFAULT_FORM_CAP
) -> PiecewiseLinear:
    """Cells of t, refined bottom-up over its lattice normal form.

    A leaf is one cell, the whole space with its form.  A join or meet
    intersects every cell of its left child with every cell of its right
    child and keeps the full-dimensional intersections; where the two forms
    f and g differ, the row r = f - g splits the intersection into r >= 0
    and -r >= 0, each half taking the larger form under a join and the
    smaller under a meet.  Every cell is a full-dimensional cone on which t
    is the cell's form, and the cells cover Q^n.

    Each full-dimensionality verdict is one LP, the joint interior probe of
    is_full_dimensional (cell rows are never zero), memoised on the row set
    for this call.  No LP is spent where the answer is known: a row set
    that contains the other child's is already a cell, a half whose row is
    already present is the whole intersection, and a half holding both r
    and -r is a hyperplane.
    """
    if n is None:
        n = max_index(t, "x")
    lt = distribute_to_lattice_normal(t, n)
    forms = collect_forms(lt)
    if len(forms) > cap:
        raise CapExceeded(f"{len(forms)} distinct linear forms exceed the cap {cap}")

    verdicts: dict[frozenset, bool] = {}

    def full_dim(rows: tuple[LinearForm, ...]) -> bool:
        key = frozenset(rows)
        if key not in verdicts:
            verdicts[key] = feasible_point(rows, [1] * len(rows), n) is not None
        return verdicts[key]

    def cells(node: LatticeTerm) -> list[tuple[tuple[LinearForm, ...], LinearForm]]:
        if isinstance(node, LatLeaf):
            return [((), node.form)]
        join = isinstance(node, LatJoin)
        out = []
        right = cells(node.right)
        for rows1, f in cells(node.left):
            for rows2, g in right:
                rows = rows1 + tuple(r for r in rows2 if r not in rows1)
                # unless one row set contains the other, the union is new
                if len(rows) not in (len(rows1), len(rows2)) and not full_dim(rows):
                    continue
                if f == g:
                    out.append((rows, f))
                    continue
                r = normalize_row(tuple(a - b for a, b in zip(f, g)))
                neg = tuple(-c for c in r)
                # on r >= 0, f >= g
                halves = ((r, neg, f if join else g), (neg, r, g if join else f))
                for row, opposite, form in halves:
                    if row in rows:
                        out.append((rows, form))
                    elif opposite not in rows and full_dim(rows + (row,)):
                        out.append((rows + (row,), form))
        return out

    return PiecewiseLinear(
        n, tuple((IneqSystem(n, rows), form) for rows, form in cells(lt))
    )


def evaluate_piecewise(pw: PiecewiseLinear, point) -> object:
    """Value of the first piece whose region contains the point."""
    for region, form in pw.pieces:
        if region.contains(point):
            return sum(c * p for c, p in zip(form, point))
    raise ValueError(f"no piece covers {point!r}")


# ---------------------------------------------------------------------------
# Reduction and classification


def reduce_delta_kt(d: DeltaKT, cap: int = DEFAULT_FORM_CAP) -> int:
    """k' with delta_{k,t} equivalent to delta_{k'} over l-groups:
    divide k by gcd({k} union all piece coefficients)."""
    pw = piecewise_canonical(d.t, cap=cap)
    coeffs = [c for _, form in pw.pieces for c in form]
    g = gcd_all([d.k] + coeffs)
    return d.k // math.gcd(d.k, g)


def sentence_to_delta_kt(phi: EFDSentence) -> DeltaKT:
    """Recognize a group sentence of the shape forall x-bar exists! z1 with
    k z1 = t(x-bar), k z1 possibly spelled as a sum of multiples of z1."""
    if phi.signature is not Signature.GROUP:
        raise FragmentError("delta_{k,t} recognition expects a group sentence")
    if phi.m != 1 or len(phi.equations) != 1:
        raise FragmentError("supported fragment: single equation, single z-variable")
    lhs, rhs = phi.equations[0]
    for a, b in ((lhs, rhs), (rhs, lhs)):
        k = _kz1(a)
        if k is not None and max_index(b, "z") == 0:
            return DeltaKT(k, b)
    raise FragmentError(
        "supported fragment: one side must be k z1 with the other z-free"
    )


def _kz1(t: Term) -> int | None:
    """Multiplicity when t is z1, k z1, or a sum of such."""
    if isinstance(t, Var) and t.kind == "z" and t.index == 1:
        return 1
    if isinstance(t, Scalar) and t.k >= 1:
        inner = _kz1(t.arg)
        return t.k * inner if inner is not None else None
    if isinstance(t, Plus):
        left = _kz1(t.left)
        right = _kz1(t.right)
        if left is not None and right is not None:
            return left + right
    return None


def classify_group_sentences(
    sentences, cap: int = DEFAULT_FORM_CAP
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
        if isinstance(item, EFDSentence):
            item = sentence_to_delta_kt(item)
        if not isinstance(item, DeltaKT):
            raise FragmentError(f"unsupported classification input {item!r}")
        primes |= prime_factors(reduce_delta_kt(item, cap=cap))
    return divisible_g(PrimeSet.finite(primes))


def delta_equivalent(k1: int, k2: int) -> bool:
    """delta_{k1} and delta_{k2} axiomatize the same class iff the prime
    supports coincide."""
    if k1 < 1 or k2 < 1:
        raise ValueError("k must be >= 1")
    return prime_factors(k1) == prime_factors(k2)
