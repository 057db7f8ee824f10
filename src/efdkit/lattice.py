"""Canonical AE-class representatives for the group and perfect-MV settings,
their lattices, the dual order on logic expansions, and axiom emission.

Prime sets use a finite/cofinite dual representation so the lattice has a
computable top chain element (all primes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetExceeded

__all__ = [
    "LatticeError",
    "is_prime",
    "prime_factors",
    "PrimeSet",
    "AEClass",
    "trivial_g",
    "divisible_g",
    "trivial_p",
    "boolean_p",
    "divisible_p",
    "includes",
    "meet",
    "join",
    "LogicExpansion",
    "AxiomSchema",
    "associated_class",
    "expansion_order",
    "emit_axioms",
]


class LatticeError(ValueError):
    pass


# Miller-Rabin with the first thirteen primes as bases is exact below this
# bound (Sorenson and Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; ValueError at or above _MR_BOUND unless a
    base divides p."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    if p >= _MR_BOUND:
        raise ValueError(f"primality of {p} is not decided at or above {_MR_BOUND}")
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d 2^s with d odd
    for b in _MR_BASES:
        x = pow(b, (p - 1) >> s, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


# Trial division tries no divisor above this bound.
_TRIAL_BOUND = 10**6


def prime_factors(k: int) -> frozenset[int]:
    """The primes dividing k, by trial division up to _TRIAL_BOUND that stops
    at a prime cofactor; BudgetExceeded when a cofactor is left that has no
    divisor up to the bound and is not provably prime."""
    if k < 1:
        raise ValueError("k must be >= 1")
    factors, d, rest = set(), 2, k
    while rest > 1:
        if rest < _MR_BOUND and is_prime(rest):
            d = rest
        else:
            d = next((e for e in range(d, _TRIAL_BOUND + 1) if rest % e == 0), None)
            if d is None:
                raise BudgetExceeded(
                    f"factoring k = {k}: the cofactor {rest} has no divisor up to "
                    f"{_TRIAL_BOUND} and is not provably prime"
                )
        factors.add(d)
        while rest % d == 0:
            rest //= d
    return frozenset(factors)


@dataclass(frozen=True)
class PrimeSet:
    """Either a finite set of primes or the complement of one."""

    kind: str  # "finite" or "cofinite"
    primes: frozenset[int]

    def __post_init__(self):
        if self.kind not in ("finite", "cofinite"):
            raise LatticeError(f"bad PrimeSet kind {self.kind!r}")
        for p in self.primes:
            if not is_prime(p):
                raise LatticeError(f"{p} is not prime")

    @staticmethod
    def finite(primes) -> "PrimeSet":
        return PrimeSet("finite", frozenset(primes))

    @staticmethod
    def cofinite(excluded) -> "PrimeSet":
        return PrimeSet("cofinite", frozenset(excluded))

    def contains(self, p: int) -> bool:
        return (p in self.primes) == (self.kind == "finite")

    def union(self, other: "PrimeSet") -> "PrimeSet":
        a, b = self, other
        if a.kind == "finite" and b.kind == "finite":
            return PrimeSet.finite(a.primes | b.primes)
        if a.kind == "cofinite" and b.kind == "cofinite":
            return PrimeSet.cofinite(a.primes & b.primes)
        fin, cof = (a, b) if a.kind == "finite" else (b, a)
        return PrimeSet.cofinite(cof.primes - fin.primes)

    def intersection(self, other: "PrimeSet") -> "PrimeSet":
        a, b = self, other
        if a.kind == "finite" and b.kind == "finite":
            return PrimeSet.finite(a.primes & b.primes)
        if a.kind == "cofinite" and b.kind == "cofinite":
            return PrimeSet.cofinite(a.primes | b.primes)
        fin, cof = (a, b) if a.kind == "finite" else (b, a)
        return PrimeSet.finite(fin.primes - cof.primes)

    def issubset(self, other: "PrimeSet") -> bool:
        a, b = self, other
        if a.kind == "finite" and b.kind == "finite":
            return a.primes <= b.primes
        if a.kind == "finite":
            return not (a.primes & b.primes)
        if b.kind == "finite":
            return False  # a cofinite set is infinite
        return b.primes <= a.primes


EMPTY_PRIMES = PrimeSet.finite(())
ALL_PRIMES = PrimeSet.cofinite(())


# ---------------------------------------------------------------------------
# AE-classes: family "G" (l-groups) has Trivial | Divisible;
# family "P" (perfect MV) adds Boolean between them.


@dataclass(frozen=True)
class AEClass:
    family: str  # "G" or "P"
    kind: str  # "trivial", "boolean", "divisible"
    primes: PrimeSet | None = None

    def __post_init__(self):
        if self.family not in ("G", "P"):
            raise LatticeError(f"bad family {self.family!r}")
        if self.kind == "boolean" and self.family != "P":
            raise LatticeError("the Boolean class exists only in the P family")
        if self.kind == "divisible" and self.primes is None:
            raise LatticeError("divisible class requires a prime set")
        if self.kind in ("trivial", "boolean") and self.primes is not None:
            raise LatticeError(f"{self.kind} class carries no prime set")
        if self.kind not in ("trivial", "boolean", "divisible"):
            raise LatticeError(f"bad class kind {self.kind!r}")


def trivial_g() -> AEClass:
    return AEClass("G", "trivial")


def divisible_g(primes: PrimeSet) -> AEClass:
    return AEClass("G", "divisible", primes)


def trivial_p() -> AEClass:
    return AEClass("P", "trivial")


def boolean_p() -> AEClass:
    return AEClass("P", "boolean")


def divisible_p(primes: PrimeSet) -> AEClass:
    return AEClass("P", "divisible", primes)


_RANK = {"trivial": 0, "boolean": 1, "divisible": 2}


def _check_family(c1: AEClass, c2: AEClass) -> None:
    if c1.family != c2.family:
        raise LatticeError(f"family mismatch: {c1.family} vs {c2.family}")


def includes(c1: AEClass, c2: AEClass) -> bool:
    """c1 is a subclass of c2: Trivial below all, Boolean (P) below every
    Divisible, Divisible(S1) below Divisible(S2) iff S2 is a subset of S1."""
    _check_family(c1, c2)
    if c1.kind != "divisible" or c2.kind != "divisible":
        return _RANK[c1.kind] <= _RANK[c2.kind] or c1 == c2
    return c2.primes.issubset(c1.primes)


def meet(c1: AEClass, c2: AEClass) -> AEClass:
    _check_family(c1, c2)
    if c1.kind == "divisible" and c2.kind == "divisible":
        return AEClass(c1.family, "divisible", c1.primes.union(c2.primes))
    low = c1 if _RANK[c1.kind] <= _RANK[c2.kind] else c2
    return low


def join(c1: AEClass, c2: AEClass) -> AEClass:
    _check_family(c1, c2)
    if c1.kind == "divisible" and c2.kind == "divisible":
        return AEClass(c1.family, "divisible", c1.primes.intersection(c2.primes))
    high = c1 if _RANK[c1.kind] >= _RANK[c2.kind] else c2
    return high


# ---------------------------------------------------------------------------
# Logic expansions: Bal^S over the G classes, L_P^S over the P classes.


@dataclass(frozen=True)
class LogicExpansion:
    base: str  # "bal" or "lp"
    primes: PrimeSet = field(default_factory=lambda: EMPTY_PRIMES)
    special: str | None = None  # None, "inconsistent", "classical"

    def __post_init__(self):
        if self.base not in ("bal", "lp"):
            raise LatticeError(f"bad base logic {self.base!r}")
        if self.special not in (None, "inconsistent", "classical"):
            raise LatticeError(f"bad special marker {self.special!r}")
        if self.special == "classical" and self.base != "lp":
            raise LatticeError("the classical expansion exists only over lp")


@dataclass(frozen=True)
class AxiomSchema:
    name: str
    formula: str
    fresh_symbols: tuple[str, ...]
    structured: dict
    note: str


def associated_class(e: LogicExpansion) -> AEClass:
    family = "G" if e.base == "bal" else "P"
    if e.special == "inconsistent":
        return AEClass(family, "trivial")
    if e.special == "classical":
        return boolean_p()
    return AEClass(family, "divisible", e.primes)


def expansion_order(e1: LogicExpansion, e2: LogicExpansion) -> str:
    """Morphism order, dual to class inclusion.

    Returns "equipollent" when the associated classes are equal,
    "morphism-exists" when a translation e1 -> e2 exists (the class of e2 is
    strictly included in the class of e1), and "incomparable" otherwise.
    A reverse-only morphism shows up by swapping the arguments.
    """
    if e1.base != e2.base:
        raise LatticeError(f"base mismatch: {e1.base} vs {e2.base}")
    c1 = associated_class(e1)
    c2 = associated_class(e2)
    if c1 == c2:
        return "equipollent"
    if includes(c2, c1):
        return "morphism-exists"
    return "incomparable"


def _dp(p: int) -> str:
    return f"d{p}"


def emit_axioms(e: LogicExpansion) -> list[AxiomSchema]:
    """A_p axioms for Bal expansions, D_p axioms for lp expansions.

    Each schema introduces a fresh unary symbol d_p; the matching uniqueness
    rule is derivable in the base logic, so only the existence axiom is
    emitted.
    """
    if e.special is not None:
        raise LatticeError("special expansions carry no finite axiom list")
    if e.primes.kind != "finite":
        raise LatticeError("cofinite prime sets have no finite axiom list")
    note = "the corresponding uniqueness rule is derivable in the base logic"
    schemas = []
    for p in sorted(e.primes.primes):
        d = _dp(p)
        if e.base == "bal":
            formula = f"x -> {p} {d}(x)"
            structured = {
                "connective": "->",
                "left": {"op": "var", "name": "x"},
                "right": {"op": "scalar", "k": p, "arg": {"op": "app", "symbol": d, "arg": {"op": "var", "name": "x"}}},
            }
            schemas.append(AxiomSchema(f"A_{p}", formula, (d,), structured, note))
        else:
            dx = {"op": "app", "symbol": d, "arg": {"op": "var", "name": "x"}}
            formula = f"(({p} {d}(x) /\\ ~2 {d}(x)^2) \\/ {d}(x)^{p}) <-> x"
            structured = {
                "connective": "<->",
                "left": {
                    "op": "join",
                    "left": {
                        "op": "meet",
                        "left": {"op": "scalar", "k": p, "arg": dx},
                        "right": {"op": "mvneg", "arg": {"op": "scalar", "k": 2, "arg": {"op": "power", "k": 2, "arg": dx}}},
                    },
                    "right": {"op": "power", "k": p, "arg": dx},
                },
                "right": {"op": "var", "name": "x"},
            }
            schemas.append(AxiomSchema(f"D_{p}", formula, (d,), structured, note))
    return schemas
