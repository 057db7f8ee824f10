"""Canonical AE-class representatives for the group and perfect-MV settings,
their lattices, the dual order on logic expansions, and axiom emission.

Prime sets use a finite/cofinite dual representation so the lattice has a
computable top chain element (all primes).
"""

from __future__ import annotations

from .errors import BudgetExceeded
from .record import Record
from .terms import Scalar, Term, Var, _json_node, build_t_k, fold, parse_integer, zvar

__all__ = [
    "LatticeError",
    "is_prime",
    "prime_factors",
    "PrimeSet",
    "parse_primes",
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


class PrimeSet(Record):
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

    def complement(self) -> "PrimeSet":
        return _derived("cofinite" if self.kind == "finite" else "finite", self.primes)

    def intersection(self, other: "PrimeSet") -> "PrimeSet":
        a, b = self, other
        if a.kind == "finite" and b.kind == "finite":
            return _derived("finite", a.primes & b.primes)
        if a.kind == "cofinite" and b.kind == "cofinite":
            return _derived("cofinite", a.primes | b.primes)
        fin, cof = (a, b) if a.kind == "finite" else (b, a)
        return _derived("finite", fin.primes - cof.primes)

    def union(self, other: "PrimeSet") -> "PrimeSet":
        return self.complement().intersection(other.complement()).complement()

    def issubset(self, other: "PrimeSet") -> bool:
        # a finite set and a cofinite one are never equal, so each set has one spelling
        return self.intersection(other.complement()) == EMPTY_PRIMES


def _derived(kind: str, primes: frozenset[int]) -> PrimeSet:
    """A PrimeSet of primes drawn from sets already built, so already
    tested: built without __post_init__'s Miller-Rabin test."""
    s = object.__new__(PrimeSet)
    object.__setattr__(s, "kind", kind)
    object.__setattr__(s, "primes", primes)
    return s


EMPTY_PRIMES = PrimeSet.finite(())
ALL_PRIMES = PrimeSet.cofinite(())


def parse_primes(text: str) -> frozenset[int]:
    """The integers of a comma-separated prime list (--primes, class and
    expansion specs, qs:), each checked to be prime where it is used."""
    if not text.strip():
        return frozenset()
    return frozenset(parse_integer(p, f"prime {p.strip()!r} is not an integer")
                     for p in text.split(","))


# ---------------------------------------------------------------------------
# AE-classes: family "G" (l-groups) has Trivial | Divisible;
# family "P" (perfect MV) adds Boolean between them.


class AEClass(Record):
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


def _bound(c1: AEClass, c2: AEClass, combine, pick) -> AEClass:
    """The divisible class of the two classes' prime sets combined, else
    the class that pick (min or max) takes by rank."""
    if c1.family != c2.family:
        raise LatticeError(f"family mismatch: {c1.family} vs {c2.family}")
    if c1.kind == "divisible" and c2.kind == "divisible":
        return AEClass(c1.family, "divisible", combine(c1.primes, c2.primes))
    return pick(c1, c2, key=lambda c: _RANK[c.kind])


def meet(c1: AEClass, c2: AEClass) -> AEClass:
    return _bound(c1, c2, PrimeSet.union, min)


def join(c1: AEClass, c2: AEClass) -> AEClass:
    return _bound(c1, c2, PrimeSet.intersection, max)


def includes(c1: AEClass, c2: AEClass) -> bool:
    """c1 is a subclass of c2: Trivial below all, Boolean (P) below every
    Divisible, Divisible(S1) below Divisible(S2) iff S2 is a subset of S1."""
    return meet(c1, c2) == c1


# ---------------------------------------------------------------------------
# Logic expansions: Bal^S over the G classes, L_P^S over the P classes.


class LogicExpansion(Record):
    base: str  # "bal" or "lp"
    primes: PrimeSet = EMPTY_PRIMES
    special: str | None = None  # None, "inconsistent", "classical"

    def __post_init__(self):
        if self.base not in ("bal", "lp"):
            raise LatticeError(f"bad base logic {self.base!r}")
        if self.special not in (None, "inconsistent", "classical"):
            raise LatticeError(f"bad special marker {self.special!r}")
        if self.special == "classical" and self.base != "lp":
            raise LatticeError("the classical expansion exists only over lp")


class AxiomSchema(Record):
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


def _structured(t: Term, dx: dict) -> dict:
    """The JSON tree of t, with its variable z1 standing for dx."""
    return fold(t, lambda node, *kids: dx if type(node) is Var else _json_node(node, *kids))


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
    x = {"op": "var", "name": "x"}
    schemas = []
    for p in sorted(e.primes.primes):
        d = _dp(p)
        dx = {"op": "app", "symbol": d, "arg": x}
        if e.base == "bal":
            formula = f"x -> {p} {d}(x)"
            structured = {"connective": "->", "left": x, "right": _structured(Scalar(p, zvar(1)), dx)}
            schemas.append(AxiomSchema(f"A_{p}", formula, (d,), structured, note))
        else:
            formula = f"(({p} {d}(x) /\\ ~2 {d}(x)^2) \\/ {d}(x)^{p}) <-> x"
            structured = {"connective": "<->", "left": _structured(build_t_k(p), dx), "right": x}
            schemas.append(AxiomSchema(f"D_{p}", formula, (d,), structured, note))
    return schemas
