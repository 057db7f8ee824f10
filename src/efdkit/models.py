"""Computable witness algebras with exact term evaluation and exact or
sampled sentence checking.

Group models carry numbers (or lex pairs of numbers), the positive cone
carries nonnegative numbers, Gamma models carry pairs (i, q) with i in {0,1}
and q >= 0 when i = 0, q <= 0 when i = 1; TwoMV carries bits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .lattice import PrimeSet, is_prime, prime_factors
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
    UniquenessRule,
    Var,
    Zero,
    free_vars,
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
    "gamma_unit",
    "gamma_div",
    "holds_delta_exact",
    "holds_epsilon_exact",
    "qs_member",
    "sample_elements",
    "Verdict",
    "check_sentence_sampled",
    "solutions_for_assignment",
    "candidate_pool",
    "check_efd_exhaustive",
    "check_uniqueness_exhaustive",
    "check_uniqueness_sampled",
    "parse_model",
    "model_name",
    "parse_element",
    "format_element",
]


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class IntegerGroup:
    pass


@dataclass(frozen=True)
class RationalGroup:
    pass


@dataclass(frozen=True)
class LocalizedRationals:
    primes: frozenset[int]

    def __post_init__(self):
        for p in self.primes:
            if not is_prime(p):
                raise ModelError(f"{p} is not prime")


@dataclass(frozen=True)
class LexProduct:
    left: "WitnessAlgebra"
    right: "WitnessAlgebra"


@dataclass(frozen=True)
class PositiveCone:
    inner: "WitnessAlgebra"


@dataclass(frozen=True)
class GammaPerfect:
    """Gamma of (Z lex inner) with unit (1, 0)."""

    inner: "WitnessAlgebra"


@dataclass(frozen=True)
class TwoMV:
    pass


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
            raise ModelError(f"{e!r} is not an integer")
    elif isinstance(a, RationalGroup):
        if not isinstance(e, (int, Fraction)):
            raise ModelError(f"{e!r} is not a rational")
    elif isinstance(a, LocalizedRationals):
        if not isinstance(e, (int, Fraction)) or not qs_member(Fraction(e), a.primes):
            raise ModelError(f"{e!r} is not in Q_S for S={sorted(a.primes)}")
    elif isinstance(a, LexProduct):
        if not (isinstance(e, tuple) and len(e) == 2):
            raise ModelError(f"{e!r} is not a lex pair")
        check_element(a.left, e[0])
        check_element(a.right, e[1])
    elif isinstance(a, PositiveCone):
        check_element(a.inner, e)
        if _glt(a.inner, e, _gzero(a.inner)):
            raise ModelError(f"{e!r} is negative")
    elif isinstance(a, GammaPerfect):
        if not (isinstance(e, tuple) and len(e) == 2 and e[0] in (0, 1)):
            raise ModelError(f"{e!r} is not a Gamma pair")
        check_element(a.inner, e[1])
        zero = _gzero(a.inner)
        if e[0] == 0 and _glt(a.inner, e[1], zero):
            raise ModelError(f"{e!r} has a negative part on the radical side")
        if e[0] == 1 and _glt(a.inner, zero, e[1]):
            raise ModelError(f"{e!r} has a positive part on the co-radical side")
    elif isinstance(a, TwoMV):
        if e not in (0, 1):
            raise ModelError(f"{e!r} is not a bit")
    else:
        raise ModelError(f"not a witness algebra: {a!r}")


# ---------------------------------------------------------------------------
# Group arithmetic (scalar values or nested lex pairs)


def _gzero(a):
    if isinstance(a, LexProduct):
        return (_gzero(a.left), _gzero(a.right))
    return Fraction(0)


def _gadd(a, u, v):
    if isinstance(a, LexProduct):
        return (_gadd(a.left, u[0], v[0]), _gadd(a.right, u[1], v[1]))
    return u + v


def _gneg(a, u):
    if isinstance(a, LexProduct):
        return (_gneg(a.left, u[0]), _gneg(a.right, u[1]))
    return -u


def _glt(a, u, v) -> bool:
    if isinstance(a, LexProduct):
        if _glt(a.left, u[0], v[0]):
            return True
        if _glt(a.left, v[0], u[0]):
            return False
        return _glt(a.right, u[1], v[1])
    return u < v


def _gmax(a, u, v):
    return v if _glt(a, u, v) else u


def _gmin(a, u, v):
    return u if _glt(a, u, v) else v


def _gscale(a, k: int, u):
    if isinstance(a, LexProduct):
        return (_gscale(a.left, k, u[0]), _gscale(a.right, k, u[1]))
    return k * u


# ---------------------------------------------------------------------------
# MV arithmetic on Gamma models: elements (i, q) of Gamma(Z lex inner, (1,0))


def gamma_unit(a: GammaPerfect):
    return (1, _gzero(a.inner))


def _lex_le(a: GammaPerfect, u, v) -> bool:
    return u[0] < v[0] or (u[0] == v[0] and not _glt(a.inner, v[1], u[1]))


def _gamma_clamp(a: GammaPerfect, i: int, q):
    zero = (0, _gzero(a.inner))
    unit = gamma_unit(a)
    cand = (i, q)
    if _lex_le(a, unit, cand):
        return unit
    if _lex_le(a, cand, zero):
        return zero
    return cand


def _gamma_add(a: GammaPerfect, u, v):
    return _gamma_clamp(a, u[0] + v[0], _gadd(a.inner, u[1], v[1]))


def _gamma_neg(a: GammaPerfect, u):
    return (1 - u[0], _gneg(a.inner, u[1]))


def _gamma_monus(a: GammaPerfect, u, v):
    # u -. v = (u - v) \/ 0 inside the unit interval
    return _gamma_clamp(a, u[0] - v[0], _gadd(a.inner, u[1], _gneg(a.inner, v[1])))


def _gamma_scale(a: GammaPerfect, k: int, u):
    # k u = min(1, k u) for k >= 0: the partial sums of u >= 0 only grow
    return _gamma_clamp(a, k * u[0], _gscale(a.inner, k, u[1]))


# ---------------------------------------------------------------------------
# Term evaluation


def eval_term(a: WitnessAlgebra, t: Term, assignment: dict) -> object:
    """Exact evaluation of t in a under a total assignment keyed by Var."""
    sp = species(a)
    if sp is Signature.GROUP:
        return _eval_group(a, t, assignment)
    if sp is Signature.HOOP:
        return _eval_hoop(a, t, assignment)
    if isinstance(a, TwoMV):
        return _eval_two(t, assignment)
    return _eval_gamma(a, t, assignment)


def _lookup(t: Var, assignment: dict):
    try:
        return assignment[t]
    except KeyError:
        raise ModelError(f"assignment missing {t.kind}{t.index}") from None


def _eval_group(a, t, env):
    if isinstance(t, Var):
        return _lookup(t, env)
    if isinstance(t, Zero):
        return _gzero(a)
    if isinstance(t, Plus):
        return _gadd(a, _eval_group(a, t.left, env), _eval_group(a, t.right, env))
    if isinstance(t, Neg):
        return _gneg(a, _eval_group(a, t.arg, env))
    if isinstance(t, Join):
        return _gmax(a, _eval_group(a, t.left, env), _eval_group(a, t.right, env))
    if isinstance(t, Meet):
        return _gmin(a, _eval_group(a, t.left, env), _eval_group(a, t.right, env))
    if isinstance(t, Scalar):
        return _gscale(a, t.k, _eval_group(a, t.arg, env))
    raise ModelError(f"{type(t).__name__} not evaluable in a group model")


def _eval_hoop(a: PositiveCone, t, env):
    g = a.inner
    if isinstance(t, Var):
        return _lookup(t, env)
    if isinstance(t, Zero):
        return _gzero(g)
    if isinstance(t, Plus):
        return _gadd(g, _eval_hoop(a, t.left, env), _eval_hoop(a, t.right, env))
    if isinstance(t, Diff):
        diff = _gadd(g, _eval_hoop(a, t.left, env), _gneg(g, _eval_hoop(a, t.right, env)))
        return _gmax(g, diff, _gzero(g))
    if isinstance(t, Scalar):
        if t.k < 0:
            raise ModelError("negative scalar in a hoop term")
        return _gscale(g, t.k, _eval_hoop(a, t.arg, env))
    if isinstance(t, Join):
        return _gmax(g, _eval_hoop(a, t.left, env), _eval_hoop(a, t.right, env))
    if isinstance(t, Meet):
        return _gmin(g, _eval_hoop(a, t.left, env), _eval_hoop(a, t.right, env))
    raise ModelError(f"{type(t).__name__} not evaluable in a hoop model")


def _eval_two(t, env):
    if isinstance(t, Var):
        return _lookup(t, env)
    if isinstance(t, Zero):
        return 0
    if isinstance(t, Plus):
        return min(1, _eval_two(t.left, env) + _eval_two(t.right, env))
    if isinstance(t, MVNeg):
        return 1 - _eval_two(t.arg, env)
    if isinstance(t, Join):
        return max(_eval_two(t.left, env), _eval_two(t.right, env))
    if isinstance(t, Meet):
        return min(_eval_two(t.left, env), _eval_two(t.right, env))
    if isinstance(t, Diff):
        return max(0, _eval_two(t.left, env) - _eval_two(t.right, env))
    if isinstance(t, Scalar):
        if t.k < 0:
            raise ModelError("negative scalar in an MV term")
        return min(1, t.k * _eval_two(t.arg, env))
    if isinstance(t, Power):
        v = _eval_two(t.arg, env)
        return v  # bits are idempotent under *
    raise ModelError(f"{type(t).__name__} not evaluable in TwoMV")


def _eval_gamma(a: GammaPerfect, t, env):
    if isinstance(t, Var):
        return _lookup(t, env)
    if isinstance(t, Zero):
        return (0, _gzero(a.inner))
    if isinstance(t, Plus):
        return _gamma_add(a, _eval_gamma(a, t.left, env), _eval_gamma(a, t.right, env))
    if isinstance(t, MVNeg):
        return _gamma_neg(a, _eval_gamma(a, t.arg, env))
    if isinstance(t, Join):
        u = _eval_gamma(a, t.left, env)
        v = _eval_gamma(a, t.right, env)
        return v if _lex_le(a, u, v) else u
    if isinstance(t, Meet):
        u = _eval_gamma(a, t.left, env)
        v = _eval_gamma(a, t.right, env)
        return u if _lex_le(a, u, v) else v
    if isinstance(t, Diff):
        return _gamma_monus(a, _eval_gamma(a, t.left, env), _eval_gamma(a, t.right, env))
    if isinstance(t, Scalar):
        if t.k < 0:
            raise ModelError("negative scalar in an MV term")
        return _gamma_scale(a, t.k, _eval_gamma(a, t.arg, env))
    if isinstance(t, Power):
        # x^k = ~(k ~x); the parser and validate_term keep k >= 1
        v = _eval_gamma(a, t.arg, env)
        return _gamma_neg(a, _gamma_scale(a, t.k, _gamma_neg(a, v)))
    raise ModelError(f"{type(t).__name__} not evaluable in a Gamma model")


def radical_member(a: GammaPerfect | TwoMV, e) -> bool:
    """e is in the radical iff e * e = 0."""
    check_element(a, e)
    if isinstance(a, TwoMV):
        return e == 0
    return _gamma_scale(a, 2, _gamma_neg(a, e)) == gamma_unit(a)  # e * e = ~(2 ~e)


def gamma_div(a: GammaPerfect, e, k: int):
    """The element whose k-fold t_k image is e, i.e. (i, q/k), or None when
    the division leaves the inner group."""
    check_element(a, e)
    if not isinstance(a.inner, _GROUPS) or isinstance(a.inner, LexProduct):
        raise ModelError("gamma_div supports scalar inner groups only")
    q = Fraction(e[1]) / k
    cand = (e[0], q)
    try:
        check_element(a, cand)
    except ModelError:
        return None
    return cand


# ---------------------------------------------------------------------------
# Exact sentence decisions


def holds_delta_exact(a, k: int) -> bool:
    """delta_k: Q always, Z only for k = 1, Q_S iff primes(k) lie in S."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if isinstance(a, RationalGroup):
        return True
    if isinstance(a, IntegerGroup):
        return k == 1
    if isinstance(a, LocalizedRationals):
        return prime_factors(k) <= a.primes
    raise ModelError(f"no exact delta_k decision for {a!r}")


def holds_epsilon_exact(a: GammaPerfect, k: int) -> bool:
    """epsilon_k on a Gamma model reduces to delta_k on the inner group."""
    if not isinstance(a, GammaPerfect):
        raise ModelError("holds_epsilon_exact expects a Gamma model")
    return holds_delta_exact(a.inner, k)


# ---------------------------------------------------------------------------
# Sampling


def sample_elements(a: WitnessAlgebra, count: int, seed: int, cap: int = 12) -> list:
    rng = random.Random(seed)
    return [_sample_one(a, rng, cap) for _ in range(count)]


def _sample_one(a, rng: random.Random, cap: int):
    if isinstance(a, IntegerGroup):
        return Fraction(rng.randint(-cap, cap))
    if isinstance(a, RationalGroup):
        return Fraction(rng.randint(-cap, cap), rng.randint(1, cap))
    if isinstance(a, LocalizedRationals):
        den = 1
        for p in a.primes:
            den *= p ** rng.randint(0, 2)
        return Fraction(rng.randint(-cap, cap), den)
    if isinstance(a, LexProduct):
        return (_sample_one(a.left, rng, cap), _sample_one(a.right, rng, cap))
    if isinstance(a, PositiveCone):
        v = _sample_one(a.inner, rng, cap)
        return _gmax(a.inner, v, _gneg(a.inner, v))
    if isinstance(a, GammaPerfect):
        v = _sample_one(a.inner, rng, cap)
        mag = _gmax(a.inner, v, _gneg(a.inner, v))
        if rng.random() < 0.5:
            return (0, mag)
        return (1, _gneg(a.inner, mag))
    if isinstance(a, TwoMV):
        return rng.randint(0, 1)
    raise ModelError(f"not a witness algebra: {a!r}")


# ---------------------------------------------------------------------------
# Sentence checking


@dataclass(frozen=True)
class Verdict:
    status: str  # "consistent-on-sample" or "falsified"
    exact: bool  # True when every per-sample decision used the exact solver
    witness: object = None
    detail: str = ""

    def to_json(self):
        return {
            "status": self.status,
            "confidence": "exact" if self.exact else "sampled",
            "witness": repr(self.witness) if self.witness is not None else None,
            "detail": self.detail,
        }


def _linear_part(a, t: Term, env: dict):
    """Read t as sum(coeff_j * z_j) + constant for the fixed x-assignment.

    Returns (coeffs: dict[int,int], constant) or None when a z-variable
    sits under a lattice or negation-incompatible operation.
    """
    if isinstance(t, Var):
        if t.kind == "z":
            return ({t.index: 1}, _gzero(a))
        return ({}, _lookup(t, env))
    if isinstance(t, Zero):
        return ({}, _gzero(a))
    if isinstance(t, Plus):
        lp = _linear_part(a, t.left, env)
        rp = _linear_part(a, t.right, env)
        if lp is None or rp is None:
            return None
        coeffs = dict(lp[0])
        for j, c in rp[0].items():
            coeffs[j] = coeffs.get(j, 0) + c
        return (coeffs, _gadd(a, lp[1], rp[1]))
    if isinstance(t, Neg):
        p = _linear_part(a, t.arg, env)
        if p is None:
            return None
        return ({j: -c for j, c in p[0].items()}, _gneg(a, p[1]))
    if isinstance(t, Scalar):
        p = _linear_part(a, t.arg, env)
        if p is None:
            return None
        return ({j: t.k * c for j, c in p[0].items()}, _gscale(a, t.k, p[1]))
    if isinstance(t, (Join, Meet)):
        if any(v.kind == "z" for v in free_vars(t)):
            return None
        return ({}, _eval_group(a, t, env))
    return None


def _solve_linear_single(a, rows: list[tuple[dict, object]]):
    """Solve the stacked one-variable system {c * z + b = 0}; returns
    ("unique", z) / ("none", None) / ("all", None)."""
    zero = _gzero(a)
    candidate = None
    for coeffs, const in rows:
        c = coeffs.get(1, 0)
        if c == 0:
            if const != zero:
                return ("none", None)
            continue
        z = _gdiv_exact(a, _gneg(a, const), c)
        if z is None:
            return ("none", None)
        if candidate is None:
            candidate = z
        elif candidate != z:
            return ("none", None)
    if candidate is None:
        return ("all", None)
    return ("unique", candidate)


def _gdiv_exact(a, value, c: int):
    """value / c inside the group, or None when it leaves the universe."""
    if isinstance(a, LexProduct):
        left = _gdiv_exact(a.left, value[0], c)
        right = _gdiv_exact(a.right, value[1], c)
        if left is None or right is None:
            return None
        return (left, right)
    q = Fraction(value) / c
    try:
        check_element(a, q)
    except ModelError:
        return None
    return q


def candidate_pool(a, xvals: list, cap: int = 12) -> list:
    """Structured z-candidates derived from an x-assignment: zero, the x
    values, their small integer divisions, and MV negations where defined."""
    out = []
    if isinstance(a, TwoMV):
        return [0, 1]
    if isinstance(a, GammaPerfect):
        rationals = {Fraction(0)}
        for (_, q) in xvals:
            for d in range(1, cap + 1):
                rationals.add(abs(Fraction(q)) / d)
        for q in sorted(rationals):
            for e in ((0, q), (1, -q)):
                try:
                    check_element(a, e)
                except ModelError:
                    continue
                if e not in out:
                    out.append(e)
        return out
    values = {_gzero(a if not isinstance(a, PositiveCone) else a.inner)}
    inner = a.inner if isinstance(a, PositiveCone) else a
    for v in xvals:
        for d in range(1, cap + 1):
            w = _gdiv_exact(inner, v, d)
            if w is not None:
                values.add(w)
                values.add(_gneg(inner, w))
    out = [v for v in sorted(values) if _element_ok(a, v)]
    return out


def _element_ok(a, e) -> bool:
    try:
        check_element(a, e)
    except ModelError:
        return False
    return True


def solutions_for_assignment(
    a, phi: EFDSentence, xassign: dict, cap: int = 12, max_solutions: int = 2
):
    """Solutions z-bar of phi's equations at a fixed x-assignment.

    Returns (solutions, exact): exact is True when the answer is complete
    (exhaustive domain or exact linear solve), False for candidate search.
    """
    if isinstance(a, TwoMV):
        sols = []
        for bits in _tuples((0, 1), phi.m):
            env = dict(xassign)
            for j, b in enumerate(bits, start=1):
                env[Var("z", j)] = b
            if _holds_all(a, phi, env):
                sols.append(bits)
        return sols, True
    if species(a) is Signature.GROUP and phi.m == 1:
        rows = []
        linear = True
        for lhs, rhs in phi.equations:
            lp = _linear_part(a, lhs, xassign)
            rp = _linear_part(a, rhs, xassign)
            if lp is None or rp is None:
                linear = False
                break
            coeffs = dict(lp[0])
            for j, c in rp[0].items():
                coeffs[j] = coeffs.get(j, 0) - c
            rows.append((coeffs, _gadd(a, lp[1], _gneg(a, rp[1]))))
        if linear:
            status, zval = _solve_linear_single(a, rows)
            if status == "unique":
                return [(zval,)], True
            if status == "none":
                return [], True
            # every z solves: report two witnesses of non-uniqueness
            one = _gdiv_exact(a, _gzero(a), 1)
            two = None
            for cand in candidate_pool(a, list(xassign.values()), cap):
                if cand != one:
                    two = cand
                    break
            sols = [(one,)] + ([(two,)] if two is not None else [])
            return sols, True
    # bounded structured candidate search
    pool = candidate_pool(a, list(xassign.values()), cap)
    sols = []
    for zs in _tuples(pool, phi.m):
        env = dict(xassign)
        for j, zv in enumerate(zs, start=1):
            env[Var("z", j)] = zv
        if _holds_all(a, phi, env):
            sols.append(zs)
            if len(sols) >= max_solutions:
                break
    return sols, False


def _tuples(pool, m):
    if m == 1:
        for v in pool:
            yield (v,)
        return
    import itertools

    yield from itertools.product(pool, repeat=m)


def _holds_all(a, phi, env) -> bool:
    return all(
        eval_term(a, lhs, env) == eval_term(a, rhs, env) for lhs, rhs in phi.equations
    )


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
        basics = [0, 1]
    out = []
    for v in basics:
        if _element_ok(a, v):
            out.append({Var("x", i): v for i in range(1, n + 1)})
    return out


def check_sentence_sampled(
    a, phi: EFDSentence, budget: int = 500, seed: int = 0
) -> Verdict:
    """Search for existence or uniqueness violations of phi over sampled
    x-assignments.  Exact per-sample solving is used where the equations are
    group-linear in the z-block or the model is finite; otherwise a bounded
    structured candidate set is searched and the verdict is tagged sampled.
    """
    if species(a) is not phi.signature:
        raise ModelError(
            f"signature mismatch: {phi.signature.value} sentence on a "
            f"{species(a).value} model"
        )
    rng = random.Random(seed)
    assignments = _structured_x(a, phi.n)
    while len(assignments) < max(budget, 1):
        assignments.append(
            {Var("x", i): _sample_one(a, rng, 12) for i in range(1, phi.n + 1)}
        )
    all_exact = True
    for env in assignments[: max(budget, 1)]:
        sols, exact = solutions_for_assignment(a, phi, env)
        all_exact = all_exact and exact
        if len(sols) >= 2:
            return Verdict(
                "falsified", exact, (dict(env), sols[:2]), "two distinct z-solutions"
            )
        if not sols:
            if exact:
                return Verdict("falsified", all_exact, dict(env), "no z-solution")
            return Verdict(
                "falsified", False, dict(env), "no z-solution among candidates"
            )
    return Verdict("consistent-on-sample", all_exact)


def check_efd_exhaustive(a: TwoMV, phi: EFDSentence) -> bool:
    """Exact truth of phi in the two-element model."""
    if not isinstance(a, TwoMV):
        raise ModelError("exhaustive checking requires the finite TwoMV model")
    for xs in _tuples((0, 1), phi.n) if phi.n else [()]:
        env = {Var("x", i): b for i, b in enumerate(xs, start=1)}
        sols, _ = solutions_for_assignment(a, phi, env, max_solutions=4)
        if len(sols) != 1:
            return False
    return True


def check_uniqueness_exhaustive(a: TwoMV, rule: UniquenessRule) -> bool:
    """Exact truth of U(phi) in the two-element model."""
    if not isinstance(a, TwoMV):
        raise ModelError("exhaustive checking requires the finite TwoMV model")
    total = rule.n + 2 * rule.m
    for bits in _tuples((0, 1), total) if total else [()]:
        env = {}
        for i in range(1, rule.n + 1):
            env[Var("x", i)] = bits[i - 1]
        for j in range(1, 2 * rule.m + 1):
            env[Var("z", j)] = bits[rule.n + j - 1]
        if all(_eval_two(l, env) == _eval_two(r, env) for l, r in rule.premises):
            if not all(_eval_two(l, env) == _eval_two(r, env) for l, r in rule.conclusions):
                return False
    return True


def check_uniqueness_sampled(
    a, phi: EFDSentence, budget: int = 500, seed: int = 0
) -> Verdict:
    """Sampled check that phi admits at most one z-solution per x-assignment."""
    rng = random.Random(seed)
    for _ in range(budget):
        env = {Var("x", i): _sample_one(a, rng, 12) for i in range(1, phi.n + 1)}
        sols, exact = solutions_for_assignment(a, phi, env)
        if len(sols) >= 2:
            return Verdict("falsified", exact, (env, sols[:2]), "uniqueness violated")
    return Verdict("consistent-on-sample", False)


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
        return LexProduct(parse_model(left), parse_model(right))
    if text.startswith("cone(") and text.endswith(")"):
        return PositiveCone(parse_model(text[5:-1]))
    if text.startswith("gamma(") and text.endswith(")"):
        inner = text[6:-1]
        if inner.startswith("qs:") or inner in ("z", "q"):
            return GammaPerfect(parse_model(inner))
        raise ModelError(f"gamma expects a scalar group descriptor, got {inner!r}")
    raise ModelError(f"unknown model descriptor {text!r}")


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
        if not (text.startswith("(") and text.endswith(")")):
            raise ModelError(f"pair literal expected, got {text!r}")
        parts = text[1:-1].split(",")
        if len(parts) != 2:
            raise ModelError(f"pair literal expected, got {text!r}")
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


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ModelError(f"zero denominator in {text.strip()!r}") from None


def format_element(e) -> str:
    if isinstance(e, tuple):
        return "(" + ", ".join(format_element(v) for v in e) + ")"
    return str(e)
