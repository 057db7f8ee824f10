"""Signature bridges: hoop-to-group star translation, the Phi_rad
decomposition of MV sentences, MV-to-hoop translation, and the reduction of
a group, hoop or MV sentence to its delta_{k,t} through them, which both
classifiers and check_sentence read.
"""

from __future__ import annotations

import functools

from . import models
from .canonical import DeltaKT, equation_to_delta_kt, reduce_delta_kt, sentence_to_delta_kt
from .errors import DEFAULT_CELL_BUDGET, BudgetExceeded, FragmentError
from .lattice import AEClass, PrimeSet, boolean_p, divisible_g, divisible_p, prime_factors
from .lattice import meet as class_meet, trivial_g, trivial_p
from .record import Record
from .terms import (
    ABSURD,
    Diff,
    EFDSentence,
    Identity,
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
    is_boolean_marker,
    print_sentence,
    print_term,
    scalar,
    substitute,
    xvar,
    zvar,
)

__all__ = [
    "RadBasicSentence",
    "MVClassification",
    "star_term",
    "star_sentence",
    "check_in_two",
    "phi_rad_decompose",
    "mv_to_hoop",
    "sentence_deltas",
    "classify_group_sentences",
    "classify_mv_sentences",
    "check_sentence",
]

_TWO_BOUND = 20  # exhaustive 2^(n+m) bound for check_in_two


class RadBasicSentence(Record):
    """A Phi_rad member produced by the decomposition, tagged with the
    generating sign vector."""

    sentence: EFDSentence
    sign_vector: tuple[int, ...]


# ---------------------------------------------------------------------------
# Star translation (hoop -> group)


def _star(node, *kids):
    if isinstance(node, Var):
        return Join(node, Neg(node)) if node.kind == "x" else node
    if isinstance(node, Zero):
        return node
    if isinstance(node, Plus):
        return Plus(*kids)
    if isinstance(node, Diff):
        a, b = kids
        return Join(Plus(a, Neg(b)), ZERO)
    if isinstance(node, Scalar):
        if node.k < 0:
            raise FragmentError("negative scalar in a hoop term")
        return Scalar(node.k, *kids)
    raise FragmentError(f"{type(node).__name__} is not a hoop operation")


def star_term(t: Term) -> Term:
    """x_i maps to x_i \\/ -x_i, z_j to itself, monus to truncated group
    subtraction."""
    return fold(t, _star)


def star_sentence(phi: EFDSentence) -> EFDSentence:
    """Group image of a hoop sentence, with one z_j \\/ 0 = z_j conjunct per
    z-variable."""
    if phi.signature is not Signature.HOOP:
        raise FragmentError("star translation expects a hoop sentence")
    equations = [(star_term(a), star_term(b)) for a, b in phi.equations]
    for j in range(1, phi.m + 1):
        equations.append((Join(zvar(j), ZERO), zvar(j)))
    return EFDSentence(Signature.GROUP, phi.n, phi.m, tuple(equations))


# ---------------------------------------------------------------------------
# Exhaustive two-element check


def _bits(width: int):
    for mask in range(1 << width):
        yield tuple((mask >> i) & 1 for i in range(width))


def check_in_two(phi: EFDSentence) -> dict[tuple, tuple]:
    """The unique e'-bar solving the equations in the two-element model at
    each e-bar in {0,1}^n.  Raises _NoUniqueSolution at the first e-bar
    without one."""
    if phi.signature is not Signature.MV:
        raise FragmentError("check_in_two expects an MV sentence")
    if phi.n + phi.m > _TWO_BOUND:
        raise FragmentError(f"exhaustive bound n + m <= {_TWO_BOUND} exceeded")
    solver = models._Solver(models.TwoMV(), phi)
    table = {}
    for ebar in _bits(phi.n):
        solutions, _ = solver.solve_codes(ebar)  # the bits are their own codes
        if len(solutions) != 1:
            raise _NoUniqueSolution(ebar, solutions)
        table[ebar] = solutions[0]
    return table


# ---------------------------------------------------------------------------
# Phi_rad decomposition


class _NoUniqueSolution(FragmentError):
    """check_in_two found the e'-bars ``solutions``, none or two, at e-bar
    ``failing``: phi fails in two, and so does the decomposition's precondition."""

    def __init__(self, failing: tuple, solutions: list):
        super().__init__(
            f"decomposition precondition failed in the two-element model at "
            f"e-bar = {failing}"
        )
        self.failing, self.solutions = failing, solutions


def _subst_signs(t: Term, ebar: tuple, eprime: tuple) -> Term:
    """t with x_i negated where ebar has bit 1 at i, and z_j where eprime has."""
    return substitute(
        t, lambda v: MVNeg(v) if (ebar if v.kind == "x" else eprime)[v.index - 1] else v
    )


def _dist(a: Term, b: Term) -> Term:
    """(a -. b) + (b -. a): zero exactly when a = b."""
    if b == ZERO:
        return a
    if a == ZERO:
        return b
    return Plus(Diff(a, b), Diff(b, a))


def phi_rad_decompose(phi: EFDSentence) -> list[RadBasicSentence]:
    """The 2^n sentences phi_e, each encoding

        (rho(x-bar) and alpha(x-bar^e, z-bar^e')) or (rho~(x-bar) and z-bar = 0)

    as a single equation via the meet-of-distance-sums encoding of
    disjunction, which is faithful on totally ordered algebras.
    """
    table = check_in_two(phi)
    out = []
    for ebar, eprime in table.items():
        # radical disjunct: x_i^2 = 0 for each i, then the substituted alpha
        left_terms = [Power(2, xvar(i)) for i in range(1, phi.n + 1)]
        for lhs, rhs in phi.equations:
            left, right = (_subst_signs(s, ebar, eprime) for s in (lhs, rhs))
            left_terms.append(_dist(left, right))
        u = functools.reduce(Plus, left_terms)
        if phi.n == 0:
            equation = (u, ZERO)
        else:
            # co-radical disjunct: (~x_1 /\ ... /\ ~x_n)^2 = 0 and each z_j = 0
            neg_meet: Term = MVNeg(xvar(1))
            for i in range(2, phi.n + 1):
                neg_meet = Meet(neg_meet, MVNeg(xvar(i)))
            right_terms: list[Term] = [Power(2, neg_meet)]
            right_terms.extend(zvar(j) for j in range(1, phi.m + 1))
            v = functools.reduce(Plus, right_terms)
            equation = (Meet(u, v), ZERO)
        sentence = EFDSentence(Signature.MV, phi.n, phi.m, (equation,))
        out.append(RadBasicSentence(sentence, ebar))
    return out


# ---------------------------------------------------------------------------
# MV -> hoop translation
#
# Terms are translated by a polarity-tagged evaluation: with all variables
# ranging over the radical of a totally ordered perfect algebra, every
# subterm is either radical ("rad", value h) or co-radical ("co", value
# neg h); both cases carry a hoop term h over the same variables.  Only +,
# ~, \/ and k. have case rules, the Gamma arithmetic of perfect algebras
# read symbolically; -., /\ and x^k follow from their MV definitions.  So an
# image agrees with its term on all radical assignments.  Each hoop node is
# built by _plus or _diff, which apply identities of cancellative hoops to
# children built the same way, so the one fold yields a simplified image.

_RAD = "rad"
_CO = "co"


def _plus(a: Term, b: Term) -> Term:
    # 0 is the unit of +
    if a == ZERO:
        return b
    if b == ZERO:
        return a
    return Plus(a, b)


def _diff(a: Term, b: Term) -> Term:
    # x -. 0 = x, 0 -. y = x -. x = 0, (x + y) -. y = x and (x + y) -. x = y
    if b == ZERO:
        return a
    if a == ZERO or a == b:
        return ZERO
    if isinstance(a, Plus):
        if a.left == b:
            return a.right
        if a.right == b:
            return a.left
    return Diff(a, b)


def _v_neg(v):
    tag, h = v
    return (_CO if tag == _RAD else _RAD, h)


def _v_plus(va, vb):
    (ta, a), (tb, b) = va, vb
    if ta == _RAD and tb == _RAD:
        return (_RAD, _plus(a, b))
    if ta == _CO and tb == _CO:
        return (_CO, ZERO)  # co-radical sums saturate at the unit
    if ta == _RAD:
        return (_CO, _diff(b, a))  # a + neg b = neg(b -. a)
    return (_CO, _diff(a, b))


def _v_join(va, vb):
    # in hoops x \/ y = x + (y -. x) and x /\ y = x -. (x -. y); neg a \/ neg b = neg(a /\ b)
    (ta, a), (tb, b) = va, vb
    if ta == tb:
        return (ta, _plus(a, _diff(b, a)) if ta == _RAD else _diff(a, _diff(a, b)))
    return va if ta == _CO else vb  # co-radical dominates radical


def _v_scalar(k: int, v):
    if k < 0:
        raise FragmentError("negative scalar in an MV term")
    if k == 0:
        return (_RAD, ZERO)
    tag, h = v
    if tag == _RAD:
        return (_RAD, ZERO if h == ZERO else scalar(k, h))
    return (_CO, h) if k == 1 else (_CO, ZERO)


def _v_power(k: int, v):
    # x^k = ~(k ~x): a radical value squares to 0, and k ~(neg h) = k h
    return _v_neg(_v_scalar(k, _v_neg(v)))


def _v_diff(va, vb):
    return _v_neg(_v_plus(_v_neg(va), vb))  # x -. y = ~(~x + y)


def _v_meet(va, vb):
    return _v_neg(_v_join(_v_neg(va), _v_neg(vb)))  # x /\ y = ~(~x \/ ~y)


_V_OPS = {Plus: _v_plus, MVNeg: _v_neg, Join: _v_join, Meet: _v_meet, Diff: _v_diff}


def _polarity(node, *kids):
    op = _V_OPS.get(type(node))
    if op is not None:
        return op(*kids)
    if isinstance(node, (Scalar, Power)):
        return (_v_scalar if isinstance(node, Scalar) else _v_power)(node.k, *kids)
    if isinstance(node, (Var, Zero)):
        return (_RAD, node)
    raise FragmentError(f"{type(node).__name__} is not an MV operation")


def _signed(ebar: tuple, eprime: tuple):
    """_polarity reading x_i as co-radical where ebar has bit 1 at i, and
    z_j where eprime has, by index as _subst_signs reads them: the fold of
    a side with the signs _subst_signs puts in at (e-bar, e'-bar), with no
    substituted term built."""

    def read(node, *kids):
        if type(node) is Var:
            bits = ebar if node.kind == "x" else eprime
            return (_CO if bits[node.index - 1] else _RAD, node)
        return _polarity(node, *kids)

    return read


def mv_to_hoop(phi: EFDSentence) -> EFDSentence:
    """phi^H: each equation translated so that, on radical assignments,
    hoop satisfaction in rad A coincides with MV satisfaction in A.  Each
    side is folded once, into its simplified hoop image."""
    equations = []
    for lhs, rhs in phi.equations:
        (tl, hl) = fold(lhs, _polarity)
        (tr, hr) = fold(rhs, _polarity)
        if tl != tr:
            raise FragmentError(
                "equation forces a radical value against a co-radical one: "
                f"{print_term(lhs)} = {print_term(rhs)}"
            )
        equations.append((hl, hr))
    return EFDSentence(Signature.HOOP, phi.n, phi.m, tuple(equations))


# ---------------------------------------------------------------------------
# Classification pipeline


def sentence_deltas(phi: EFDSentence) -> list[DeltaKT]:
    """The group delta_{k,t} of phi by its signature: a group sentence's
    shape, or the starred shape of a hoop sentence, or of each Phi_rad
    branch's hoop image, branch by branch (cone(G) satisfies delta_{k,t} iff
    G satisfies delta_{k,t*}).  Raises FragmentError outside that fragment,
    and _NoUniqueSolution where check_in_two fails.  A branch's image is
    read off phi itself (_branch_images): no branch or hoop sentence is
    built."""
    if phi.signature is Signature.GROUP:
        return [sentence_to_delta_kt(phi)]
    if phi.signature is Signature.HOOP:
        deltas = [sentence_to_delta_kt(phi)]
    else:
        deltas = (equation_to_delta_kt(h, ZERO, phi.m) for h in _branch_images(phi))
    return [DeltaKT(d.k, star_term(d.t)) for d in deltas]


def _branch_images(phi: EFDSentence):
    """Per Phi_rad branch, the h of its hoop image (h, 0), as mv_to_hoop
    gives it.  The branch is u /\\ v = 0 (u = 0 for n = 0): u sums the x_i^2,
    which fold to radical 0, and the distance (l -. r) + (r -. l) of each
    equation signed by (e-bar, e'-bar), and v is co-radical.  u is radical,
    since a tag is a value in two and check_in_two's e'-bar solves every
    equation there, so it is its own meet with v: h sums the distances."""
    for ebar, eprime in check_in_two(phi).items():
        read = _signed(ebar, eprime)
        distances = []
        for lhs, rhs in phi.equations:
            left, right = fold(lhs, read), fold(rhs, read)
            distances.append(_v_plus(_v_diff(left, right), _v_diff(right, left)))
        _, h = functools.reduce(_v_plus, distances)
        yield h


def classify_group_sentences(sentences, cap: int = DEFAULT_CELL_BUDGET) -> AEClass:
    """The canonical AE-class of l-groups of group sentences, each of the
    delta_{k,t} shape, and the ABSURD marker (yielding the Trivial class).
    A conjunction of delta_k's is equivalent to delta of the product, and
    divisibility by k to divisibility by the prime factors of k; each
    sentence is reduced as it is read."""
    primes: set[int] = set()
    for item in sentences:
        if item == ABSURD:
            return trivial_g()
        if not isinstance(item, EFDSentence) or item.signature is not Signature.GROUP:
            sentence = isinstance(item, (EFDSentence, Identity))
            text = print_sentence(item) if sentence else repr(item)
            raise FragmentError(f"unsupported classification input {text}")
        for d in sentence_deltas(item):
            primes |= prime_factors(reduce_delta_kt(d, cap=cap))
    return divisible_g(PrimeSet.finite(primes))


class MVClassification(Record):
    ae_class: AEClass
    notes: tuple[str, ...] = ()


def classify_mv_sentences(
    sentences, cap: int = DEFAULT_CELL_BUDGET
) -> MVClassification:
    """Classify MV sentences into the canonical AE-class of perfect
    algebras: the k' of each delta_{k,t} of sentence_deltas (check_in_two,
    then per Phi_rad branch the hoop image read off the sentence's own
    sides, recognized and starred) is divided into its primes once every
    input is read; Boolean markers force the Boolean class and the ABSURD
    marker the Trivial class."""
    deltas: list[DeltaKT] = []
    boolean = False
    for item in sentences:
        if item == ABSURD:
            return MVClassification(trivial_p(), ("absurd marker",))
        if isinstance(item, Identity):
            if is_boolean_marker(item):
                boolean = True
                continue
            raise FragmentError("the only supported identity is the Boolean marker")
        if not isinstance(item, EFDSentence) or item.signature is not Signature.MV:
            text = print_sentence(item) if isinstance(item, EFDSentence) else repr(item)
            raise FragmentError(f"unsupported classification input {text}")
        try:
            deltas.extend(sentence_deltas(item))
        except _NoUniqueSolution as exc:
            return MVClassification(
                trivial_p(),
                (f"per-paper-scope: no unique two-element solution at {exc.failing}",),
            )
    primes: set[int] = set()
    for d in deltas:
        primes |= prime_factors(reduce_delta_kt(d, cap=cap))
    result = divisible_p(PrimeSet.finite(primes))
    if boolean:
        result = class_meet(result, boolean_p())
    return MVClassification(result)


# ---------------------------------------------------------------------------
# Deciding a sentence in a witness model


def check_sentence(a, phi: EFDSentence, budget: int = 500, seed: int = 0,
                   shortcut: bool = True) -> models.Verdict:
    """Decide phi in the witness model a: exhaustively on two, and on any
    other model by the classification, since a satisfies phi iff it is
    k'-divisible for the k' of every delta_{k,t} of phi (no Gamma model
    satisfies an MV sentence in the trivial class).  Outside their reach,
    or without the shortcut, phi is sampled; where the classification's
    cell budget sent it there, the detail says so."""
    over_budget = ""
    if shortcut:
        exhaustive = f"exhaustive over {{0,1}}^{phi.n}"
        try:
            if isinstance(a, models.TwoMV):
                check_in_two(phi)
                return models.Verdict("holds", True, None, exhaustive)
            kprimes = sorted({reduce_delta_kt(d) for d in sentence_deltas(phi)})
            holds = all(models.holds_delta_exact(a, k) for k in kprimes)
            detail = "classification: " + ", ".join(f"delta_{k}" for k in kprimes)
            return models.Verdict("holds" if holds else "falsified", True, None, detail)
        except _NoUniqueSolution as exc:
            if isinstance(a, models.TwoMV):
                ebar = {xvar(i): b for i, b in enumerate(exc.failing, start=1)}
                return models._refutation(ebar, exc.solutions, exhaustive)
            detail = f"classification: trivial, no unique two-element solution at e-bar = {exc.failing}"
            return models.Verdict("falsified", True, None, detail)
        except BudgetExceeded as exc:
            over_budget = f" (classification over budget: {exc})"
        except FragmentError:
            pass
    verdict = models.check_sentence_sampled(a, phi, budget=budget, seed=seed)
    if over_budget:
        verdict = models.Verdict(verdict.status, verdict.exact, verdict.witness,
                                 verdict.detail + over_budget)
    return verdict
