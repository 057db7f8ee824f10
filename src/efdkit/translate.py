"""Signature bridges: hoop-to-group star translation, the Phi_rad
decomposition of MV sentences, MV-to-hoop translation, and the MV
classification pipeline built from them.
"""

from __future__ import annotations

from .canonical import (
    ABSURD,
    DeltaKT,
    FragmentError,
    classify_group_sentences,
    sentence_to_delta_kt,
    DEFAULT_CELL_BUDGET,
)
from .lattice import AEClass, boolean_p, meet as class_meet, trivial_p
from .models import TwoMV, _Solver
from .record import Record
from .terms import (
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
    print_term,
    scalar,
    substitute,
    xvar,
    zvar,
)

__all__ = [
    "RadBasicSentence",
    "TwoCheck",
    "MVClassification",
    "star_term",
    "star_sentence",
    "check_in_two",
    "phi_rad_decompose",
    "mv_to_hoop",
    "simplify_hoop_term",
    "hoop_delta_star",
    "sentence_deltas",
    "classify_mv_sentences",
]

_TWO_BOUND = 20  # exhaustive 2^(n+m) bound for check_in_two


class RadBasicSentence(Record):
    """A Phi_rad member produced by the decomposition, tagged with the
    generating sign vector."""

    sentence: EFDSentence
    sign_vector: tuple[int, ...]


class TwoCheck(Record):
    holds: bool
    table: dict | None  # e-bar -> unique e'-bar on success
    failing: tuple | None  # first e-bar without a unique solution


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


def check_in_two(phi: EFDSentence) -> TwoCheck:
    """For every e-bar in {0,1}^n, find the unique e'-bar solving the
    equations in the two-element model."""
    if phi.signature is not Signature.MV:
        raise FragmentError("check_in_two expects an MV sentence")
    if phi.n + phi.m > _TWO_BOUND:
        raise FragmentError(f"exhaustive bound n + m <= {_TWO_BOUND} exceeded")
    solver = _Solver(TwoMV(), phi)
    table = {}
    for ebar in _bits(phi.n):
        solutions, _ = solver.solve_codes(ebar)  # the bits are their own codes
        if len(solutions) != 1:
            return TwoCheck(False, None, ebar)
        table[ebar] = solutions[0]
    return TwoCheck(True, table, None)


# ---------------------------------------------------------------------------
# Phi_rad decomposition


class _NoUniqueSolution(FragmentError):
    """check_in_two failed at e-bar ``failing``: the precondition of the
    decomposition."""

    def __init__(self, failing: tuple):
        super().__init__(
            f"decomposition precondition failed in the two-element model at "
            f"e-bar = {failing}"
        )
        self.failing = failing


def _subst_signs(t: Term, esub: dict[Var, bool]) -> Term:
    """Negate the variables flagged in esub."""
    return substitute(t, lambda v: MVNeg(v) if esub.get(v) else v)


def _dist(a: Term, b: Term) -> Term:
    """(a -. b) + (b -. a): zero exactly when a = b."""
    if b == ZERO:
        return a
    if a == ZERO:
        return b
    return Plus(Diff(a, b), Diff(b, a))


def _fold_plus(terms: list[Term]) -> Term:
    acc = terms[0]
    for t in terms[1:]:
        acc = Plus(acc, t)
    return acc


def phi_rad_decompose(phi: EFDSentence) -> list[RadBasicSentence]:
    """The 2^n sentences phi_e, each encoding

        (rho(x-bar) and alpha(x-bar^e, z-bar^e')) or (rho~(x-bar) and z-bar = 0)

    as a single equation via the meet-of-distance-sums encoding of
    disjunction, which is faithful on totally ordered algebras.
    """
    ct = check_in_two(phi)
    if not ct.holds:
        raise _NoUniqueSolution(ct.failing)
    out = []
    for ebar in _bits(phi.n):
        eprime = ct.table[ebar]
        esub: dict[Var, bool] = {xvar(i): bool(b) for i, b in enumerate(ebar, start=1)}
        esub.update({zvar(j): bool(b) for j, b in enumerate(eprime, start=1)})
        # radical disjunct: x_i^2 = 0 for each i, then the substituted alpha
        left_terms = [Power(2, xvar(i)) for i in range(1, phi.n + 1)]
        for lhs, rhs in phi.equations:
            left_terms.append(_dist(_subst_signs(lhs, esub), _subst_signs(rhs, esub)))
        u = _fold_plus(left_terms)
        if phi.n == 0:
            equation = (u, ZERO)
        else:
            # co-radical disjunct: (~x_1 /\ ... /\ ~x_n)^2 = 0 and each z_j = 0
            neg_meet: Term = MVNeg(xvar(1))
            for i in range(2, phi.n + 1):
                neg_meet = Meet(neg_meet, MVNeg(xvar(i)))
            right_terms: list[Term] = [Power(2, neg_meet)]
            right_terms.extend(zvar(j) for j in range(1, phi.m + 1))
            v = _fold_plus(right_terms)
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
# neg h); both cases carry a hoop term h over the same variables.  The case
# rules are the Gamma arithmetic of perfect algebras read symbolically, so
# the translated term agrees with the original on all radical assignments.

_RAD = "rad"
_CO = "co"


def _hjoin(p: Term, q: Term) -> Term:
    # x \/ y = x + (y -. x) in hoops
    return Plus(p, Diff(q, p))


def _hmeet(p: Term, q: Term) -> Term:
    # x /\ y = x -. (x -. y) in hoops
    return Diff(p, Diff(p, q))


def _v_neg(v):
    tag, h = v
    return (_CO if tag == _RAD else _RAD, h)


def _v_plus(va, vb):
    (ta, a), (tb, b) = va, vb
    if ta == _RAD and tb == _RAD:
        return (_RAD, Plus(a, b))
    if ta == _CO and tb == _CO:
        return (_CO, ZERO)  # co-radical sums saturate at the unit
    if ta == _RAD:
        return (_CO, Diff(b, a))  # a + neg b = neg(b -. a)
    return (_CO, Diff(a, b))


def _v_diff(va, vb):
    # a -. b computed as a * neg b
    (ta, a), (tb, b) = va, vb
    if ta == _RAD and tb == _RAD:
        return (_RAD, Diff(a, b))
    if ta == _RAD and tb == _CO:
        return (_RAD, ZERO)  # radical * radical vanishes
    if ta == _CO and tb == _RAD:
        return (_CO, Plus(a, b))
    return (_RAD, Diff(b, a))  # neg a -. neg b = b -. a


def _v_join(va, vb):
    (ta, a), (tb, b) = va, vb
    if ta == tb:
        return (ta, _hjoin(a, b) if ta == _RAD else _hmeet(a, b))
    return va if ta == _CO else vb  # co-radical dominates radical


def _v_meet(va, vb):
    (ta, a), (tb, b) = va, vb
    if ta == tb:
        return (ta, _hmeet(a, b) if ta == _RAD else _hjoin(a, b))
    return va if ta == _RAD else vb


def _v_scalar(k: int, v):
    if k < 0:
        raise FragmentError("negative scalar in an MV term")
    if k == 0:
        return (_RAD, ZERO)
    tag, h = v
    if tag == _RAD:
        return (_RAD, scalar(k, h))
    return (_CO, h) if k == 1 else (_CO, ZERO)


def _v_power(k: int, v):
    # x^k = ~(k ~x): a radical value squares to 0, and k ~(neg h) = k h
    return _v_neg(_v_scalar(k, _v_neg(v)))


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


def _simplify(node, *kids):
    if isinstance(node, (Var, Zero)):
        return node
    if isinstance(node, Plus):
        a, b = kids
        if a == ZERO:
            return b
        if b == ZERO:
            return a
        return Plus(a, b)
    if isinstance(node, Diff):
        a, b = kids
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
    if isinstance(node, Scalar):
        (a,) = kids
        if node.k == 0 or a == ZERO:
            return ZERO
        return scalar(node.k, a)
    raise FragmentError(f"{type(node).__name__} is not a hoop operation")


def simplify_hoop_term(t: Term) -> Term:
    """Normalize with identities of cancellative hoops: unit laws for 0,
    x -. x = 0, (x + y) -. y = x."""
    return fold(t, _simplify)


def mv_to_hoop(phi: EFDSentence) -> EFDSentence:
    """phi^H: each equation translated so that, on radical assignments,
    hoop satisfaction in rad A coincides with MV satisfaction in A."""
    equations = []
    for lhs, rhs in phi.equations:
        (tl, hl) = fold(lhs, _polarity)
        (tr, hr) = fold(rhs, _polarity)
        if tl != tr:
            raise FragmentError(
                "equation forces a radical value against a co-radical one: "
                f"{print_term(lhs)} = {print_term(rhs)}"
            )
        equations.append((simplify_hoop_term(hl), simplify_hoop_term(hr)))
    return EFDSentence(Signature.HOOP, phi.n, phi.m, tuple(equations))


# ---------------------------------------------------------------------------
# Classification pipeline


def hoop_delta_star(phi: EFDSentence) -> DeltaKT:
    """The group delta_{k,t*} of a hoop delta_{k,t}: recognize the shape,
    then star the term.  cone(G) satisfies phi iff G satisfies the image."""
    d = sentence_to_delta_kt(phi)
    return DeltaKT(d.k, star_term(d.t))


def sentence_deltas(phi: EFDSentence) -> list[DeltaKT]:
    """The delta_{k,t} of phi by its signature: a group sentence's shape,
    hoop_delta_star of a hoop sentence, or that of each Phi_rad branch of an
    MV sentence.  Raises FragmentError outside that fragment, and
    _NoUniqueSolution where check_in_two fails."""
    if phi.signature is Signature.GROUP:
        return [sentence_to_delta_kt(phi)]
    if phi.signature is Signature.HOOP:
        return [hoop_delta_star(phi)]
    return [hoop_delta_star(mv_to_hoop(rb.sentence)) for rb in phi_rad_decompose(phi)]


class MVClassification(Record):
    ae_class: AEClass
    notes: tuple[str, ...] = ()


def classify_mv_sentences(
    sentences, cap: int = DEFAULT_CELL_BUDGET
) -> MVClassification:
    """Classify MV sentences into the canonical AE-class of perfect
    algebras: check_in_two, Phi_rad decomposition, MV-to-hoop, star, then
    the group classifier; Boolean markers force the Boolean class and the
    ABSURD marker the Trivial class."""
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
            raise FragmentError(f"unsupported classification input {item!r}")
        try:
            deltas.extend(sentence_deltas(item))
        except _NoUniqueSolution as exc:
            return MVClassification(
                trivial_p(),
                (f"per-paper-scope: no unique two-element solution at {exc.failing}",),
            )
    group_class = classify_group_sentences(deltas, cap=cap)
    result = AEClass("P", group_class.kind, group_class.primes)
    if boolean:
        result = class_meet(result, boolean_p())
    return MVClassification(result)
