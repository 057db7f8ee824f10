import functools
import itertools
import math
import operator
import random
import types
from collections import Counter
from fractions import Fraction

import pytest

import efdkit.models as models
from efdkit.errors import BudgetExceeded
from efdkit.gen import random_term
from efdkit.models import (
    GammaPerfect,
    IntegerGroup,
    LexProduct,
    LocalizedRationals,
    ModelError,
    PositiveCone,
    RationalGroup,
    TwoMV,
    Verdict,
    check_element,
    check_sentence_sampled,
    eval_term,
    format_element,
    gamma_div,
    holds_delta_exact,
    model_name,
    parse_element,
    parse_model,
    qs_member,
    radical_member,
    sample_elements,
    solutions_for_assignment,
    species,
)
from efdkit.terms import (
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
    Var,
    ZERO,
    Zero,
    build_delta_k,
    build_epsilon_k,
    build_t_k,
    max_index,
    parse_sentence,
    parse_term,
    xvar,
    zvar,
)
from efdkit.translate import check_in_two, mv_to_hoop, phi_rad_decompose

GQ = GammaPerfect(RationalGroup())


def _ev(model, text, sig, **vals):
    t = parse_term(text, sig)
    env = {}
    for name, v in vals.items():
        kind, idx = name[0], int(name[1:])
        from efdkit.terms import Var

        env[Var(kind, idx)] = v
    return eval_term(model, t, env)


_X1, _X2 = xvar(1), xvar(2)

# one term per species, using every node type its evaluator admits
_EVERY_NODE = {
    # (2 x1 + -x2 \/ x1 /\ 0) + -3 (x2 /\ -x1)
    Signature.GROUP: Plus(
        Join(Plus(Scalar(2, _X1), Neg(_X2)), Meet(_X1, ZERO)),
        Scalar(-3, Meet(_X2, Neg(_X1))),
    ),
    # (2 x1 -. x2 \/ x1 /\ x2) + (0 -. x1 + 3 (x2 -. x1))
    Signature.HOOP: Plus(
        Join(Diff(Scalar(2, _X1), _X2), Meet(_X1, _X2)),
        Plus(Diff(ZERO, _X1), Scalar(3, Diff(_X2, _X1))),
    ),
    # 2 x1 + 0 /\ ~x2 \/ x2^2 -. x1
    Signature.MV: Join(
        Meet(Plus(Scalar(2, _X1), ZERO), MVNeg(_X2)), Diff(Power(2, _X2), _X1)
    ),
}


class TestEveryNodeEveryModel:
    """Exact values, with their Python types, of the per-species term in each
    kind of witness algebra."""

    @pytest.mark.parametrize(
        "descriptor,x1,x2,expected",
        [
            ("z", "3", "-5", "Fraction(26, 1)"),
            ("z", "-2", "4", "Fraction(-8, 1)"),
            ("q", "3/2", "-5/3", "Fraction(29, 3)"),
            ("q", "-1/2", "1/4", "Fraction(-5, 4)"),
            ("qs:2,3", "5/6", "-7/4", "Fraction(26, 3)"),
            ("qs:2,3", "-1/9", "1/8", "Fraction(-4, 9)"),
            ("lex(z,qs:2)", "(1, -1/2)", "(1, 3/4)", "(Fraction(4, 1), Fraction(-13, 4))"),
            ("lex(z,qs:2)", "(-1, 5)", "(0, -1/4)", "(Fraction(-1, 1), Fraction(23, 4))"),
            ("cone(q)", "3/2", "1/3", "Fraction(8, 3)"),
            ("cone(q)", "1/4", "7/2", "Fraction(10, 1)"),
            ("gamma(qs:2,3)", "(0, 1/6)", "(1, -1/4)", "(1, Fraction(-2, 3))"),
            ("gamma(qs:2,3)", "(1, -1/2)", "(0, 3/8)", "(1, Fraction(-3, 8))"),
            ("gamma(qs:2,3)", "(0, 1/8)", "(0, 1/9)", "(0, Fraction(1, 4))"),
            ("gamma(qs:2,3)", "(1, -1/6)", "(1, -1/3)", "(0, Fraction(1, 3))"),
            ("gamma(qs:2,3)", "(0, 0)", "(1, -1/12)", "(1, Fraction(-1, 6))"),
            ("gamma(qs:2,3)", "(1, -1/3)", "(1, -1/2)", "(0, Fraction(1, 2))"),
            ("gamma(qs:2,3)", "(1, -2)", "(1, -1/4)", "(0, Fraction(3, 2))"),
            ("gamma(qs:2,3)", "(0, 1/2)", "(1, -2)", "(1, Fraction(-9, 2))"),
            ("two", "0", "1", "1"),
            ("two", "1", "0", "1"),
            ("two", "0", "0", "0"),
            ("two", "1", "1", "0"),
        ],
    )
    def test_pinned_value(self, descriptor, x1, x2, expected):
        a = parse_model(descriptor)
        env = {_X1: parse_element(a, x1), _X2: parse_element(a, x2)}
        assert repr(eval_term(a, _EVERY_NODE[species(a)], env)) == expected

    @pytest.mark.parametrize(
        "descriptor,term",
        [
            ("z", MVNeg(_X1)),
            ("q", Diff(_X1, _X1)),
            ("lex(z,qs:2)", Power(2, _X1)),
            ("cone(q)", Neg(_X1)),
            ("cone(q)", MVNeg(_X1)),
            ("gamma(q)", Neg(_X1)),
            ("two", Neg(_X1)),
        ],
    )
    def test_node_outside_the_species_is_a_model_error(self, descriptor, term):
        a = parse_model(descriptor)
        env = {_X1: sample_elements(a, 1, seed=0)[0]}
        with pytest.raises(ModelError):
            eval_term(a, term, env)

    @pytest.mark.parametrize("descriptor", ["cone(q)", "gamma(q)", "two"])
    def test_negative_scalar_is_a_model_error(self, descriptor):
        a = parse_model(descriptor)
        env = {_X1: sample_elements(a, 1, seed=0)[0]}
        with pytest.raises(ModelError):
            eval_term(a, Scalar(-2, _X1), env)


# ---------------------------------------------------------------------------
# eval_term compiles t into closures over integer codes at one common
# denominator.  The reference is the evaluator it replaced: a recursive walk
# that dispatches on the node type at every node, over the Fraction groups,
# unscaled.


def _fraction_eval(a, t, env):
    return _fraction_walker(a)(t, env)


def _walker(label, zero, ops):
    """The recursive evaluator over one algebra's node operations, keyed by
    node type: (left, right) for Plus, Diff, Join and Meet, arg for Neg and
    MVNeg, (k, arg) for Scalar and Power."""

    def walk(t, env):
        node = nodes.get(type(t))
        if node is None:
            raise ModelError(f"{type(t).__name__} not evaluable in {label}")
        return node(t, env)

    def binary(f):
        return lambda t, env: f(walk(t.left, env), walk(t.right, env))

    def unary(f):
        return lambda t, env: f(walk(t.arg, env))

    def scaled(f):
        return lambda t, env: f(t.k, walk(t.arg, env))

    shapes = {
        Plus: binary, Diff: binary, Join: binary, Meet: binary,
        Neg: unary, MVNeg: unary, Scalar: scaled, Power: scaled,
    }
    nodes = {kind: shapes[kind](f) for kind, f in ops.items()}
    nodes[Var] = _lookup
    nodes[Zero] = lambda t, env: zero
    return walk


def _lookup(t, env):
    if t not in env:
        raise ModelError(f"assignment missing {t.kind}{t.index}")
    return env[t]


# Fractions and nested lex pairs of them, unscaled: the order is compared
# with <, coordinate by coordinate.


def _f_add(u, v):
    return (_f_add(u[0], v[0]), _f_add(u[1], v[1])) if isinstance(u, tuple) else u + v


def _f_neg(u):
    return (_f_neg(u[0]), _f_neg(u[1])) if isinstance(u, tuple) else -u


def _f_times(k, u):
    return (_f_times(k, u[0]), _f_times(k, u[1])) if isinstance(u, tuple) else k * u


def _f_less(u, v):
    if isinstance(u, tuple):
        return _f_less(u[0], v[0]) or (u[0] == v[0] and _f_less(u[1], v[1]))
    return u < v


def _f_join(u, v):
    return v if _f_less(u, v) else u


def _f_meet(u, v):
    return u if _f_less(u, v) else v


def _f_zero(a):
    if isinstance(a, LexProduct):
        return (_f_zero(a.left), _f_zero(a.right))
    return Fraction(0)


def _f_checked(times, message):
    def checked(k, u):
        if k < 0:
            raise ModelError(message)
        return times(k, u)

    return checked


@functools.lru_cache(maxsize=None)
def _fraction_walker(a):
    lattice = {Join: _f_join, Meet: _f_meet}
    if isinstance(a, (TwoMV, GammaPerfect)):
        # Gamma(G, u): cut at u, ~x = u - x, x^k = ~(k ~x), u -. v = (u - v) \/ 0
        if isinstance(a, TwoMV):
            zero, unit = 0, 1
        else:
            zero, unit = (0, _f_zero(a.inner)), (1, _f_zero(a.inner))

        def mvneg(u):
            return _f_add(unit, _f_neg(u))

        times = _f_checked(
            lambda k, u: _f_meet(_f_times(k, u), unit), "negative scalar in an MV term"
        )
        return _walker("TwoMV" if isinstance(a, TwoMV) else "a Gamma model", zero, {
            Plus: lambda u, v: _f_meet(_f_add(u, v), unit),
            Diff: lambda u, v: _f_join(_f_add(u, _f_neg(v)), zero),
            MVNeg: mvneg,
            Scalar: times,
            Power: lambda k, u: mvneg(times(k, mvneg(u))),
            **lattice,
        })
    if isinstance(a, PositiveCone):
        zero = _f_zero(a.inner)
        return _walker("a hoop model", zero, {
            Plus: _f_add,
            Diff: lambda u, v: _f_join(_f_add(u, _f_neg(v)), zero),
            Scalar: _f_checked(_f_times, "negative scalar in a hoop term"),
            **lattice,
        })
    return _walker("a group model", _f_zero(a), {
        Plus: _f_add, Neg: _f_neg, Scalar: _f_times, **lattice
    })


def _shared_terms(rng, sig):
    """Terms whose binary node objects occur more than once: Plus(s, s) with
    one s, and the hoop image of an MV join chain, p + (q -. p) with one p."""
    s = random_term(rng, sig, 2, 3)
    phi = parse_sentence(r"forall x1 x2 exists! z1 : z1 = x1 \/ 2 x2 \/ (x1 + x2) \/ x2", Signature.MV)
    ((_, image),) = mv_to_hoop(phi).equations
    return [Plus(s, s), image, Plus(image, Scalar(2, image))]


# Terms with two faults each.  With x2 unassigned, the fault that a walk
# reaches first decides the error: the left child before the right one, and
# a scalar's argument before its k.
_TWO_FAULTS = [
    term
    for fault in (Scalar(-2, _X1), MVNeg(_X1), Neg(_X1), Diff(_X1, _X1))
    for term in (Plus(_X2, fault), Plus(fault, _X2), Scalar(-3, Plus(fault, _X2)))
]


def _outcome(evaluate, a, t, env):
    """repr of the value, or the type and message of the error raised."""
    try:
        return repr(evaluate(a, t, env))
    except Exception as exc:  # compared, not swallowed
        return (type(exc).__name__, str(exc))


class TestIntegerEvaluation:
    MODELS = [
        "z", "q", "qs:2,3", "lex(z,q)", "lex(q,lex(z,qs:2))", "cone(q)", "cone(lex(z,q))",
        "gamma(z)", "gamma(q)", "gamma(qs:5)", "two",
    ]

    @pytest.mark.parametrize("descriptor", MODELS)
    def test_agrees_with_the_fraction_walker(self, descriptor):
        """Random terms of every signature (so nodes outside the species
        occur), now and then under a negative scalar, on sampled elements
        with x2 now and then missing, then terms that share nodes and terms
        with two faults: the same value with the same repr, or the same
        error with the same message."""
        a = parse_model(descriptor)
        rng = random.Random(descriptor)
        errors = Counter()
        for trial in range(300):
            sig = species(a) if rng.random() < 0.7 else rng.choice(list(Signature))
            t = random_term(rng, sig, 2, rng.randint(0, 5))
            if rng.random() < 0.1:
                t = Scalar(-rng.randint(1, 4), t)
            env = dict(zip((_X1, _X2), sample_elements(a, 2, seed=trial)))
            if rng.random() < 0.15:
                del env[_X2]
            got = _outcome(eval_term, a, t, env)
            assert got == _outcome(_fraction_eval, a, t, env), (t, env)
            if isinstance(got, tuple):
                errors[got[0]] += 1
        for trial, sig in enumerate(list(Signature) * 4):
            env = dict(zip((_X1, _X2), sample_elements(a, 2, seed=trial)))
            for t in _shared_terms(rng, sig):
                assert _outcome(eval_term, a, t, env) == _outcome(_fraction_eval, a, t, env), t
        del env[_X2]
        for t in _TWO_FAULTS:
            got = _outcome(eval_term, a, t, env)
            assert got == _outcome(_fraction_eval, a, t, env), t
            errors[got[0]] += 1
        assert set(errors) == {"ModelError"}, errors

    def test_shared_nodes_compile_once(self, monkeypatch):
        """The hoop image of x1 \\/ 2 x1 \\/ ... \\/ 40 x1, p + (q -. p) per
        join with one p, is a tree of about 2^39 nodes over 78 binary node
        objects.  Each compiles once, so x1 is compiled 41 times: three times
        in the first join, where p is x1, and once in each later q = k x1."""
        compiled = []

        def itemgetter(i):
            compiled.append(i)
            assert len(compiled) <= 1000  # a tree walk would compile about 2^40 reads
            return operator.itemgetter(i)

        monkeypatch.setattr(models, "operator", types.SimpleNamespace(itemgetter=itemgetter))
        text = r" \/ ".join(["x1"] + [f"{k} x1" for k in range(2, 41)])
        phi = parse_sentence(f"forall x1 exists! z1 : z1 = {text}", Signature.MV)
        ((_, image),) = mv_to_hoop(phi).equations
        compile_, _ = models._evaluator(PositiveCone(RationalGroup()))
        _, reads = compile_(image, {("x", 1): 0})
        assert reads == {0}
        assert len(compiled) == 41

    def test_value_is_divided_back(self):
        """Denominators 4 and 6 walk as integers over 12; the value is
        reduced again, and the Gamma coordinate i stays an int."""
        env = {_X1: (0, Fraction(1, 4)), _X2: (0, Fraction(1, 6))}
        value = eval_term(GQ, Plus(_X1, _X2), env)
        assert repr(value) == "(0, Fraction(5, 12))"
        assert repr(eval_term(GQ, Scalar(2, _X1), env)) == "(0, Fraction(1, 2))"
        assert repr(eval_term(GQ, ZERO, {})) == "(0, Fraction(0, 1))"


class TestLocalizedRationals:
    def test_membership(self):
        S = frozenset({2, 3})
        assert qs_member(Fraction(5, 12), S)
        assert not qs_member(Fraction(1, 5), S)
        assert qs_member(Fraction(7), S)

    def test_check_element(self):
        a = LocalizedRationals(frozenset({2}))
        check_element(a, Fraction(3, 8))
        with pytest.raises(ModelError):
            check_element(a, Fraction(1, 3))


class TestGroupEvaluation:
    def test_lattice_operations(self):
        q = RationalGroup()
        assert _ev(q, r"x1 \/ -x1", Signature.GROUP, x1=Fraction(-3, 2)) == Fraction(
            3, 2
        )
        assert _ev(q, r"x1 /\ x2", Signature.GROUP, x1=Fraction(1), x2=Fraction(2)) == 1

    def test_lex_order(self):
        a = LexProduct(IntegerGroup(), RationalGroup())
        small = (0, Fraction(100))
        big = (1, Fraction(-100))
        assert _ev(a, r"x1 \/ x2", Signature.GROUP, x1=small, x2=big) == big

    def test_lex_componentwise_addition(self):
        a = LexProduct(IntegerGroup(), RationalGroup())
        s = _ev(
            a,
            "x1 + x2",
            Signature.GROUP,
            x1=(1, Fraction(1, 2)),
            x2=(-1, Fraction(1, 3)),
        )
        assert s == (0, Fraction(5, 6))


class TestPositiveCone:
    def test_monus_truncates(self):
        cone = PositiveCone(RationalGroup())
        assert _ev(cone, "x1 -. x2", Signature.HOOP, x1=Fraction(1), x2=Fraction(3)) == 0
        assert _ev(cone, "x1 -. x2", Signature.HOOP, x1=Fraction(3), x2=Fraction(1)) == 2

    def test_hoop_lattice_identities(self):
        cone = PositiveCone(RationalGroup())
        for x, y in [(0, 2), (5, 3), (7, 7), (1, 4)]:
            x, y = Fraction(x), Fraction(y)
            join = _ev(cone, "x1 + (x2 -. x1)", Signature.HOOP, x1=x, x2=y)
            meet = _ev(cone, "x1 -. (x1 -. x2)", Signature.HOOP, x1=x, x2=y)
            assert join == max(x, y)
            assert meet == min(x, y)

    def test_rejects_negative_elements(self):
        cone = PositiveCone(RationalGroup())
        with pytest.raises(ModelError):
            check_element(cone, Fraction(-1))


class TestGammaModel:
    def test_unit_interval_arithmetic(self):
        # worked examples on Gamma(Z lex Q): addition clamps at the unit
        assert _ev(GQ, "x1 + x2", Signature.MV, x1=(1, Fraction(-1)), x2=(0, Fraction(2))) == (1, Fraction(0))
        assert _ev(GQ, "~x1", Signature.MV, x1=(0, Fraction(1, 2))) == (1, Fraction(-1, 2))

    def test_t_k_values(self):
        env = {zvar(1): (0, Fraction(1, 2))}
        assert eval_term(GQ, build_t_k(3), env) == (0, Fraction(3, 2))
        env = {zvar(1): (1, Fraction(-1, 2))}
        assert eval_term(GQ, build_t_k(3), env) == (1, Fraction(-3, 2))

    def test_radical_dichotomy(self):
        for e in sample_elements(GQ, 50, seed=3):
            neg = _ev(GQ, "~x1", Signature.MV, x1=e)
            assert radical_member(GQ, e) != radical_member(GQ, neg)

    def test_radical_is_first_coordinate_zero(self):
        assert radical_member(GQ, (0, Fraction(7)))
        assert not radical_member(GQ, (1, Fraction(-7)))

    def test_gamma_div_inverts_t_k(self):
        for e in [(0, Fraction(3)), (1, Fraction(-2, 5))]:
            d = gamma_div(GQ, e, 4)
            assert eval_term(GQ, build_t_k(4), {zvar(1): d}) == e

    def test_gamma_div_respects_denominators(self):
        g2 = GammaPerfect(LocalizedRationals(frozenset({2})))
        assert gamma_div(g2, (0, Fraction(1)), 2) == (0, Fraction(1, 2))
        assert gamma_div(g2, (0, Fraction(1)), 3) is None

    def test_element_validation(self):
        with pytest.raises(ModelError):
            check_element(GQ, (2, Fraction(0)))
        with pytest.raises(ModelError):
            check_element(GQ, (1, Fraction(1)))  # above the unit


_SUM = parse_term("x1 + x2", Signature.MV)
_PRODUCT = parse_term("~(~x1 + ~x2)", Signature.MV)


def _loop_eval(a, t, env):
    """Gamma evaluation with k x as the k-fold sum and x^k as the k-fold
    product: the O(k) definitions, kept as an oracle for the closed forms.
    Other nodes go through eval_term on fresh variables."""
    if isinstance(t, Scalar):
        v, acc = _loop_eval(a, t.arg, env), eval_term(a, ZERO, {})
        for _ in range(t.k):
            acc = eval_term(a, _SUM, {xvar(1): acc, xvar(2): v})
        return acc
    if isinstance(t, Power):
        v = acc = _loop_eval(a, t.arg, env)
        for _ in range(t.k - 1):
            acc = eval_term(a, _PRODUCT, {xvar(1): acc, xvar(2): v})
        return acc
    if isinstance(t, Var):
        return env[t]
    if t == ZERO:
        return eval_term(a, t, {})
    if isinstance(t, MVNeg):
        return eval_term(a, MVNeg(xvar(1)), {xvar(1): _loop_eval(a, t.arg, env)})
    left, right = _loop_eval(a, t.left, env), _loop_eval(a, t.right, env)
    return eval_term(a, type(t)(xvar(1), xvar(2)), {xvar(1): left, xvar(2): right})


class TestGammaClosedForms:
    @pytest.mark.parametrize("descriptor", ["gamma(q)", "gamma(qs:2,3)"])
    def test_agree_with_loop_oracle(self, descriptor):
        a = parse_model(descriptor)
        rng = random.Random(descriptor)
        for i in range(200):
            t = random_term(rng, Signature.MV, 2, 4, coeff=12)
            points = sample_elements(a, 20, seed=i)
            for j in range(10):
                env = {xvar(1): points[2 * j], xvar(2): points[2 * j + 1]}
                assert eval_term(a, t, env) == _loop_eval(a, t, env), (t, env)

    def test_huge_multiple_and_power(self):
        big = 100_000_000
        assert eval_term(GQ, Scalar(big, zvar(1)), {zvar(1): (0, Fraction(1, 3))}) == (
            0, Fraction(big, 3))
        assert eval_term(GQ, Power(big, zvar(1)), {zvar(1): (1, Fraction(-1, 3))}) == (
            1, Fraction(-big, 3))
        assert eval_term(GQ, Scalar(big, zvar(1)), {zvar(1): (1, Fraction(-1, 3))}) == (
            1, Fraction(0))
        assert eval_term(GQ, Power(big, zvar(1)), {zvar(1): (0, Fraction(1, 3))}) == (
            0, Fraction(0))


class TestTwoElementModel:
    def test_truncated_arithmetic(self):
        two = TwoMV()
        assert _ev(two, "x1 + x2", Signature.MV, x1=1, x2=1) == 1
        assert _ev(two, "~x1", Signature.MV, x1=0) == 1
        assert _ev(two, "x1^2", Signature.MV, x1=1) == 1

    def test_epsilon_1_exhaustive(self):
        assert check_in_two(build_epsilon_k(1)) == {(0,): (0,), (1,): (1,)}


class TestExactCriteria:
    @pytest.mark.parametrize(
        "model,k,expected",
        [
            (RationalGroup(), 12, True),
            (IntegerGroup(), 1, True),
            (IntegerGroup(), 2, False),
            (LocalizedRationals(frozenset({2, 3})), 12, True),
            (LocalizedRationals(frozenset({2})), 6, False),
            (LocalizedRationals(frozenset()), 1, True),
        ],
    )
    def test_divisibility(self, model, k, expected):
        assert holds_delta_exact(model, k) is expected

    @pytest.mark.parametrize(
        "primes,k,expected",
        [
            ({2}, 2, True),
            ({2}, 3, False),
            ({2, 3}, 6, True),
            ({2, 3}, 5, False),
            (set(), 1, True),
        ],
    )
    def test_epsilon(self, primes, k, expected):
        model = GammaPerfect(LocalizedRationals(frozenset(primes)))
        assert holds_delta_exact(model, k) is expected


class TestSentenceChecking:
    def test_delta_2_fails_on_integers_with_unit_witness(self):
        verdict = check_sentence_sampled(IntegerGroup(), build_delta_k(2), budget=50)
        assert verdict.status == "falsified"
        assert verdict.exact
        env, sols = verdict.witness
        assert Fraction(1) in env.values() and sols == []

    def test_delta_2_holds_on_rationals(self):
        verdict = check_sentence_sampled(RationalGroup(), build_delta_k(2), budget=50)
        assert verdict.status == "consistent-on-sample"
        assert not verdict.exact  # a pass on a sample is never exact

    def test_non_uniqueness_detected(self):
        phi = parse_sentence(
            "forall x1 exists! z1 : z1 + -z1 = 0", Signature.GROUP
        )
        verdict = check_sentence_sampled(RationalGroup(), phi, budget=10)
        assert verdict.status == "falsified"
        assert "two distinct" in verdict.detail

    @pytest.mark.parametrize("descriptor", ["z", "q", "qs:3", "lex(z,q)", "lex(lex(z,q),qs:2)"])
    @pytest.mark.parametrize(
        "text", ["exists! z1 : z1 + -z1 = 0", "forall x1 exists! z1 : z1 + -z1 = 0"]
    )
    def test_every_z_solves_with_a_zero_pool(self, descriptor, text):
        """Two distinct member solutions even when every x is zero."""
        a = parse_model(descriptor)
        phi = parse_sentence(text, Signature.GROUP)
        env = {xvar(i): eval_term(a, ZERO, {}) for i in range(1, phi.n + 1)}
        sols, exact = solutions_for_assignment(a, phi, env)
        assert exact
        assert len(sols) == 2 and sols[0] != sols[1]
        for (z,) in sols:
            check_element(a, z)

    def test_epsilon_solutions_on_gamma(self):
        sols, _ = solutions_for_assignment(
            GQ, build_epsilon_k(2), {xvar(1): (0, Fraction(1))}
        )
        assert sols == [((0, Fraction(1, 2)),)]

    def test_uniqueness_sampled(self):
        verdict = check_sentence_sampled(GQ, build_epsilon_k(3), budget=30)
        assert verdict.status == "consistent-on-sample"

    def test_signature_mismatch_rejected(self):
        with pytest.raises(ModelError):
            check_sentence_sampled(RationalGroup(), build_epsilon_k(2))


class TestDescriptors:
    @pytest.mark.parametrize(
        "text",
        [
            "z",
            "q",
            "qs:2,3",
            "lex(z,qs:2)",
            "lex(qs:2,z)",
            "lex(qs:2,3,q)",
            "lex(z,qs:2,3)",
            "gamma(qs:2,3)",
            "two",
            "cone(q)",
        ],
    )
    def test_roundtrip(self, text):
        assert model_name(parse_model(text)) == text

    def test_unknown_rejected(self):
        with pytest.raises((ModelError, ValueError)):
            parse_model("banana")

    def test_parse_element_literals(self):
        g = parse_model("gamma(q)")
        assert parse_element(g, "(1, -1/3)") == (1, Fraction(-1, 3))
        assert format_element((1, Fraction(-1, 3))) == "(1, -1/3)"
        q = parse_model("q")
        assert parse_element(q, "-7/2") == Fraction(-7, 2)

    @pytest.mark.parametrize(
        "descriptor,text,value",
        [
            ("lex(z,lex(z,q))", "(1, (2, 3))", (1, (2, 3))),
            ("lex(z,lex(z,q))", "(-1,(0, -5/2))", (-1, (0, Fraction(-5, 2)))),
            ("lex(lex(z,q),z)", "((1, 1/2), 4)", ((1, Fraction(1, 2)), 4)),
        ],
    )
    def test_nested_lex_literal_roundtrips(self, descriptor, text, value):
        a = parse_model(descriptor)
        e = parse_element(a, text)
        assert e == value
        assert parse_element(a, format_element(e)) == e

    @pytest.mark.parametrize(
        "text", ["(1, 2, 3)", "(1, (2, 3)", "(1), (2)", "(1, (2, 3), 4)", "()", "1, (2, 3)"]
    )
    def test_malformed_pair_literal_is_rejected(self, text):
        with pytest.raises(ModelError, match="pair literal expected"):
            parse_element(parse_model("lex(z,lex(z,q))"), text)

    def test_species(self):
        assert species(parse_model("q")) is Signature.GROUP
        assert species(parse_model("cone(q)")) is Signature.HOOP
        assert species(parse_model("two")) is Signature.MV

    def test_sampled_elements_are_members(self):
        for text in ["z", "qs:2", "lex(z,qs:2)", "gamma(qs:2,3)", "cone(q)", "two"]:
            a = parse_model(text)
            for e in sample_elements(a, 30, seed=1):
                check_element(a, e)


# ---------------------------------------------------------------------------
# The plain search: every x-assignment drawn up front and solved from
# scratch, a candidate pool filtered element by element, and every equation
# evaluated in full for every candidate.  It is the reference for the
# candidate search behind check_sentence_sampled (two z, and two).  With one
# z, outside two, the solver is exact: every solution it reports solves the
# equations, and it misses none that the plain search finds.


def _oracle_sample(a, rng, cap):
    """One element as the sampler draws it, in Fractions: a numerator in
    [-cap, cap] over a denominator in [1, cap] (Q), over p^j, j <= 2, per p
    in S (Q_S), or over 1 (Z); a lex pair left first; in a cone the larger
    of an inner draw v and -v, in Gamma that one, |v|, as (0, |v|) or
    (1, -|v|) with equal odds; in two a bit."""
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
        return (_oracle_sample(a.left, rng, cap), _oracle_sample(a.right, rng, cap))
    if isinstance(a, TwoMV):
        return rng.randint(0, 1)
    v = _oracle_sample(a.inner, rng, cap)
    mag = _f_join(v, _f_neg(v))
    if isinstance(a, PositiveCone):
        return mag
    return (0, mag) if rng.random() < 0.5 else (1, _f_neg(mag))


def _member(a, e) -> bool:
    try:
        check_element(a, e)
    except ModelError:
        return False
    return True


def _div(a, v, d):
    """v / d in the group model a, or None when it leaves a."""
    if isinstance(a, LexProduct):
        q = (_div(a.left, v[0], d), _div(a.right, v[1], d))
        return None if None in q else q
    q = Fraction(v) / d
    return q if _member(a, q) else None


def _plain_pool(a, xvals, cap=12):
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
                if e not in out and _member(a, e):
                    out.append(e)
        return out
    inner = a.inner if isinstance(a, PositiveCone) else a
    values = {_f_zero(inner)}
    for v in xvals:
        for d in range(1, cap + 1):
            w = _div(inner, v, d)
            if w is not None:
                values.add(w)
                values.add(_f_neg(w))
    return [v for v in sorted(values) if _member(a, v)]


def _solves(a, phi, xassign, zs) -> bool:
    env = dict(xassign)
    for j, zv in enumerate(zs, start=1):
        env[Var("z", j)] = zv
    return all(eval_term(a, lhs, env) == eval_term(a, rhs, env) for lhs, rhs in phi.equations)


def _plain_solutions(a, phi, xassign, cap=12):
    """(solutions, exact) of the candidate search: exact when it is
    exhaustive (two) or finds two solutions."""
    exhaustive = isinstance(a, TwoMV)
    # the values of the z-free sides join the x-values as seeds of the pool
    seeds = list(xassign.values())
    for side in itertools.chain.from_iterable(phi.equations):
        if max_index(side, "z") == 0:
            seeds.append(eval_term(a, side, xassign))
    pool = [0, 1] if exhaustive else _plain_pool(a, seeds, cap)
    sols = []
    for zs in itertools.product(pool, repeat=phi.m):
        if _solves(a, phi, xassign, zs):
            sols.append(zs)
            if len(sols) == 2:
                break
    return sols, exhaustive or len(sols) == 2


def _one_z(a, phi) -> bool:
    return phi.m == 1 and not isinstance(a, TwoMV)


def _exact_solutions(a, phi, xassign):
    """solutions_for_assignment with one z, checked against the plain
    search and eval_term: every reported solution is an element of a that
    solves the equations, they are distinct, and with fewer than two every
    plain-search solution is among them."""
    sols, exact = solutions_for_assignment(a, phi, xassign)
    assert exact and len(sols) <= 2 and len(set(sols)) == len(sols), (phi, xassign, sols)
    for zs in sols:
        for z in zs:
            check_element(a, z)
        assert _solves(a, phi, xassign, zs), (phi, xassign, zs)
    if len(sols) < 2:
        plain, _ = _plain_solutions(a, phi, xassign)
        assert set(plain) <= set(sols), (phi, xassign, plain, sols)
    return sols, exact


def _reference_solutions(a, phi, xassign):
    if _one_z(a, phi):
        return _exact_solutions(a, phi, xassign)
    return _plain_solutions(a, phi, xassign)


def _assignments(a, phi, budget, seed):
    rng = random.Random(seed)
    layout = models._layout(a)
    assignments = [
        {Var("x", i): layout.down(w, 1) for i in range(1, phi.n + 1)} for w in layout.structured(1)
    ]
    while len(assignments) < max(budget, 1):
        assignments.append(
            {Var("x", i): _oracle_sample(a, rng, 12) for i in range(1, phi.n + 1)}
        )
    return assignments[: max(budget, 1)]


def _plain_check(a, phi, budget, seed):
    assignments = _assignments(a, phi, budget, seed)
    for env in assignments:
        sols, exact = _reference_solutions(a, phi, env)
        if len(sols) != 1 and not exact:
            return Verdict(
                "inconclusive", False, (dict(env), []), "sampled: no z-solution among candidates"
            )
        if len(sols) >= 2:
            return Verdict(
                "falsified", True, (dict(env), sols[:2]), "sampled: two distinct z-solutions"
            )
        if not sols:
            return Verdict("falsified", True, (dict(env), []), "sampled: no z-solution")
    distinct = len({tuple(env.values()) for env in assignments})
    return Verdict("consistent-on-sample", False, None, f"sampled: {distinct} distinct x-assignments")


_REFERENCE_SENTENCES = {
    Signature.MV: [
        "epsilon 2",
        "epsilon 3",
        "forall x1 exists! z1 z2 : z1 + z2 = x1 & z1 -. z2 = z2 -. z1",
        "forall x1 exists! z1 : z1 + z1 = x1 & z1 -. x1 = 0",
        "forall x1 exists! z1 z2 : z1 + z2 = x1",
        # z1, z2 that no equation reads
        "forall x1 exists! z1 z2 : z2 = x1",
        "exists! z1 z2 : z2 = ~z2",
    ],
    Signature.GROUP: [
        "delta 2",
        "delta 3",
        "forall x1 x2 exists! z1 z2 : z1 + z2 = x1 & z1 + -z2 = x2",
        r"forall x1 exists! z1 : 2 z1 = x1 & (z1 \/ 0) + (z1 /\ 0) = z1",
        r"forall x1 exists! z1 : z1 \/ 0 = x1 \/ 0",
        "forall x1 exists! z1 z2 : z1 = x1",
        "forall x1 exists! z1 z2 : 2 z2 = x1",
    ],
    Signature.HOOP: [
        "delta 2",
        "delta 3",
        "forall x1 exists! z1 z2 : z1 + z2 = x1 & z1 -. z2 = z2 -. z1",
        "forall x1 exists! z1 : 2 z1 = x1 & z1 -. x1 = 0",
        "forall x1 exists! z1 : z1 -. x1 = 0",
        "forall x1 exists! z1 z2 : z2 = x1",
        "forall x1 exists! z1 z2 : 2 z1 = x1",
    ],
}
_REFERENCE_MODELS = [
    "gamma(q)", "gamma(qs:2,3)", "gamma(z)", "cone(q)", "cone(qs:2)", "q", "lex(z,q)", "two"
]


def _reference_sentence(text, sig):
    head, _, k = text.partition(" ")
    if head == "epsilon":
        return build_epsilon_k(int(k))
    if head == "delta":
        return build_delta_k(int(k), sig)
    return parse_sentence(text, sig)


_RANDOM_MODELS = _REFERENCE_MODELS + ["gamma(qs:5)", "lex(z,qs:2)", "cone(lex(z,q))"]


def _random_sentence(rng, sig, m, depth=3):
    """One or two random equations over x1, x2 and z1..zm."""
    n = rng.randint(1, 2)
    equations = tuple(
        tuple(
            random_term(rng, sig, n, rng.randint(0, depth), coeff=4, kinds=("x", "z"), m=m)
            for _ in range(2)
        )
        for _ in range(rng.randint(1, 2))
    )
    n = max(1, *(max_index(t, "x") for t in itertools.chain.from_iterable(equations)))
    return EFDSentence(sig, n, m, equations)


class TestSolverAgainstPlainSearch:
    """The check's verdict is the one read off each assignment solved from
    scratch; with two z and on two the search is the plain one, witnesses
    included, and with one z every solve passes _exact_solutions."""

    @pytest.mark.parametrize("descriptor", _REFERENCE_MODELS)
    @pytest.mark.parametrize("budget", [1, 7, 50])
    def test_same_verdict(self, descriptor, budget):
        a = parse_model(descriptor)
        sig = species(a)
        for text in _REFERENCE_SENTENCES[sig]:
            phi = _reference_sentence(text, sig)
            for seed in (0, 3, 17):
                expected = _plain_check(a, phi, budget, seed)
                got = check_sentence_sampled(a, phi, budget=budget, seed=seed)
                assert got == expected, (text, seed)
                assert repr(got) == repr(expected), (text, seed)

    @pytest.mark.parametrize("descriptor", _REFERENCE_MODELS + ["lex(z,qs:2)", "cone(lex(z,q))"])
    def test_candidate_pool_is_the_filtered_pool(self, descriptor):
        """_pool on the codes of the x-values at m = D lcm(1..cap), D their
        common denominator, decodes to the plain pool."""
        a = parse_model(descriptor)
        layout = models._layout(a)
        rng = random.Random(descriptor)
        for trial in range(40):
            xvals = sample_elements(a, rng.randint(1, 3), seed=trial)
            cap = rng.randint(1, 12)
            m = math.lcm(*map(layout.den, xvals)) * math.lcm(*range(1, cap + 1))
            pool = models._pool(a, [layout.up(v, m) for v in xvals], m, cap)
            assert repr([layout.down(w, m) for w in pool]) == repr(_plain_pool(a, xvals, cap))

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("descriptor", _RANDOM_MODELS)
    def test_random_sentences(self, descriptor, m):
        # the witnesses must be the same Fractions in the same order
        a = parse_model(descriptor)
        rng = random.Random(f"{descriptor} {m}")
        for seed in range(8):
            phi = _random_sentence(rng, species(a), m)
            expected = _plain_check(a, phi, 12, seed)
            assert repr(check_sentence_sampled(a, phi, budget=12, seed=seed)) == repr(expected), phi

    @pytest.mark.parametrize("descriptor", _RANDOM_MODELS)
    def test_random_assignments(self, descriptor):
        # every solution is reported, a unique one included
        a = parse_model(descriptor)
        rng = random.Random(descriptor)
        for seed in range(16):
            phi = _random_sentence(rng, species(a), 1 + seed % 2)
            xs = sample_elements(a, 4 * phi.n, seed)
            for j in range(0, len(xs), phi.n):
                env = {xvar(i): x for i, x in enumerate(xs[j : j + phi.n], start=1)}
                if _one_z(a, phi):
                    _exact_solutions(a, phi, env)
                else:
                    expected = _plain_solutions(a, phi, env)
                    assert repr(solutions_for_assignment(a, phi, env)) == repr(expected), (phi, env)


class TestSeveralZ:
    def test_each_equation_is_tested_once_its_last_z_is_set(self, monkeypatch):
        """z1, z2, z3 are set in turn, and z_j = x1 is tested at each value of
        z_j, once per setting of z1 .. z_{j-1} that passed: 3 tests per pool
        value at each assignment, not one per triple of pool values."""
        tests, sizes = [], []

        class Code(int):  # a pool code that notes each comparison with an x-code
            __hash__ = int.__hash__

            def __eq__(self, other):
                if type(other) is int:
                    tests.append(other)
                return int.__eq__(self, other)

            def __ne__(self, other):
                return not self == other

        def noted_pool(*args, _pool=models._pool):
            pool = _pool(*args)
            sizes.append(len(pool))
            return [Code(w) for w in pool]

        monkeypatch.setattr(models, "_pool", noted_pool)
        text = "forall x1 exists! z1 z2 z3 : z1 = x1 & z2 = x1 & z3 = x1"
        verdict = check_sentence_sampled(RationalGroup(), parse_sentence(text, Signature.GROUP), budget=5)
        assert verdict.detail == "sampled: 4 distinct x-assignments"
        assert len(sizes) == 4 and max(sizes) > 20
        assert len(tests) == 3 * sum(sizes)

    def test_the_bound_ends_the_sample_after_the_solved_assignments(self, monkeypatch):
        """Past _SEARCH_BOUND the check passes on the assignments whose
        searches finished, and raises where the first one does not finish."""
        solved = []

        def noted_solve(self, xcodes, _solve=models._Solver.solve_codes):
            result = _solve(self, xcodes)
            solved.append(self.tests)
            return result

        monkeypatch.setattr(models._Solver, "solve_codes", noted_solve)
        monkeypatch.setattr(models, "_SEARCH_BOUND", 50_000)
        text = "forall x1 x2 exists! z1 z2 : z1 + z2 = x1 + x2 & z1 + -z2 = x1 + -x2"
        verdict = check_sentence_sampled(RationalGroup(), parse_sentence(text, Signature.GROUP))
        assert 1 < len(solved) < 100 and solved[-1] <= 50_000
        detail = f"sampled: {len(solved)} distinct x-assignments (search bound 50000 reached)"
        assert (verdict.status, verdict.detail) == ("consistent-on-sample", detail)
        monkeypatch.setattr(models, "_SEARCH_BOUND", 3)
        with pytest.raises(BudgetExceeded, match="more than 3 z-values"):
            check_sentence_sampled(TwoMV(), parse_sentence(r"exists! z1 z2 : z1 /\ z2 = ~0", Signature.MV))


# scalar groups, cones and Gamma models, and lex models whose zero pieces are
# counted coordinate by coordinate
_ONE_Z_MODELS = [
    "q", "z", "qs:2", "qs:2,3", "cone(q)", "cone(z)", "gamma(q)", "gamma(qs:2)",
    "lex(z,q)", "lex(z,qs:2)", "cone(lex(z,q))",
]


class TestOneZExact:
    @pytest.mark.parametrize("descriptor", _ONE_Z_MODELS)
    def test_random_one_z_sentences(self, descriptor):
        """Random one-z sentences (one or two equations, depth <= 4) on the
        check's own assignments: each solve passes _exact_solutions, and each
        sampled element that solves the equations is reported unless two
        others are."""
        a = parse_model(descriptor)
        rng = random.Random(f"one-z {descriptor}")
        probes = sample_elements(a, 24, seed=5)
        for seed in range(30):
            phi = _random_sentence(rng, species(a), 1, depth=4)
            for env in _assignments(a, phi, 8, seed):
                sols, _ = _exact_solutions(a, phi, env)
                if len(sols) < 2:
                    for z in probes:
                        assert not _solves(a, phi, env, (z,)) or (z,) in sols, (phi, env, z)

    @pytest.mark.parametrize(
        "descriptor, text, expected",
        [
            # a segment of solutions: two elements of the zero piece
            ("lex(z,q)", r"forall x1 exists! z1 : z1 /\ x1 = x1", 2),
            ("lex(z,qs:2)", r"forall x1 exists! z1 : (z1 \/ x1) + -x1 = 0", 2),
            ("cone(lex(z,q))", r"forall x1 exists! z1 : z1 -. x1 = 0", 2),
            # z in [0, x1 / 2]: one integer at x1 = 1, two elements of Q and Q_3
            ("z", r"forall x1 exists! z1 : (2 z1 \/ 0) /\ x1 = 2 z1", 1),
            ("q", r"forall x1 exists! z1 : (2 z1 \/ 0) /\ x1 = 2 z1", 2),
            ("qs:3", r"forall x1 exists! z1 : (2 z1 \/ 0) /\ x1 = 2 z1", 2),
            # two crossings, one root on each side
            ("q", r"forall x1 exists! z1 : -z1 \/ 4 z1 = (x1 \/ z1) + (x1 \/ z1)", 2),
        ],
    )
    def test_zero_pieces_and_crossings(self, descriptor, text, expected):
        a = parse_model(descriptor)
        phi = parse_sentence(text, species(a))
        x = Fraction(1) if descriptor in ("z", "q", "qs:3") else sample_elements(a, 1, seed=2)[0]
        sols, _ = _exact_solutions(a, phi, {_X1: x})
        assert len(sols) == expected, (sols, x)

    @pytest.mark.parametrize("descriptor", _ONE_Z_MODELS)
    def test_pieces_agree_with_eval_term(self, descriptor):
        """The pieces of random one-z terms (depth <= 4) at sampled x, read
        pointwise: at sampled z and at each piece start that is an element,
        the covering piece a z + b, decoded, is eval_term's value, and at a
        start the piece before it reaches the same value.  Terms that share
        a node object run it once per reference."""
        import efdkit.onez as onez

        a = parse_model(descriptor)
        hull = onez._Hull(a)
        layout = models._layout(a)
        den, up = layout.den, layout.up
        rng = random.Random(f"pieces {descriptor}")
        zs = sample_elements(a, 16, seed=11)
        slots = {("x", 1): 0, ("x", 2): 1, ("z", 1): 2}
        starts = 0
        for trial in range(40):
            t = random_term(rng, species(a), 2, rng.randint(1, 4), coeff=4, kinds=("x", "z"), m=1)
            if trial % 4 == 1:
                t = Plus(t, t)
            elif trial % 4 == 2:
                t = Join(t, Meet(t, Var("z", 1)))
            xs = sample_elements(a, 2, seed=trial)
            m = math.lcm(*map(den, xs + zs))
            pieces = hull.compile(t, slots)[0](tuple(up(x, m) for x in xs))
            inner = [l for l, _, _ in pieces[1:]]
            for p in [(up(z, m), 1) for z in zs] + inner:
                z = _hull_element(a, hull, p, m)
                if z is None:
                    continue
                i = max(i for i, (l, _, _) in enumerate(pieces) if l is None or hull.le(l, p))
                expected = eval_term(a, t, {_X1: xs[0], _X2: xs[1], Var("z", 1): z})
                assert _piece_value(a, hull, pieces[i], p, m) == expected, (t, xs, z)
                if i and pieces[i][0] == p:
                    starts += 1
                    assert _piece_value(a, hull, pieces[i - 1], p, m) == expected, (t, xs, z)
        assert starts > 0


# the models of the solving-on-codes comparison
_CODE_MODELS = [
    "q", "z", "qs:2,3", "cone(q)", "cone(qs:2)", "lex(z,q)", "lex(q,qs:2)",
    "gamma(q)", "gamma(z)", "gamma(qs:2,3)",
]
# per signature, a sentence met by a zero piece and one with two roots at some x
_CODE_SENTENCES = {
    Signature.GROUP: [
        r"forall x1 exists! z1 : (z1 \/ x1) + -x1 = 0", r"forall x1 exists! z1 : z1 \/ -z1 = x1",
    ],
    Signature.HOOP: [
        "forall x1 exists! z1 : z1 -. x1 = 0",
        "forall x1 exists! z1 : (z1 -. x1) + (x1 -. z1) = x1",
    ],
    Signature.MV: [
        "forall x1 exists! z1 : z1 -. x1 = 0",
        "forall x1 exists! z1 : (z1 -. x1) + (x1 -. z1) = x1",
    ],
}


class TestSolvingOnCodes:
    @pytest.mark.parametrize("descriptor", _CODE_MODELS)
    def test_solve_on_codes_decodes_to_every_root_decoded(self, descriptor, monkeypatch):
        """_Hull.solve, its points decoded, gives the elements, in the same
        order, that it gave when it decoded each root it met and tabled
        every piece: on random one-z sentences and on sentences met by zero
        pieces and by two roots, at the check's own assignments."""
        import efdkit.onez as onez

        seen, solve, table, pieces = Counter(), onez._Hull.solve, onez._Hull.table, {}

        def noted(hull, f):
            tabled = table(hull, f)
            pieces[id(tabled)] = tabled, f
            return tabled

        def compared(hull, tabled, c, m, parts):
            found = solve(hull, tabled, c, m, parts)
            layout = models._layout(a)
            expected = _decode_every_root(hull, layout.shape, pieces[id(tabled)][1], c, m, seen)
            assert repr([layout.down(w, m, q) for w, q in found]) == repr(expected), (tabled, c)
            seen[len(found)] += 1
            return found

        monkeypatch.setattr(onez._Hull, "table", noted)
        monkeypatch.setattr(onez._Hull, "solve", compared)
        a = parse_model(descriptor)
        sig = species(a)
        rng = random.Random(f"codes {descriptor}")
        sentences = [parse_sentence(text, sig) for text in _CODE_SENTENCES[sig]]
        sentences += [_random_sentence(rng, sig, 1, depth=4) for _ in range(30)]
        for seed, phi in enumerate(sentences):
            solver = models._Solver(a, phi)
            for env in _assignments(a, phi, 8, seed):
                solver.solve(env)
        assert seen["zero"] > 0 and seen[2] > 0 and seen[1] > 0, seen


def _decode_every_root(hull, shape, f, c, m, seen):
    """The solutions of h(z) = c for the pieces f of h, as the hull found
    them when it tabled every piece, decoded every root it met, a repeated
    one included, and compared elements: its table, solve, _root and
    _points, with shape the layout's.  Counts the zero pieces met in
    seen["zero"]."""
    big, rows = _table_every_piece(hull, f)
    cl = c if big == 1 else hull.codes.scale(big, c)
    found = []
    for low, high, a, b, l, r in rows:
        if (low is None or low <= cl) and (high is None or cl <= high):
            seen["zero"] += not a
            if a:
                points = _root_element(hull, shape, hull.codes.sub(c, b), a, m)
            else:
                points = _point_elements(hull, shape, l, r, m)
            for e in points:
                if e not in found:
                    found.append(e)
                    if len(found) == 2:
                        return found
    return found


def _table_every_piece(hull, f):
    hi, add, scale = hull.hi, hull.codes.add, hull.codes.scale
    rows, dens = [], set()
    for i, (l, a, b) in enumerate(f):
        r = f[i + 1][0] if i + 1 < len(f) else hi
        if a == 0:
            vl = vr = (b, 1)
        else:
            vl = None if l is None else (add(scale(a, l[0]), scale(l[1], b)), l[1])
            vr = None if r is None else (add(scale(a, r[0]), scale(r[1], b)), r[1])
            if a < 0:
                vl, vr = vr, vl
            dens.update(v[1] for v in (vl, vr) if v is not None)
        rows.append((vl, vr, a, b, l, r))
    big = math.lcm(*dens)

    def up(v):
        return None if v is None else scale(big // v[1], v[0])

    return big, [(up(vl), up(vr), a, b, l, r) for vl, vr, a, b, l, r in rows]


def _root_element(hull, shape, w, a, m):
    if a < 0:
        w, a = hull.codes.neg(w), -a
    values = []
    for x, (group, scaled) in zip(hull.coords(w), hull.leaves):
        n = a * m if scaled else a
        if x % models._prime_part(group, n):
            return ()
        values.append(Fraction(x, n) if scaled else x // n)
    return (shape(iter(values)),)


def _point_elements(hull, shape, l, r, m):
    import efdkit.onez as onez

    def actual(v):
        if v is None:
            return None
        n, q = v
        return tuple(
            Fraction(x, q * m if scaled else q) for x, (_, scaled) in zip(hull.coords(n), hull.leaves)
        )

    return [shape(iter(e)) for e in onez._lex_points(hull.leaves, actual(l), actual(r), 2)]


def _hull_element(a, hull, p, m):
    """The element at the hull point p = (n, q) at scale m, or None: the
    first coordinate of a Gamma pair is n / q, every other one n / (q m)."""
    n, q = p
    values = [
        Fraction(x, q * m if scaled else q) for x, (_, scaled) in zip(hull.coords(n), hull.leaves)
    ]
    if any(v.denominator != 1 for v, (_, scaled) in zip(values, hull.leaves) if not scaled):
        return None
    e = models._layout(a).shape(iter(values))
    return e if models._element_ok(a, e) else None


def _piece_value(a, hull, piece, p, m):
    """The element that the piece a z + b reaches at the hull point
    p = (n, q): (a n + q b) / q, decoded."""
    _, k, b = piece
    n, q, codes = *p, hull.codes
    return _hull_element(a, hull, (codes.add(codes.scale(k, n), codes.scale(q, b)), q), m)


class TestSolverWork:
    """Deterministic work counts of one sampled check: runs of equation
    sides compiled over the hull and over codes, pool builds, sample draws
    and membership tests.  With one z an x-free side such as t_k(z1) runs
    on the hull once per check and each assignment runs only its z-free
    side; the candidate search made 67 pool builds and 625 evaluations on
    the first case, the search before it 100 and 4,864.  Each x-value is
    drawn by one draw of _Layout.drawer, as its code.  A root of the pieces lies in
    the model's domain already, so no _Layout.member test runs (127 and 174
    when each root was tested)."""

    @pytest.fixture
    def counts(self, monkeypatch):
        import efdkit.onez as onez

        counts = Counter()

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(models, "_pool")
        count(models._Layout, "member")
        drawer = models._Layout.drawer

        def counted_drawer(layout, cap):
            draw = drawer(layout, cap)

            def counted(rng, m):
                counts["draw"] += 1
                return draw(rng, m)

            return counted

        monkeypatch.setattr(models._Layout, "drawer", counted_drawer)
        evaluator = models._evaluator

        def counted_evaluator(a):
            compile_, layout = evaluator(a)

            def counted_compile(t, slots):
                fn, reads = compile_(t, slots)

                def counted_fn(codes):
                    counts["walk"] += 1
                    return fn(codes)

                return counted_fn, reads

            return counted_compile, layout

        monkeypatch.setattr(models, "_evaluator", counted_evaluator)
        hull_compile = onez._Hull.compile

        def counted_hull_compile(hull, t, slots):
            fn, reads = hull_compile(hull, t, slots)

            def counted_fn(xcodes):
                counts["hull"] += 1
                return fn(xcodes)

            return counted_fn, reads

        monkeypatch.setattr(onez._Hull, "compile", counted_hull_compile)
        scales = counts["scales"] = []
        solve_codes = models._Solver.solve_codes

        def scale_noting_solve(solver, xcodes):
            found = solve_codes(solver, xcodes)
            scales.append(solver.scale)
            return found

        monkeypatch.setattr(models._Solver, "solve_codes", scale_noting_solve)
        return counts

    def test_each_distinct_assignment_is_solved_once(self, counts):
        verdict = check_sentence_sampled(GQ, build_epsilon_k(3), budget=100, seed=0)
        assert verdict.status == "consistent-on-sample"
        assert counts["hull"] == 1
        assert counts["_pool"] == 0
        assert counts["member"] == 0
        # x1, the z-free side, once per distinct assignment
        assert counts["walk"] == 67
        # the scale is fixed before the first solve: lcm(1..12) twice
        assert set(counts["scales"]) == {27720**2}
        # 96 sampled pairs, each drawn once
        assert counts["draw"] == 96
        structured = [(0, 0), (0, 1), (1, -1), (1, 0)]
        assert len(set(structured + sample_elements(GQ, 96, seed=0))) == 67

    def test_the_fixed_scale_keeps_every_memo_hit(self, counts):
        # denominators 2^a 3^b, a, b <= 2, are in the scale from the start, so
        # it never grows
        a = parse_model("gamma(qs:2,3)")
        verdict = check_sentence_sampled(a, build_epsilon_k(6), budget=100, seed=0)
        assert verdict.status == "consistent-on-sample"
        assert set(counts["scales"]) == {27720 * 36}
        assert counts["hull"] == 1
        assert counts["_pool"] == 0
        assert counts["member"] == 0
        assert counts["walk"] == 58
        assert counts["draw"] == 96

    def test_sampling_is_lazy(self, counts):
        phi = parse_sentence("forall x1 exists! z1 : z1 -. z1 = x1", Signature.MV)
        verdict = check_sentence_sampled(GQ, phi, budget=100, seed=0)
        assert verdict.status == "falsified"
        assert verdict.exact
        assert verdict.witness[0] == {_X1: (0, Fraction(0))}
        assert verdict.detail == "sampled: two distinct z-solutions"
        assert counts["draw"] == 0
        assert counts["hull"] == 1

    def test_the_two_element_model_is_not_scaled(self, counts):
        assert check_in_two(build_epsilon_k(3)) == {(0,): (0,), (1,): (1,)}
        assert counts["_pool"] == 0
        assert counts["hull"] == 0

    @pytest.mark.parametrize("descriptor", ["gamma(q)", "gamma(qs:2,3)"])
    def test_a_passing_check_decodes_nothing(self, descriptor, monkeypatch):
        """A passing check solves each assignment on codes: onez builds no
        Fraction, and the prime parts of its root test are taken with the
        table and the scale, the same number at budget 10 and at 100."""
        import efdkit.onez as onez

        counts = Counter()
        for owner, name in ((onez, "Fraction"), (onez, "_prime_part"), (models, "_prime_part")):
            original = getattr(owner, name)

            def counted(*args, _original=original, _name=name):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(owner, name, counted)
        a, parts = parse_model(descriptor), []
        for budget in (10, 100):
            verdict = check_sentence_sampled(a, build_epsilon_k(3), budget=budget, seed=0)
            assert verdict.status == "consistent-on-sample"
            parts.append(counts.pop("_prime_part", 0))
        assert counts["Fraction"] == 0
        assert parts[0] == parts[1] > 0

    def test_a_refutation_decodes_what_it_prints(self, monkeypatch):
        """|z| = x1 has the two roots -x1 and x1 at x1 = (1, 0), the first
        assignment past 0; the check decodes those two and no other."""
        decoded, decode = [], models._Solver.decode

        def noted(solver, sols):
            decoded.extend(decode(solver, sols))
            return decoded[len(decoded) - len(sols):]

        monkeypatch.setattr(models._Solver, "decode", noted)
        phi = parse_sentence(r"forall x1 exists! z1 : z1 \/ -z1 = x1", Signature.GROUP)
        verdict = check_sentence_sampled(parse_model("lex(z,q)"), phi, budget=100, seed=0)
        assert verdict.detail == "sampled: two distinct z-solutions"
        assert verdict.witness == ({_X1: (1, 0)}, [((-1, 0),), ((1, 0),)])
        assert decoded == [((-1, 0),), ((1, 0),)]

    def test_a_gamma_root_decodes_its_bit(self):
        """~z + ~z = x1 at x1 = (0, 1) has the one root (1, -1/2): the point
        ((2, -M), 2) of a piece of slope -2, whose bit is 2 / 2."""
        a = parse_model("gamma(q)")
        phi = parse_sentence("forall x1 exists! z1 : ~z1 + ~z1 = x1", Signature.MV)
        solver, env = models._Solver(a, phi), {_X1: (0, Fraction(1))}
        sols, exact = solver.solve_codes(solver.codes(env))
        assert exact and sols == [(((2, -solver.scale), 2),)]
        assert solver.decode(sols) == [((1, Fraction(-1, 2)),)]
        assert models._layout(a).down((2, -solver.scale), solver.scale, 2) == (1, Fraction(-1, 2))

    def test_a_build_walks_each_side_once(self, monkeypatch):
        """A solver folds each equation side once, to compile it, and reads
        the variables of the side off the slots the compile reads."""
        import efdkit.terms as terms

        phi, folds, fold = build_epsilon_k(3), [], terms.fold

        def counted(t, f):
            folds.append(f)
            return fold(t, f)

        monkeypatch.setattr(models, "fold", counted)
        monkeypatch.setattr(terms, "fold", counted)
        models._Solver(TwoMV(), phi)
        assert len(folds) == 2

    def test_the_decomposition_suite_decodes_what_it_reads(self, monkeypatch):
        """suite_decomposition reads solution counts, except in its
        radical-preservation check, which reads the solutions of the branch
        whose sign vector is (0,).  It decodes those only: at budget 20, 43
        solutions in 47 of its 392 solves (352 solutions in 384 solves when
        it solved through _Solver.solve, which decodes each)."""
        from efdkit import selftest

        decoded, solves = [], []
        decode, solve_codes = models._Solver.decode, models._Solver.solve_codes

        def noted_decode(solver, sols):
            decoded.append((solver.phi, len(sols)))
            return decode(solver, sols)

        def noted_solve(solver, xcodes):
            solves.append(solver.phi)
            return solve_codes(solver, xcodes)

        monkeypatch.setattr(models._Solver, "decode", noted_decode)
        monkeypatch.setattr(models._Solver, "solve_codes", noted_solve)
        assert selftest.suite_decomposition(budget=20).passed
        assert (len(decoded), sum(n for _, n in decoded), len(solves)) == (47, 43, 392)
        radical = {p.sentence for k in (2, 3) for p in phi_rad_decompose(build_epsilon_k(k))
                   if p.sign_vector == (0,)}
        assert {phi for phi, _ in decoded} == radical


class TestDrawSpace:
    @pytest.mark.parametrize(
        "descriptor, sig, text, distinct",
        [
            ("gamma(q)", Signature.MV, "epsilon 3", 184),
            ("z", Signature.GROUP, "forall x1 exists! z1 : z1 = x1", 25),
            ("cone(qs:2)", Signature.HOOP, "forall x1 x2 exists! z1 : z1 = x1 + x2", 25**2),
            ("two", Signature.MV, "forall x1 x2 exists! z1 : z1 = x1 /\\ x2", 4),
        ],
    )
    def test_a_check_stops_when_every_assignment_was_drawn(
        self, descriptor, sig, text, distinct, monkeypatch
    ):
        """Once every assignment the structured values and the draws can
        give was solved, a check stops; the budget would only draw them
        again (gamma(q) epsilon_3 took 4 s to spend this one).  Each of
        them is solved once, and the draws stop with the last new one."""
        a = parse_model(descriptor)
        phi = _reference_sentence(text, sig)
        counts, solve_codes, drawer = Counter(), models._Solver.solve_codes, models._Layout.drawer

        def counted_solve(solver, xcodes):
            counts["solve"] += 1
            return solve_codes(solver, xcodes)

        def counted_drawer(layout, cap):
            draw = drawer(layout, cap)

            def counted(rng, m):
                counts["draw"] += 1
                return draw(rng, m)

            return counted

        monkeypatch.setattr(models._Solver, "solve_codes", counted_solve)
        monkeypatch.setattr(models._Layout, "drawer", counted_drawer)
        verdict = check_sentence_sampled(a, phi, budget=1_000_000, seed=0)
        assert verdict.status == "consistent-on-sample"
        assert verdict.detail == f"sampled: {distinct} distinct x-assignments"
        assert counts["solve"] == distinct == models._layout(a).space**phi.n
        assert counts["draw"] < 100 * distinct

    def test_many_primes_build_no_draw_space(self):
        """A layout of Q_S lists none of the 3^|S| denominators its draws
        have: with the first 20 primes it counts its space per numerator,
        eval answers and a check runs."""
        primes = [p for p in range(2, 72) if all(p % q for q in range(2, p))]
        a = parse_model("qs:" + ",".join(map(str, primes)))
        assert len(primes) == 20
        t = parse_term("x1 + x1", Signature.GROUP)
        assert eval_term(a, t, {_X1: Fraction(1, 2 * 71**2)}) == Fraction(1, 71**2)
        # 0 and +-n/d in lowest terms: d is one of 3^20 products, with 3
        # choices per prime that does not divide n and 1 per prime that does
        counts = [3 ** sum(n % p != 0 for p in primes) for n in range(1, models._CAP + 1)]
        assert models._layout(a).space == 1 + 2 * sum(counts)
        phi = _reference_sentence("forall x1 exists! z1 : z1 = x1", Signature.GROUP)
        verdict = check_sentence_sampled(a, phi, budget=50, seed=0)
        assert verdict.status == "consistent-on-sample"
        assert verdict.detail == "sampled: 47 distinct x-assignments"  # of 50 drawn


class TestFixedScale:
    @pytest.mark.parametrize(
        "descriptor",
        ["z", "q", "qs:2,3", "lex(q,lex(z,qs:2))", "lex(lex(qs:3,q),z)", "cone(lex(z,q))", "gamma(qs:5)"],
    )
    def test_every_sampled_denominator_divides_the_sample_den(self, descriptor):
        a = parse_model(descriptor)
        layout = models._layout(a)
        den = layout.den
        for cap in range(1, 13):
            sample_den = layout.sample_den(cap)
            for e in sample_elements(a, 200, seed=cap, cap=cap):
                assert sample_den % den(e) == 0, (cap, e)

    @pytest.mark.parametrize(
        "descriptor, phi, outside, growth",
        [
            ("gamma(q)", build_epsilon_k(3), (0, Fraction(1, 13)), 13),
            (
                "qs:7",
                parse_sentence(r"forall x1 exists! z1 : z1 \/ 2 z1 = x1", Signature.GROUP),
                Fraction(1, 343),
                7,
            ),
            (
                "gamma(q)",
                parse_sentence("forall x1 exists! z1 z2 : z1 + z2 = x1 & z1 = z2", Signature.MV),
                (0, Fraction(1, 13)),
                13,
            ),
            (
                "qs:7",
                parse_sentence(
                    r"forall x1 exists! z1 z2 : z1 \/ 2 z2 = x1 & z1 = z2", Signature.GROUP
                ),
                Fraction(1, 343),
                7,
            ),
        ],
    )
    def test_values_outside_the_scale_raise_it(self, descriptor, phi, outside, growth):
        """A caller's own x-value whose denominator no sample has raises the
        scale.  The memo stays, as a compiled or folded side maps codes to
        codes at every scale, and solutions are decoded at the new one: one
        solver answers as a fresh one, before and after (one z: checked
        against eval_term and the plain search; two: the plain search)."""
        a = parse_model(descriptor)
        solver = models._Solver(a, phi)
        scale = solver.scale
        for x in sample_elements(a, 3, seed=1) + [outside] + sample_elements(a, 3, seed=2):
            env = {_X1: x}
            assert repr(solver.solve(env)) == repr(_reference_solutions(a, phi, env)), x
        assert solver.scale == scale * growth


# every shape of layout: scalar groups, nested lex products, cones of a scalar
# and of a lex product, Gamma over each scalar group, and two
_LAYOUT_MODELS = [
    "z", "q", "qs:2,3", "qs:5,7,11", "lex(z,lex(z,q))", "lex(qs:3,q)", "cone(lex(z,q))",
    "cone(qs:2)", "gamma(q)", "gamma(z)", "gamma(qs:5)", "two",
]


# every layout species, and Gamma over a lex product
_DRAW_MODELS = [parse_model(d) for d in _LAYOUT_MODELS] + [
    GammaPerfect(LexProduct(IntegerGroup(), RationalGroup())),
]


def _delta_reference(a, k):
    """k-divisibility read off the algebra, factor by factor."""
    if isinstance(a, RationalGroup):
        return True
    if isinstance(a, IntegerGroup):
        return k == 1
    if isinstance(a, LocalizedRationals):
        return qs_member(Fraction(1, k), a.primes)
    if isinstance(a, LexProduct):
        return _delta_reference(a.left, k) and _delta_reference(a.right, k)
    return _delta_reference(a.inner, k)


class TestLayout:
    @pytest.mark.parametrize("cap", [1, 5, 9, 12])
    @pytest.mark.parametrize("descriptor", _LAYOUT_MODELS)
    def test_sample_elements_follow_the_fraction_sampler(self, descriptor, cap):
        a = parse_model(descriptor)
        for seed in range(3):
            rng = random.Random(seed)
            expected = [_oracle_sample(a, rng, cap) for _ in range(40)]
            assert repr(sample_elements(a, 40, seed, cap)) == repr(expected), seed

    @pytest.mark.parametrize("descriptor", _LAYOUT_MODELS)
    def test_coordinates_codes_and_membership(self, descriptor):
        """flat and shape, and up and down, are inverse; member(w, m) agrees
        with check_element on down(w, m), for random integer codes w."""
        a = parse_model(descriptor)
        layout = models._layout(a)
        rng = random.Random(descriptor)
        for e in sample_elements(a, 60, seed=4):
            assert layout.shape(iter(layout.flat(e))) == e
            m = layout.den(e) * rng.choice([1, 2, 3, 35])
            assert repr(layout.down(layout.up(e, m), m)) == repr(e)
        accepted = 0
        for _ in range(400):
            m = rng.choice([1, 2, 6, 12, 35, 105, 360])
            coords = [
                rng.randint(-2, 3) if not scaled else rng.randint(-3 * m, 3 * m)
                for _, scaled in layout.leaves
            ]
            w = coords[0] if len(coords) == 1 else tuple(coords)
            member = layout.member(w, m)
            assert member == models._element_ok(a, layout.down(w, m)), (w, m)
            accepted += member
        assert accepted > 0

    @pytest.mark.parametrize("descriptor", _LAYOUT_MODELS)
    def test_delta_is_decided_per_scaled_coordinate(self, descriptor):
        a = parse_model(descriptor)
        for k in range(1, 13):
            if isinstance(a, TwoMV):
                with pytest.raises(ModelError):
                    holds_delta_exact(a, k)
            else:
                assert holds_delta_exact(a, k) is _delta_reference(a, k), k

    def test_equal_prime_sets_sample_alike(self):
        """3 and 11 fall into one slot of a small set, so the order in which
        a set of them was built decides its iteration order; a layout is
        shared by equal algebras, so the sampler must not depend on it."""
        built = [frozenset([3, 11]), frozenset([11, 3])]
        assert list(built[0]) != list(built[1])
        draws = [sample_elements(LocalizedRationals(s), 30, seed=2) for s in built]
        models._layout.cache_clear()
        assert sample_elements(LocalizedRationals(built[1]), 30, seed=2) == draws[0] == draws[1]

    # the x-values a sampled check tried first when they were listed per
    # model class; the layout must give the same values in the same order
    @pytest.mark.parametrize(
        "descriptor,expected",
        [
            ("z", [0, 1, -1]),
            ("q", [0, 1, -1]),
            ("qs:2,3", [0, 1, -1]),
            ("cone(q)", [0, 1]),
            ("cone(qs:2)", [0, 1]),
            ("gamma(z)", [(0, 0), (0, 1), (1, -1), (1, 0)]),
            ("gamma(q)", [(0, 0), (0, 1), (1, -1), (1, 0)]),
            ("gamma(qs:5)", [(0, 0), (0, 1), (1, -1), (1, 0)]),
            ("two", [0, 1]),
        ],
    )
    def test_structured_values_of_scalar_models(self, descriptor, expected):
        layout = models._layout(parse_model(descriptor))
        assert [layout.down(w, 1) for w in layout.structured(1)] == expected
        for m in (6, 35):
            assert layout.structured(m) == [layout.up(e, m) for e in expected]

    @pytest.mark.parametrize(
        "a",
        [
            parse_model("lex(z,q)"),
            parse_model("lex(q,lex(z,qs:2))"),
            parse_model("cone(lex(z,q))"),
            GammaPerfect(LexProduct(IntegerGroup(), LexProduct(RationalGroup(), IntegerGroup()))),
        ],
        ids=model_name,
    )
    def test_structured_values_of_lex_models(self, a):
        """0 first, then +e and -e for the unit e of each coordinate of the
        group (+e only in a cone), and in Gamma the pairs (0, e) followed by
        their complements (1, -e), last first."""
        layout = models._layout(a)
        values = [layout.down(w, 1) for w in layout.structured(1)]
        for e in values:
            check_element(a, e)
        over = isinstance(a, (PositiveCone, GammaPerfect))
        k = len(models._layout(a.inner if over else a).leaves)
        signs = (1,) if over else (1, -1)
        group = [(0,) * k] + [tuple(s * (i == j) for j in range(k)) for i in range(k) for s in signs]
        if isinstance(a, GammaPerfect):
            group = [(0, *g) for g in group]
            group += [(1, *[-x for x in g[1:]]) for g in reversed(group)]
        assert [layout.flat(e) for e in values] == group

    def test_gamma_over_a_lex_product_is_checked_on_flat_codes(self):
        """Gamma(Z lex (Z lex Q)) has three coordinates, so its codes, hull
        points and pool are flat triples.  epsilon_2 fails at an x whose Z
        coordinate is odd, as no element doubles to it; epsilon_1 holds."""
        a = GammaPerfect(LexProduct(IntegerGroup(), RationalGroup()))
        refuted = check_sentence_sampled(a, build_epsilon_k(2), budget=50, seed=1)
        assert (refuted.status, refuted.exact, refuted.detail) == (
            "falsified", True, "sampled: no z-solution"
        )
        (x,) = refuted.witness[0].values()
        check_element(a, x)
        assert x[1][0] % 2 == 1
        held = check_sentence_sampled(a, build_epsilon_k(1), budget=50, seed=1)
        assert held.status == "consistent-on-sample"

    @pytest.mark.parametrize("a", _DRAW_MODELS, ids=model_name)
    def test_each_layout_draws_the_generic_stream(self, a):
        """The draw a layout builds for itself gives the codes of the
        generic draw, from the same calls of the stream."""
        layout = models._layout(a)
        m = models._LCM_CAP * layout.sample_den(models._CAP)
        draw = layout.drawer(models._CAP)
        for seed in range(3):
            rng, oracle = random.Random(seed), random.Random(seed)
            drawn = [draw(rng, m) for _ in range(1000)]
            expected = [_generic_draw(layout, oracle, models._CAP, m) for _ in range(1000)]
            assert drawn == expected, seed
            assert rng.getstate() == oracle.getstate(), seed

    @pytest.mark.parametrize("a", _DRAW_MODELS, ids=model_name)
    def test_space_counts_every_code_drawn(self, a):
        """space is the number of codes the draw gives at a check's scale,
        and the structured values are among them."""
        layout = models._layout(a)
        m = models._LCM_CAP * layout.sample_den(models._CAP)
        space = _draw_space(layout, m)
        assert layout.space == len(space)
        assert set(layout.structured(m)) <= space
        rng, draw = random.Random(model_name(a)), layout.drawer(models._CAP)
        assert all(draw(rng, m) in space for _ in range(500))


def _generic_draw(layout, rng, cap, m):
    """One draw of a layout, built per call from the draws of its scaled
    coordinates: the larger of v and -v in a cone, that one as (0, |v|) or
    (1, -|v|) in Gamma, a bit in two."""
    draws = [models._scalar_draw(group, cap) for group, scaled in layout.leaves if scaled]
    if not draws:
        return rng.randint(0, 1)
    v = [f(rng, m) for f in draws]
    if layout.cone:
        v = max(v, [-x for x in v])
        if layout.unit is not None:
            v = [0, *v] if rng.random() < 0.5 else [1, *[-x for x in v]]
    return v[0] if len(v) == 1 else tuple(v)


def _draw_space(layout, m):
    """Every code the draw can give at m, enumerated per coordinate: a
    numerator in [-cap, cap] over each product of the coordinate's
    sequences of denominators."""
    values, cap = [], models._CAP
    for group, scaled in layout.leaves:
        if not scaled:
            continue
        dens = {math.prod(ds) for ds in itertools.product(*models._scalar_dens(group, cap))}
        values.append({n * (m // d) for n in range(-cap, cap + 1) for d in dens})
    if not values:  # two
        return {0, 1}
    codes = set(itertools.product(*values))
    if layout.cone:
        codes = {max(v, tuple(-x for x in v)) for v in codes}
    if layout.unit is not None:
        codes = {(0, *v) for v in codes} | {(1, *(-x for x in v)) for v in codes}
    codes = {v[0] if len(v) == 1 else v for v in codes}
    return codes
