import functools
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import efdkit.models as models
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
    candidate_pool,
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
    build_delta_k,
    build_epsilon_k,
    build_t_k,
    free_vars,
    max_index,
    parse_sentence,
    parse_term,
    xvar,
    zvar,
)
from efdkit.translate import check_in_two

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
# eval_term walks integers over one common denominator.  The reference is the
# evaluator it replaced: the same walker over the Fraction groups, unscaled.


def _fraction_eval(a, t, env):
    return _fraction_walker(a)(t, env)


@functools.lru_cache(maxsize=None)
def _fraction_walker(a):
    if isinstance(a, PositiveCone):
        g = models._group(a.inner)
        return models._walker("a hoop model", g, {
            Plus: g.add,
            Diff: models._monus(g),
            Scalar: models._nonnegative(g.scale, "negative scalar in a hoop term"),
        })
    if isinstance(a, TwoMV):
        return models._walker("TwoMV", models._INTEGER, models._gamma_ops(models._INTEGER, 1))
    if isinstance(a, GammaPerfect):
        g = models._lex(models._INTEGER, models._group(a.inner))
        return models._walker("a Gamma model", g, models._gamma_ops(g, (1, models._group(a.inner).zero)))
    g = models._group(a)
    return models._walker("a group model", g, {Plus: g.add, Neg: g.neg, Scalar: g.scale})


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
        with x2 now and then missing: the same value with the same repr, or
        the same error with the same message."""
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
        assert set(errors) == {"ModelError"}, errors

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
        assert check_in_two(build_epsilon_k(1)).holds


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
# per-sentence solver behind check_sentence_sampled.


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
    g = models._group(inner)
    values = {g.zero}
    for v in xvals:
        for d in range(1, cap + 1):
            w = _div(inner, v, d)
            if w is not None:
                values.add(w)
                values.add(g.neg(w))
    return [v for v in sorted(values) if _member(a, v)]


def _plain_linear(a, rows):
    """The stacked one-variable system {c z + b = 0} over Fractions:
    ("unique", z), ("none", None) or ("all", None)."""
    g = models._group(a)
    candidate = None
    for coeffs, const in rows:
        c = coeffs.get(1, 0)
        if c == 0:
            if const != g.zero:
                return ("none", None)
            continue
        z = _div(a, g.neg(const), c)
        if z is None or candidate not in (None, z):
            return ("none", None)
        candidate = z
    return ("all", None) if candidate is None else ("unique", candidate)


def _plain_solutions(a, phi, xassign, cap=12):
    if species(a) is Signature.GROUP and phi.m == 1:
        g = models._group(a)
        rows = []
        linear = True
        for lhs, rhs in phi.equations:
            lp = models._linear_part(g, lhs, xassign)
            rp = models._linear_part(g, rhs, xassign)
            if lp is None or rp is None:
                linear = False
                break
            coeffs = dict(lp[0])
            for j, c in rp[0].items():
                coeffs[j] = coeffs.get(j, 0) - c
            rows.append((coeffs, g.add(lp[1], g.neg(rp[1]))))
        if linear:
            status, zval = _plain_linear(a, rows)
            if status == "unique":
                return [(zval,)], True
            if status == "none":
                return [], True
            # every z solves: zero and the first other candidate
            others = [z for z in _plain_pool(a, list(xassign.values()), cap) if z != g.zero]
            return [(g.zero,), (others[0] if others else models._nonzero(a),)], True
    exhaustive = isinstance(a, TwoMV)
    # the values of the z-free sides join the x-values as seeds of the pool
    seeds = list(xassign.values())
    for side in itertools.chain.from_iterable(phi.equations):
        if not any(v.kind == "z" for v in free_vars(side)):
            seeds.append(eval_term(a, side, xassign))
    pool = [0, 1] if exhaustive else _plain_pool(a, seeds, cap)
    sols = []
    for zs in itertools.product(pool, repeat=phi.m):
        env = dict(xassign)
        for j, zv in enumerate(zs, start=1):
            env[Var("z", j)] = zv
        if all(eval_term(a, lhs, env) == eval_term(a, rhs, env) for lhs, rhs in phi.equations):
            sols.append(zs)
            if len(sols) == 2:
                break
    return sols, exhaustive


def _plain_check(a, phi, budget, seed):
    rng = random.Random(seed)
    assignments = models._structured_x(a, phi.n)
    while len(assignments) < max(budget, 1):
        assignments.append(
            {Var("x", i): models._sample_one(a, rng, 12) for i in range(1, phi.n + 1)}
        )
    for env in assignments[: max(budget, 1)]:
        sols, exact = _plain_solutions(a, phi, env)
        if len(sols) >= 2:
            return Verdict(
                "falsified", exact, (dict(env), sols[:2]), "sampled: two distinct z-solutions"
            )
        if not sols:
            reason = "no z-solution" if exact else "no z-solution among candidates"
            return Verdict("falsified", exact, (dict(env), []), f"sampled: {reason}")
    distinct = len({tuple(env.values()) for env in assignments[: max(budget, 1)]})
    return Verdict("consistent-on-sample", False, None, f"sampled: {distinct} distinct x-assignments")


_REFERENCE_SENTENCES = {
    Signature.MV: [
        "epsilon 2",
        "epsilon 3",
        "forall x1 exists! z1 z2 : z1 + z2 = x1 & z1 -. z2 = z2 -. z1",
        "forall x1 exists! z1 : z1 + z1 = x1 & z1 -. x1 = 0",
        "forall x1 exists! z1 z2 : z1 + z2 = x1",
    ],
    Signature.GROUP: [
        "delta 2",
        "delta 3",
        "forall x1 x2 exists! z1 z2 : z1 + z2 = x1 & z1 + -z2 = x2",
        r"forall x1 exists! z1 : 2 z1 = x1 & (z1 \/ 0) + (z1 /\ 0) = z1",
        r"forall x1 exists! z1 : z1 \/ 0 = x1 \/ 0",
    ],
    Signature.HOOP: [
        "delta 2",
        "delta 3",
        "forall x1 exists! z1 z2 : z1 + z2 = x1 & z1 -. z2 = z2 -. z1",
        "forall x1 exists! z1 : 2 z1 = x1 & z1 -. x1 = 0",
        "forall x1 exists! z1 : z1 -. x1 = 0",
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


def _random_sentence(rng, sig, m):
    """One or two random equations over x1, x2 and z1..zm."""
    n = rng.randint(1, 2)
    equations = tuple(
        tuple(
            random_term(rng, sig, n, rng.randint(0, 3), coeff=4, kinds=("x", "z"), m=m)
            for _ in range(2)
        )
        for _ in range(rng.randint(1, 2))
    )
    n = max(1, *(max_index(t, "x") for t in itertools.chain.from_iterable(equations)))
    return EFDSentence(sig, n, m, equations)


class TestSolverAgainstPlainSearch:
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
        a = parse_model(descriptor)
        rng = random.Random(descriptor)
        for trial in range(40):
            xvals = sample_elements(a, rng.randint(1, 3), seed=trial)
            cap = rng.randint(1, 12)
            assert repr(candidate_pool(a, xvals, cap)) == repr(_plain_pool(a, xvals, cap))

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
                expected = _plain_solutions(a, phi, env)
                assert repr(solutions_for_assignment(a, phi, env)) == repr(expected), (phi, env)


class TestSolverWork:
    """Deterministic work counts of one sampled check: pool builds, walks of
    the integer evaluator and sample draws.  The parent search made 100 pool
    calls and 4,864 evaluations on the first case, and drew all 192 samples
    before the first solve."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()
        for name in ("_pool", "_sample_one"):
            original = getattr(models, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(models, name, counted)
        evaluator = models._evaluator

        def counted_evaluator(a):
            walk, codec = evaluator(a)

            def counted_walk(t, env):
                counts["walk"] += 1
                return walk(t, env)

            return counted_walk, codec

        monkeypatch.setattr(models, "_evaluator", counted_evaluator)
        rescale = models._Solver._rescale

        def counted_rescale(solver, m):
            counts["rescale"] += 1
            return rescale(solver, m)

        monkeypatch.setattr(models._Solver, "_rescale", counted_rescale)
        return counts

    def test_each_distinct_assignment_is_solved_once(self, counts):
        verdict = check_sentence_sampled(GQ, build_epsilon_k(3), budget=100, seed=0)
        assert verdict.status == "consistent-on-sample"
        assert counts["_pool"] == 67
        assert counts["walk"] == 625
        # 96 sampled pairs, each drawing its inner rational
        assert counts["_sample_one"] == 192
        structured = [(0, 0), (0, 1), (1, -1), (1, 0)]
        assert len(set(structured + sample_elements(GQ, 96, seed=0))) == 67

    def test_rescaling_keeps_every_memo_hit(self, counts):
        # denominators 2^a 3^b make the check-wide scale grow three times
        # after the first assignment; the search that evaluated from
        # Fractions made the same 308 evaluations here
        a = parse_model("gamma(qs:2,3)")
        verdict = check_sentence_sampled(a, build_epsilon_k(6), budget=100, seed=0)
        assert verdict.status == "consistent-on-sample"
        assert counts["rescale"] == 4
        assert counts["_pool"] == 58
        assert counts["walk"] == 308
        assert counts["_sample_one"] == 192

    def test_sampling_is_lazy(self, counts):
        phi = parse_sentence("forall x1 exists! z1 : z1 -. z1 = x1", Signature.MV)
        verdict = check_sentence_sampled(GQ, phi, budget=100, seed=0)
        assert verdict.status == "falsified"
        assert verdict.witness[0] == {_X1: (0, Fraction(0))}
        assert counts["_sample_one"] == 0
        assert counts["_pool"] == 1

    def test_the_two_element_model_is_not_scaled(self, counts):
        assert check_in_two(build_epsilon_k(3)).holds
        assert counts["rescale"] == 0
        assert counts["_pool"] == 0
