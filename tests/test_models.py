import random
from fractions import Fraction

import pytest

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
    check_efd_exhaustive,
    check_element,
    check_sentence_sampled,
    check_uniqueness_exhaustive,
    check_uniqueness_sampled,
    eval_term,
    format_element,
    gamma_div,
    holds_delta_exact,
    holds_epsilon_exact,
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
    MVNeg,
    Power,
    Scalar,
    Signature,
    Var,
    ZERO,
    build_delta_k,
    build_epsilon_k,
    build_t_k,
    parse_sentence,
    parse_term,
    uniqueness_quasiidentity,
    xvar,
    zvar,
)

GQ = GammaPerfect(RationalGroup())


def _ev(model, text, sig, **vals):
    t = parse_term(text, sig)
    env = {}
    for name, v in vals.items():
        kind, idx = name[0], int(name[1:])
        from efdkit.terms import Var

        env[Var(kind, idx)] = v
    return eval_term(model, t, env)


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
        assert check_efd_exhaustive(TwoMV(), build_epsilon_k(1))

    def test_uniqueness_rule_exhaustive(self):
        rule = uniqueness_quasiidentity(build_epsilon_k(2))
        assert check_uniqueness_exhaustive(TwoMV(), rule)


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
        assert holds_epsilon_exact(model, k) is expected


class TestSentenceChecking:
    def test_delta_2_fails_on_integers_with_unit_witness(self):
        verdict = check_sentence_sampled(IntegerGroup(), build_delta_k(2), budget=50)
        assert verdict.status == "falsified"
        assert verdict.exact
        assert Fraction(1) in verdict.witness.values() or 1 in [
            int(v) for v in verdict.witness.values()
        ]

    def test_delta_2_holds_on_rationals(self):
        verdict = check_sentence_sampled(RationalGroup(), build_delta_k(2), budget=50)
        assert verdict.status == "consistent-on-sample"
        assert verdict.exact

    def test_non_uniqueness_detected(self):
        phi = parse_sentence(
            "forall x1 exists! z1 : z1 + -z1 = 0", Signature.GROUP
        )
        verdict = check_sentence_sampled(RationalGroup(), phi, budget=10)
        assert verdict.status == "falsified"
        assert "two distinct" in verdict.detail

    def test_epsilon_solutions_on_gamma(self):
        sols, _ = solutions_for_assignment(
            GQ, build_epsilon_k(2), {xvar(1): (0, Fraction(1))}
        )
        assert sols == [((0, Fraction(1, 2)),)]

    def test_uniqueness_sampled(self):
        verdict = check_uniqueness_sampled(GQ, build_epsilon_k(3), budget=30)
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

    def test_species(self):
        assert species(parse_model("q")) is Signature.GROUP
        assert species(parse_model("cone(q)")) is Signature.HOOP
        assert species(parse_model("two")) is Signature.MV

    def test_sampled_elements_are_members(self):
        for text in ["z", "qs:2", "lex(z,qs:2)", "gamma(qs:2,3)", "cone(q)", "two"]:
            a = parse_model(text)
            for e in sample_elements(a, 30, seed=1):
                check_element(a, e)
