import random
from fractions import Fraction

import pytest

from efdkit import canonical, terms, translate
from efdkit.canonical import ABSURD, DeltaKT, FragmentError, sentence_to_delta_kt
from efdkit.gen import random_term
from efdkit.lattice import PrimeSet, boolean_p, divisible_p, trivial_p
from efdkit.models import (
    GammaPerfect,
    PositiveCone,
    RationalGroup,
    eval_term,
    radical_member,
    sample_elements,
    solutions_for_assignment,
)
from efdkit.terms import (
    Diff,
    Plus,
    Scalar,
    Signature,
    boolean_marker,
    build_delta_k,
    build_epsilon_k,
    fold,
    parse_sentence,
    parse_term,
    print_term,
    xvar,
    zvar,
)
from efdkit.translate import (
    check_in_two,
    classify_mv_sentences,
    mv_to_hoop,
    phi_rad_decompose,
    simplify_hoop_term,
    star_sentence,
    star_term,
)

GQ = GammaPerfect(RationalGroup())


class TestStarTranslation:
    def test_variable_becomes_absolute_value(self):
        assert print_term(star_term(parse_term("x1", Signature.HOOP))) == r"x1 \/ -x1"

    def test_z_variables_stay(self):
        assert star_term(parse_term("z1", Signature.HOOP)) == zvar(1)

    def test_monus_becomes_truncated_difference(self):
        st = star_term(parse_term("z1 -. z2", Signature.HOOP))
        assert print_term(st) == r"z1 + -z2 \/ 0"

    def test_sentence_appends_nonnegativity(self):
        phi = build_delta_k(3, Signature.HOOP)
        image = star_sentence(phi)
        assert image.signature is Signature.GROUP
        assert len(image.equations) == 2
        extra = image.equations[-1]
        assert print_term(extra[0]) == r"z1 \/ 0" and extra[1] == zvar(1)

    def test_rejects_group_input(self):
        with pytest.raises(FragmentError):
            star_sentence(build_delta_k(2, Signature.GROUP))

    def test_paired_evaluation(self):
        rng = random.Random(11)
        cone = PositiveCone(RationalGroup())
        q = RationalGroup()
        for _ in range(30):
            t = random_term(rng, Signature.HOOP, 2, 3, coeff=4)
            st = star_term(t)
            for _ in range(20):
                env = {
                    xvar(1): Fraction(rng.randint(0, 8), rng.randint(1, 4)),
                    xvar(2): Fraction(rng.randint(0, 8), rng.randint(1, 4)),
                }
                assert eval_term(cone, t, env) == eval_term(q, st, env)


class TestTwoElementCheck:
    def test_epsilon_table(self):
        ct = check_in_two(build_epsilon_k(2))
        assert ct.holds
        assert set(ct.table) == {(0,), (1,)}

    def test_failing_sentence_reports_vector(self):
        # z + ~z = x has no solution at x = 0 in the two-element algebra
        phi = parse_sentence("forall x1 exists! z1 : z1 + ~z1 = x1", Signature.MV)
        ct = check_in_two(phi)
        assert not ct.holds
        assert ct.failing == (0,)

    def test_bound_enforced(self):
        n = 25
        xs = " ".join(f"x{i}" for i in range(1, n + 1))
        phi = parse_sentence(f"forall {xs} exists! z1 : z1 = x1", Signature.MV)
        with pytest.raises(FragmentError):
            check_in_two(phi)


class TestDecomposition:
    def test_branch_count_is_two_to_the_n(self):
        parts = phi_rad_decompose(build_epsilon_k(2))
        assert len(parts) == 2
        assert {p.sign_vector for p in parts} == {(0,), (1,)}

    def test_branches_are_single_equation_mv(self):
        for p in phi_rad_decompose(build_epsilon_k(3)):
            phi = p.sentence
            assert phi.signature is Signature.MV
            assert len(phi.equations) == 1 and phi.m == 1

    def test_all_radical_branch_preserves_radical_solutions(self):
        branch = next(
            p for p in phi_rad_decompose(build_epsilon_k(2)) if p.sign_vector == (0,)
        )
        for x in sample_elements(GQ, 40, seed=9):
            if not radical_member(GQ, x):
                continue
            sols, _ = solutions_for_assignment(GQ, branch.sentence, {xvar(1): x})
            assert sols
            for (z,) in sols:
                assert radical_member(GQ, z)

    def test_branches_hold_in_two_element_model(self):
        for p in phi_rad_decompose(build_epsilon_k(2)):
            assert check_in_two(p.sentence).holds

    def test_precondition_failure_raises(self):
        phi = parse_sentence("forall x1 exists! z1 : z1 + ~z1 = x1", Signature.MV)
        with pytest.raises(FragmentError):
            phi_rad_decompose(phi)


class TestHoopTranslation:
    def test_radical_branch_maps_to_divisibility(self):
        branch = next(
            p for p in phi_rad_decompose(build_epsilon_k(3)) if p.sign_vector == (0,)
        )
        hoop = mv_to_hoop(branch.sentence)
        assert hoop.signature is Signature.HOOP
        d = sentence_to_delta_kt(hoop)
        assert d.k == 3 and d.t == xvar(1)

    def test_simplify_units(self):
        t = parse_term("(x1 + 0) -. x1", Signature.HOOP)
        assert simplify_hoop_term(t) == parse_term("0", Signature.HOOP)

    def test_join_chain_is_simplified_once_per_node(self, monkeypatch):
        """p \\/ q = p + (q -. p) shares p, so the image of 40 joins is a tree
        of about 2^40 nodes.  Each of its 80 binary node objects (two per
        join) is simplified once, and each leaf once per binary node that
        names it: the 40 right operands once, the first x1 twice (it is p in
        both nodes of the first join), and z1 once: 123 calls."""
        calls = []

        def counted(*args, _simplify=translate._simplify):
            calls.append(args[0])
            if len(calls) > 1000:  # a tree walk would take about 2^40 calls
                raise AssertionError("shared subterms simplified again")
            return _simplify(*args)

        monkeypatch.setattr(translate, "_simplify", counted)
        text = "forall x1 exists! z1 : z1 = " + r" \/ ".join(["x1"] * 41)
        hoop = mv_to_hoop(parse_sentence(text, Signature.MV))
        assert hoop.equations == ((zvar(1), xvar(1)),)
        assert len(calls) == 123

    def test_shared_simplification_is_the_tree_fold(self):
        def tree_fold(t, f):  # every node once per reference, shared or not
            if isinstance(t, (Plus, Diff)):
                return f(t, tree_fold(t.left, f), tree_fold(t.right, f))
            if isinstance(t, Scalar):
                return f(t, tree_fold(t.arg, f))
            return f(t)

        rng = random.Random(11)
        for _ in range(300):
            t = random_term(rng, Signature.MV, 2, rng.randint(1, 5))
            _, h = fold(t, translate._polarity)
            assert simplify_hoop_term(h) == tree_fold(h, translate._simplify), t

    def test_polarity_mismatch_rejected(self):
        # ~z = z equates a co-radical with a radical value
        phi = parse_sentence("exists! z1 : ~z1 = z1", Signature.MV)
        with pytest.raises(FragmentError, match="~z1 = z1"):
            mv_to_hoop(phi)

    def test_co_radical_power_is_a_scalar(self):
        phi = parse_sentence("forall x1 exists! z1 : (~z1)^3 = ~x1", Signature.MV)
        hoop = mv_to_hoop(phi)
        assert hoop.equations == ((parse_term("3 z1", Signature.HOOP), xvar(1)),)

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 10**6])
    @pytest.mark.parametrize("text", ["z1^{k}", "(~z1)^{k}", "(z1 + ~x1)^{k}", "(~z1 /\\ ~x1)^{k}"])
    def test_powers_agree_with_gamma(self, text, k):
        # a radical value (0, h) has image ("rad", h), a co-radical (1, -h) ("co", h)
        t = parse_term(text.format(k=k), Signature.MV)
        tag, hoop = fold(t, translate._polarity)
        cone = PositiveCone(RationalGroup())
        for h1, h2 in [(0, 0), (Fraction(1, 3), 2), (5, Fraction(1, 7))]:
            value = eval_term(GQ, t, {xvar(1): (0, Fraction(h1)), zvar(1): (0, Fraction(h2))})
            image = eval_term(cone, hoop, {xvar(1): Fraction(h1), zvar(1): Fraction(h2)})
            assert value == ((0, image) if tag == "rad" else (1, -image))


class TestMVClassification:
    def test_join_chain_is_walked_once_per_node(self, monkeypatch):
        """The hoop image of x1 \\/ 2 x1 \\/ ... \\/ 40 x1 shares each partial
        join, so it is a tree of about 2^40 nodes; the validation of each
        sentence built on the way (terms._vars), the star image and the
        canonical form walk its distinct nodes only."""

        def guarded(module, name):
            original, calls = getattr(module, name), []

            def counted(*args):
                calls.append(args)
                if len(calls) > 1000:  # a tree walk would take about 2^40 calls
                    raise AssertionError(f"{name} walked shared subterms again")
                return original(*args)

            monkeypatch.setattr(module, name, counted)

        guarded(terms, "_vars")
        guarded(translate, "_star")
        guarded(canonical, "_leaf_form")
        chain = r" \/ ".join(["x1"] + [f"{k} x1" for k in range(2, 41)])
        phi = parse_sentence(f"forall x1 exists! z1 : z1 = {chain}", Signature.MV)
        assert classify_mv_sentences([phi]).ae_class == divisible_p(PrimeSet.finite(()))

    def test_epsilon_prime_support(self):
        result = classify_mv_sentences([build_epsilon_k(12)])
        assert result.ae_class == divisible_p(PrimeSet.finite({2, 3}))

    def test_union_over_conjunction(self):
        result = classify_mv_sentences([build_epsilon_k(2), build_epsilon_k(5)])
        assert result.ae_class == divisible_p(PrimeSet.finite({2, 5}))

    def test_boolean_marker_forces_boolean(self):
        result = classify_mv_sentences([boolean_marker()])
        assert result.ae_class == boolean_p()

    def test_boolean_marker_dominates_epsilon(self):
        result = classify_mv_sentences([boolean_marker(), build_epsilon_k(2)])
        assert result.ae_class == boolean_p()

    @pytest.mark.parametrize("k", [2000, 10**6])
    def test_epsilon_of_large_k(self, k):
        # 2000 = 2^4 5^3; the powers z1^k translate in closed form
        c = classify_mv_sentences([build_epsilon_k(k)])
        assert c.ae_class == divisible_p(PrimeSet.finite({2, 5}))

    def test_absurd_marker(self):
        result = classify_mv_sentences([ABSURD])
        assert result.ae_class == trivial_p()

    def test_empty_set_is_top(self):
        result = classify_mv_sentences([])
        assert result.ae_class == divisible_p(PrimeSet.finite(()))

    def test_rejects_group_sentence(self):
        with pytest.raises(FragmentError):
            classify_mv_sentences([build_delta_k(2, Signature.GROUP)])

    def test_no_unique_two_element_solution_is_trivial(self):
        phi = parse_sentence("forall x1 exists! z1 : z1 + ~z1 = x1", Signature.MV)
        result = classify_mv_sentences([build_epsilon_k(2), phi])
        assert result.ae_class == trivial_p()
        assert result.notes == (
            "per-paper-scope: no unique two-element solution at (0,)",
        )

    def test_two_element_check_runs_once_per_sentence(self, monkeypatch):
        import efdkit.translate as translate

        calls = []
        original = translate.check_in_two

        def counting(phi):
            calls.append(phi)
            return original(phi)

        monkeypatch.setattr(translate, "check_in_two", counting)
        sentences = [build_epsilon_k(2), build_epsilon_k(5)]
        classify_mv_sentences(sentences)
        assert calls == sentences
