import itertools
import random
from fractions import Fraction

import pytest

from efdkit import canonical, terms, translate
from efdkit.canonical import DeltaKT, FragmentError, sentence_to_delta_kt
from efdkit.gen import random_term
from efdkit.lattice import (
    LogicExpansion,
    PrimeSet,
    associated_class,
    boolean_p,
    divisible_g,
    divisible_p,
    emit_axioms,
    trivial_g,
    trivial_p,
)
from efdkit.models import (
    GammaPerfect,
    PositiveCone,
    RationalGroup,
    eval_term,
    parse_model,
    radical_member,
    sample_elements,
    solutions_for_assignment,
)
from efdkit.terms import (
    ABSURD,
    Diff,
    Plus,
    ZERO,
    Scalar,
    Signature,
    boolean_marker,
    build_delta_k,
    build_epsilon_k,
    fold,
    parse_sentence,
    parse_term,
    print_sentence,
    print_term,
    xvar,
    zvar,
)
from efdkit.translate import (
    _NoUniqueSolution,
    check_in_two,
    classify_group_sentences,
    classify_mv_sentences,
    mv_to_hoop,
    phi_rad_decompose,
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
        assert check_in_two(build_epsilon_k(2)) == {(0,): (0,), (1,): (1,)}

    def test_failing_sentence_reports_vector(self):
        # z + ~z = x has no solution at x = 0 in the two-element algebra
        phi = parse_sentence("forall x1 exists! z1 : z1 + ~z1 = x1", Signature.MV)
        with pytest.raises(_NoUniqueSolution) as exc:
            check_in_two(phi)
        assert exc.value.failing == (0,)

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
            assert set(check_in_two(p.sentence)) == {(0,), (1,)}

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
        # 0 is the unit of +, x -. x = 0 and (x + y) -. x = y as the image is built
        text = "forall x1 exists! z1 : z1 + ((x1 + 0) -. x1) = (x1 + z1) -. x1"
        hoop = mv_to_hoop(parse_sentence(text, Signature.MV))
        assert hoop.equations == ((zvar(1), zvar(1)),)

    def test_join_chain_is_simplified_once_per_node(self, monkeypatch):
        """p \\/ q = p + (q -. p) shares p, so the image of 40 joins is a tree
        of about 2^40 nodes unless it collapses, as x1 \\/ x1 = x1 does.
        Each join builds its two nodes once, through _diff and then _plus:
        80 constructor calls for x1 \\/ x1 \\/ ... \\/ x1 and for
        x1 \\/ 2 x1 \\/ ... \\/ 41 x1 alike."""
        calls = []

        def counted(name):
            original = getattr(translate, name)

            def constructor(a, b):
                calls.append(name)
                if len(calls) > 1000:  # a tree walk would take about 2^40 calls
                    raise AssertionError("shared subterms built again")
                return original(a, b)

            monkeypatch.setattr(translate, name, constructor)

        counted("_plus")
        counted("_diff")

        def image(operands):  # the hoop image of z1 = x1 \/ operand \/ ...
            calls.clear()
            chain = r" \/ ".join(["x1"] + operands)
            hoop = mv_to_hoop(parse_sentence(f"forall x1 exists! z1 : z1 = {chain}", Signature.MV))
            assert calls == ["_diff", "_plus"] * 40
            return hoop.equations

        assert image(["x1"] * 40) == ((zvar(1), xvar(1)),)
        assert image([f"{i} x1" for i in range(2, 42)]) != ((zvar(1), xvar(1)),)

    def test_shared_simplification_is_the_tree_fold(self):
        """The image is simplified as it is built: a reference simplifier,
        folded over it as a tree (every node once per reference), leaves it
        unchanged."""

        def simplify(node, *kids):
            if isinstance(node, Plus):
                a, b = kids
                return b if a == ZERO else a if b == ZERO else Plus(a, b)
            if isinstance(node, Diff):
                a, b = kids
                if b == ZERO:
                    return a
                if a == ZERO or a == b:
                    return ZERO
                if isinstance(a, Plus) and b in (a.left, a.right):
                    return a.right if a.left == b else a.left
                return Diff(a, b)
            if isinstance(node, Scalar):
                return ZERO if kids[0] == ZERO else Scalar(node.k, kids[0])
            return node

        def tree_fold(t, f):
            if isinstance(t, (Plus, Diff)):
                return f(t, tree_fold(t.left, f), tree_fold(t.right, f))
            if isinstance(t, Scalar):
                return f(t, tree_fold(t.arg, f))
            return f(t)

        rng = random.Random(11)
        for _ in range(300):
            t = random_term(rng, Signature.MV, 2, rng.randint(1, 5))
            _, h = fold(t, translate._polarity)
            assert tree_fold(h, simplify) == h, t

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

    def test_images_agree_with_gamma_on_random_terms(self):
        """At a radical assignment q, a sign-substituted MV term takes the
        value (0, h) in Gamma(Q) if its image is radical and (1, -h) if it is
        co-radical, h the image's value at q in the cone of Q: the case rules
        of +, ~, \\/ and k. and the derived -., /\\ and x^k all hold."""
        rng = random.Random(34)
        cone = PositiveCone(RationalGroup())
        for _ in range(1000):
            n, m = rng.randint(1, 3), rng.randint(1, 2)
            t = random_term(rng, Signature.MV, n, rng.randint(1, 5), kinds=("x", "z"), m=m)
            variables = [xvar(i) for i in range(1, n + 1)] + [zvar(j) for j in range(1, m + 1)]
            ebar, eprime = (tuple(rng.randint(0, 1) for _ in range(k)) for k in (n, m))
            t = translate._subst_signs(t, ebar, eprime)
            tag, image = fold(t, translate._polarity)
            for _ in range(3):
                q = {v: Fraction(rng.randint(0, 9), rng.randint(1, 4)) for v in variables}
                h = eval_term(cone, image, q)
                value = eval_term(GQ, t, {v: (0, c) for v, c in q.items()})
                assert value == ((0, h) if tag == "rad" else (1, -h))


class TestMVClassification:
    def test_join_chain_is_walked_once_per_node(self, monkeypatch):
        """The hoop image of x1 \\/ 2 x1 \\/ ... \\/ 40 x1 shares each partial
        join, so it is a tree of about 2^40 nodes; the polarity fold of each
        Phi_rad branch (translate._polarity), the star image and the
        canonical form walk its distinct nodes only."""

        def guarded(module, name):
            original, calls = getattr(module, name), []

            def counted(*args):
                calls.append(args)
                if len(calls) > 1000:  # a tree walk would take about 2^40 calls
                    raise AssertionError(f"{name} walked shared subterms again")
                return original(*args)

            monkeypatch.setattr(module, name, counted)

        guarded(translate, "_polarity")
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
        with pytest.raises(FragmentError, match="input forall x1 exists! z1 : 2 z1 = x1$"):
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


def _chain(op: str, n: int):
    xs = " ".join(f"x{i}" for i in range(1, n + 1))
    body = f" {op} ".join(f"x{i}" for i in range(1, n + 1))
    return parse_sentence(f"forall {xs} exists! z1 : z1 = {body}", Signature.MV)


def _outcome(deltas, phi):
    """(k, printed t) per delta of deltas(phi), or the class and message of
    what it raised."""
    try:
        return [(d.k, print_term(d.t)) for d in deltas(phi)]
    except Exception as exc:
        return type(exc), str(exc)


def _composed(phi):
    """The branch deltas as the decomposition, the MV-to-hoop image, the
    recognizer and the star image compose them."""
    return [
        DeltaKT(d.k, star_term(d.t))
        for d in (sentence_to_delta_kt(mv_to_hoop(b.sentence)) for b in phi_rad_decompose(phi))
    ]


class TestBranchDeltas:
    """sentence_deltas reads each branch's delta_{k,t} off phi itself."""

    def test_random_sentences_agree_with_the_composition(self):
        rng = random.Random(11)
        kinds = {"decided": 0, "fragment": 0, "no-unique": 0}
        for _ in range(2000):
            n, m = rng.randint(0, 3), rng.randint(1, 2)
            equations = tuple(
                tuple(random_term(rng, Signature.MV, n, rng.randint(1, 3), kinds=("x", "z"), m=m)
                      for _ in range(2))
                for _ in range(rng.randint(1, 2))
            )
            phi = terms.EFDSentence(Signature.MV, n, m, equations)
            outcome = _outcome(translate.sentence_deltas, phi)
            assert outcome == _outcome(_composed, phi), print_sentence(phi)
            kind = "decided" if isinstance(outcome, list) else (
                "no-unique" if outcome[0] is _NoUniqueSolution else "fragment")
            kinds[kind] += 1
        assert min(kinds.values()) >= 100, kinds

    @pytest.mark.parametrize("k", range(1, 13))
    def test_epsilons_agree_with_the_composition(self, k):
        phi = build_epsilon_k(k)
        assert _outcome(translate.sentence_deltas, phi) == _outcome(_composed, phi)

    @pytest.mark.parametrize("op", ["/\\", "\\/"])
    def test_chains_agree_with_the_composition(self, op):
        for n in range(1, 9):
            phi = _chain(op, n)
            outcome = _outcome(translate.sentence_deltas, phi)
            assert outcome == _outcome(_composed, phi)
            assert len(outcome) == 2 ** n

    @pytest.mark.parametrize("sig,text", [
        (Signature.MV, "forall x1 exists! z1 z2 : z1 = x1 & z2 = ~x1"),
        (Signature.HOOP, "forall x1 exists! z1 z2 : z1 = x1 & z2 = x1"),
        (Signature.GROUP, "forall x1 exists! z1 z2 : z1 = x1"),
        (Signature.GROUP, "forall x1 exists! z1 : z1 = x1 & z1 = x1"),
    ], ids=["mv-two-z", "hoop-two-z", "group-two-z", "group-two-equations"])
    def test_one_equation_one_z(self, sig, text):
        with pytest.raises(FragmentError, match="^supported fragment: single equation, single z"):
            translate.sentence_deltas(parse_sentence(text, sig))

    def test_no_branch_sentence_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the MV path built a branch sentence")

        monkeypatch.setattr(translate, "phi_rad_decompose", refuse)
        monkeypatch.setattr(translate, "mv_to_hoop", refuse)
        chain, epsilons = _chain("/\\", 8), [build_epsilon_k(k) for k in range(2, 7)]
        marker, models = boolean_marker(), [parse_model("gamma(q)"), parse_model("gamma(qs:2)")]
        # every EFDSentence is validated when it is built
        monkeypatch.setattr(terms, "_validate", refuse)
        assert classify_mv_sentences(epsilons + [marker]).ae_class == boolean_p()
        assert classify_mv_sentences([chain]).ae_class == divisible_p(PrimeSet.finite(()))
        for model, status in zip(models, ("holds", "falsified")):
            verdict = translate.check_sentence(model, epsilons[-1])
            assert (verdict.status, verdict.exact, verdict.detail) == (
                status, True, "classification: delta_6")
        verdict = translate.check_sentence(models[1], chain)
        assert (verdict.status, verdict.detail) == ("holds", "classification: delta_1")


class TestClassification:
    def test_single_delta(self):
        c = classify_group_sentences([build_delta_k(6)])
        assert c == divisible_g(PrimeSet.finite({2, 3}))

    def test_conjunction_unions_primes(self):
        c = classify_group_sentences([build_delta_k(4), build_delta_k(5)])
        assert c == divisible_g(PrimeSet.finite({2, 5}))

    def test_reduction_applies_before_primes(self):
        phi = parse_sentence(r"forall x1 exists! z1 : 4 z1 = 2 x1 \/ 6 x1", Signature.GROUP)
        c = classify_group_sentences([phi])
        assert c == divisible_g(PrimeSet.finite({2}))

    def test_trivial_on_absurd(self):
        assert classify_group_sentences([ABSURD]) == trivial_g()

    def test_accepts_sentence_form(self):
        phi = parse_sentence("forall x1 exists! z1 : 6 z1 = x1", Signature.GROUP)
        assert classify_group_sentences([phi]) == divisible_g(PrimeSet.finite({2, 3}))

    def test_empty_set_is_top_divisible(self):
        assert classify_group_sentences([]) == divisible_g(PrimeSet.finite(()))

    @pytest.mark.parametrize("item", [
        DeltaKT(2, xvar(1)), build_delta_k(2, Signature.HOOP), build_epsilon_k(2),
    ], ids=["delta-kt", "hoop", "mv"])
    def test_takes_group_sentences_only(self, item):
        with pytest.raises(FragmentError, match="^unsupported classification input"):
            classify_group_sentences([item])


def _z1_as(tree: dict, dx: dict) -> dict:
    """The JSON term tree with each z1 node replaced by dx."""
    if tree == {"op": "var", "kind": "z", "index": 1}:
        return dx
    return {key: _z1_as(v, dx) if isinstance(v, dict) else v for key, v in tree.items()}


class TestCorrespondence:
    """The paper's correspondence between expansions and classes, end to end,
    for every set P of the first six primes: the delta_p (epsilon_p) for p in
    P classify into the class associated with the Bal (lp) expansion by P,
    and that expansion's axiom for p is the sentence's z-side with z1
    standing for d_p(x)."""

    PRIMES = (2, 3, 5, 7, 11, 13)

    def test_every_prime_set(self):
        x = {"op": "var", "name": "x"}
        subsets = itertools.chain.from_iterable(
            itertools.combinations(self.PRIMES, r) for r in range(len(self.PRIMES) + 1))
        for ps in subsets:
            bal, lp = (LogicExpansion(base, PrimeSet.finite(ps)) for base in ("bal", "lp"))
            assert classify_group_sentences([build_delta_k(p) for p in ps]) == associated_class(bal)
            mv = classify_mv_sentences([build_epsilon_k(p) for p in ps])
            assert mv.ae_class == associated_class(lp)
            for p, a, d in zip(ps, emit_axioms(bal), emit_axioms(lp), strict=True):
                dx = {"op": "app", "symbol": f"d{p}", "arg": x}
                scaled = _z1_as(terms.term_to_json(build_delta_k(p).equations[0][0]), dx)
                t_k = _z1_as(terms.term_to_json(build_epsilon_k(p).equations[0][0]), dx)
                assert a.structured == {"connective": "->", "left": x, "right": scaled}
                assert d.structured == {"connective": "<->", "left": t_k, "right": x}
