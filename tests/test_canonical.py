import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from efdkit.canonical import (
    ABSURD,
    CapExceeded,
    DeltaKT,
    FragmentError,
    LatJoin,
    LatLeaf,
    LatMeet,
    classify_group_sentences,
    collect_forms,
    delta_equivalent,
    distribute_to_lattice_normal,
    evaluate_piecewise,
    piecewise_canonical,
    reduce_delta_kt,
    sentence_to_delta_kt,
)
from efdkit.gen import random_rational_point, random_term
from efdkit.geometry import IneqSystem, is_full_dimensional, normalize_row
from efdkit.lattice import PrimeSet, divisible_g, trivial_g
from efdkit.models import RationalGroup, eval_term
from efdkit.terms import Signature, parse_sentence, parse_term, xvar


def _term(text):
    return parse_term(text, Signature.GROUP)


# Six forms in three variables, alternately joined and met; pinned in
# tests/test_geometry.py and cross-checked against the chain walk below.
SIX_FORMS = (
    r"((((((-2 x1 + x2 + 3 x3) \/ (3 x1 + 3 x2 + -3 x3)) /\ (-x1 + -3 x2))"
    r" \/ (3 x1)) /\ (2 x1 + 3 x3)) \/ (-2 x1 + -3 x2))"
)


def _chain_pieces(t, n):
    """Reference canonical form by the chain walk: every ordering of the
    distinct forms whose cone f_1 <= f_2 <= ... is full-dimensional, with
    the lattice term resolved inside it (a meet takes the earlier form, a
    join the later).  Its cost grows like m!, so m <= 6 only."""
    lt = distribute_to_lattice_normal(t, n)
    forms = collect_forms(lt)
    assert len(forms) <= 6

    def resolve(node, rank):
        if isinstance(node, LatLeaf):
            return node.form
        left, right = resolve(node.left, rank), resolve(node.right, rank)
        later = rank[left] >= rank[right]
        if isinstance(node, LatJoin):
            return left if later else right
        return right if later else left

    pieces = []
    for chain in itertools.permutations(forms):
        rows = tuple(
            normalize_row(tuple(a - b for a, b in zip(hi, lo)))
            for lo, hi in zip(chain, chain[1:])
        )
        region = IneqSystem(n, rows)
        if is_full_dimensional(region).full_dimensional:
            rank = {form: pos for pos, form in enumerate(chain)}
            pieces.append((region, resolve(lt, rank)))
    return pieces


def _assert_agrees_with_chain_walk(t, n, rng, points=40):
    pw = piecewise_canonical(t, n=n)
    chain = _chain_pieces(t, n)
    assert {form for _, form in pw.pieces} == {form for _, form in chain}
    for _ in range(points):
        point = random_rational_point(rng, n)
        value = next(
            sum(c * p for c, p in zip(form, point))
            for region, form in chain
            if region.contains(point)
        )
        hits = [form for region, form in pw.pieces if region.contains(point)]
        assert hits
        for form in hits:
            assert sum(c * p for c, p in zip(form, point)) == value


class TestLatticeNormalForm:
    def test_plus_distributes_over_join(self):
        lt = distribute_to_lattice_normal(_term(r"x1 + (x1 \/ x2)"), 2)
        assert lt == LatJoin(LatLeaf((2, 0)), LatLeaf((1, 1)))

    def test_negation_swaps_join_meet(self):
        lt = distribute_to_lattice_normal(_term(r"-(x1 \/ x2)"), 2)
        assert lt == LatMeet(LatLeaf((-1, 0)), LatLeaf((0, -1)))

    def test_negative_scalar(self):
        lt = distribute_to_lattice_normal(_term(r"-2 (x1 /\ x2)"), 2)
        assert lt == LatJoin(LatLeaf((-2, 0)), LatLeaf((0, -2)))

    def test_zero_scalar_collapses(self):
        lt = distribute_to_lattice_normal(_term(r"0 \/ x1 + -x1"), 1)
        assert collect_forms(lt) == [(0,)]

    def test_collect_forms_dedups_in_order(self):
        lt = distribute_to_lattice_normal(_term(r"(x1 \/ x2) + (x1 \/ x2)"), 2)
        forms = collect_forms(lt)
        assert forms[0] == (2, 0)
        assert len(forms) == len(set(forms))


class TestPiecewise:
    def test_two_piece_example(self):
        pw = piecewise_canonical(_term(r"2 x1 \/ 6 x1"))
        assert pw.n == 1
        pieces = {(region.rows, form) for region, form in pw.pieces}
        assert pieces == {(((1,),), (6,)), (((-1,),), (2,))}

    def test_single_form_covers_everything(self):
        pw = piecewise_canonical(_term("x1 + 2 x2"))
        assert len(pw.pieces) == 1
        region, form = pw.pieces[0]
        assert region.rows == () and form == (1, 2)

    def test_absolute_value(self):
        pw = piecewise_canonical(_term(r"x1 \/ -x1"))
        assert evaluate_piecewise(pw, (Fraction(-3),)) == 3
        assert evaluate_piecewise(pw, (Fraction(5),)) == 5
        assert evaluate_piecewise(pw, (Fraction(0),)) == 0

    def test_cap_exceeded(self):
        text = r" \/ ".join(f"{k} x1 + {k + 1} x2" for k in range(1, 11))
        with pytest.raises(CapExceeded):
            piecewise_canonical(_term(text), cap=8)

    def test_degenerate_chains_pruned(self):
        # x1 /\ x1 has one distinct form; no spurious pieces
        pw = piecewise_canonical(_term(r"x1 /\ x1"))
        assert len(pw.pieces) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_soundness_random(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        t = random_term(rng, Signature.GROUP, n, rng.randint(1, 4), coeff=5)
        try:
            pw = piecewise_canonical(t, n=n)
        except CapExceeded:
            return
        q = RationalGroup()
        for _ in range(40):
            point = random_rational_point(rng, n)
            env = {xvar(i): v for i, v in enumerate(point, start=1)}
            assert evaluate_piecewise(pw, point) == eval_term(q, t, env)


class TestAgainstChainWalk:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_terms(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        t = random_term(rng, Signature.GROUP, n, rng.randint(1, 5), coeff=5)
        if len(collect_forms(distribute_to_lattice_normal(t, n))) > 6:
            return
        _assert_agrees_with_chain_walk(t, n, rng)

    def test_six_forms(self):
        _assert_agrees_with_chain_walk(_term(SIX_FORMS), 3, random.Random(6), 200)


class TestReduction:
    def test_worked_example(self):
        assert reduce_delta_kt(DeltaKT(4, _term(r"2 x1 \/ 6 x1"))) == 2

    def test_identity_term(self):
        assert reduce_delta_kt(DeltaKT(6, _term("x1"))) == 6

    def test_full_cancellation(self):
        assert reduce_delta_kt(DeltaKT(4, _term("4 x1"))) == 1

    def test_partial_gcd(self):
        assert reduce_delta_kt(DeltaKT(12, _term("2 x1 + 4 x2"))) == 6

    def test_vanishing_pieces_do_not_contribute(self):
        # x1 /\ -x1 \/ 0 has forms with gcd 1 among surviving pieces
        k = reduce_delta_kt(DeltaKT(3, _term(r"(2 x1 /\ -2 x1) \/ 0")))
        assert k in (1, 3)

    def test_rejects_z_variables(self):
        with pytest.raises(FragmentError):
            DeltaKT(2, parse_term("z1", Signature.GROUP))


class TestClassification:
    def test_single_delta(self):
        c = classify_group_sentences([DeltaKT(6, _term("x1"))])
        assert c == divisible_g(PrimeSet.finite({2, 3}))

    def test_conjunction_unions_primes(self):
        c = classify_group_sentences(
            [DeltaKT(4, _term("x1")), DeltaKT(5, _term("x1"))]
        )
        assert c == divisible_g(PrimeSet.finite({2, 5}))

    def test_reduction_applies_before_primes(self):
        c = classify_group_sentences([DeltaKT(4, _term(r"2 x1 \/ 6 x1"))])
        assert c == divisible_g(PrimeSet.finite({2}))

    def test_trivial_on_absurd(self):
        assert classify_group_sentences([ABSURD]) == trivial_g()

    def test_accepts_sentence_form(self):
        phi = parse_sentence("forall x1 exists! z1 : 6 z1 = x1", Signature.GROUP)
        assert classify_group_sentences([phi]) == divisible_g(PrimeSet.finite({2, 3}))

    def test_empty_set_is_top_divisible(self):
        assert classify_group_sentences([]) == divisible_g(PrimeSet.finite(()))


class TestSentenceRecognition:
    def test_recognizes_either_side(self):
        phi = parse_sentence("forall x1 exists! z1 : x1 = 3 z1", Signature.GROUP)
        d = sentence_to_delta_kt(phi)
        assert d.k == 3 and d.t == xvar(1)

    def test_rejects_nonlinear_z(self):
        phi = parse_sentence(
            r"forall x1 exists! z1 : z1 \/ 0 = x1", Signature.GROUP
        )
        with pytest.raises(FragmentError):
            sentence_to_delta_kt(phi)

    def test_rejects_multi_z(self):
        phi = parse_sentence(
            "forall x1 exists! z1 z2 : z1 = x1 & z2 = x1", Signature.GROUP
        )
        with pytest.raises(FragmentError):
            sentence_to_delta_kt(phi)


class TestDeltaEquivalence:
    @pytest.mark.parametrize("k1,k2,eq", [(2, 4, True), (6, 12, True), (2, 3, False), (1, 1, True), (1, 2, False), (6, 10, False)])
    def test_prime_support_rule(self, k1, k2, eq):
        assert delta_equivalent(k1, k2) is eq

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            delta_equivalent(0, 2)
