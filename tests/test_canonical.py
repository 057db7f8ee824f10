import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from efdkit.canonical import (
    ABSURD,
    DeltaKT,
    FragmentError,
    _add,
    _leaf_form,
    _scale,
    classify_group_sentences,
    piecewise_canonical,
    reduce_delta_kt,
    sentence_to_delta_kt,
)
from efdkit.gen import random_rational_point, random_term
from efdkit import canonical, geometry
from efdkit.errors import BudgetExceeded
from efdkit.geometry import IneqSystem, feasible_point, normalize_row
from efdkit.lattice import PrimeSet, divisible_g, trivial_g
from efdkit.models import RationalGroup, eval_term
from efdkit.terms import (
    Join,
    Meet,
    Neg,
    Plus,
    Scalar,
    Signature,
    fold,
    parse_sentence,
    parse_term,
    xvar,
)


def _term(text):
    return parse_term(text, Signature.GROUP)


# Six forms in three variables, alternately joined and met; pinned in
# tests/test_geometry.py and cross-checked against the chain walk below.
SIX_FORMS = (
    r"((((((-2 x1 + x2 + 3 x3) \/ (3 x1 + 3 x2 + -3 x3)) /\ (-x1 + -3 x2))"
    r" \/ (3 x1)) /\ (2 x1 + 3 x3)) \/ (-2 x1 + -3 x2))"
)

# Twelve forms in three variables, SIX_FORMS continued; the CI
# console-script step runs it too.
TWELVE_FORMS = (
    r"((((((((((((-2 x1 + x2 + 3 x3) \/ (3 x1 + 3 x2 + -3 x3)) /\ (-x1 + -3 x2))"
    r" \/ (3 x1)) /\ (2 x1 + 3 x3)) \/ (-2 x1 + -3 x2)) /\ (-3 x1 + 3 x2))"
    r" \/ (x2 + 3 x3)) /\ (3 x1 + -3 x2 + 2 x3)) \/ (-x2 + 2 x3))"
    r" /\ (3 x1 + -2 x2 + x3)) \/ (-3 x1 + -x2 + -3 x3))"
)


def count_lp_calls(monkeypatch) -> list:
    """Count the LPs of every feasible_point binding the canonicaliser can
    reach: the returned list gains one entry per call."""
    calls = []
    inner = geometry.feasible_point

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(geometry, "feasible_point", counting)
    monkeypatch.setattr(canonical, "feasible_point", counting)
    return calls


def _leaf_forms(t, n):
    """The distinct linear forms at the leaves of t once +, - and scalars are
    pushed through \\/ and /\\: sums of forms, one from each summand."""

    def forms(node, *kids):
        kind = type(node)
        if kind is Plus:
            return {_add(f, g) for f in kids[0] for g in kids[1]}
        if kind is Join or kind is Meet:
            return kids[0] | kids[1]
        if kind is Neg or kind is Scalar:
            k = -1 if kind is Neg else node.k
            return {_scale(k, f) for f in kids[0]}
        return {_leaf_form(node, n)}

    return fold(t, forms)


def _lp_pieces(t, n):
    """Reference refinement: piecewise_canonical's cells, each cell test
    decided by its own LP with no interior points kept, and no cap."""
    verdicts = {}

    def full_dim(rows):
        key = frozenset(rows)
        if key not in verdicts:
            verdicts[key] = feasible_point(rows, [1] * len(rows), n) is not None
        return verdicts[key]

    def meets(outer, inner):
        for rows1, f in outer:
            for rows2, g in inner:
                if not rows2:
                    yield rows1, f, g
                    continue
                rows = rows1 + tuple(r for r in rows2 if r not in rows1)
                if len(rows) in (len(rows1), len(rows2)) or full_dim(rows):
                    yield rows, f, g

    def cells(node, *kids):
        kind = type(node)
        if kind is Plus:
            return [(rows, _add(f, g)) for rows, g, f in meets(kids[1], kids[0])]
        if kind is Neg or kind is Scalar:
            k = -1 if kind is Neg else node.k
            if k == 0:
                return [((), (0,) * n)]
            return [(rows, _scale(k, f)) for rows, f in kids[0]]
        if kind is not Join and kind is not Meet:
            return [((), _leaf_form(node, n))]
        join = kind is Join
        out = []
        for rows, f, g in meets(kids[0], kids[1]):
            if f == g:
                out.append((rows, f))
                continue
            r = normalize_row(tuple(a - b for a, b in zip(f, g)))
            neg = tuple(-c for c in r)
            halves = ((r, neg, f if join else g), (neg, r, g if join else f))
            for row, opposite, form in halves:
                if row in rows:
                    out.append((rows, form))
                elif opposite not in rows and full_dim(rows + (row,)):
                    out.append((rows + (row,), form))
        return out

    return tuple((IneqSystem(n, rows), form) for rows, form in fold(t, cells))


def _chain_pieces(t, n):
    """Reference canonical form by the chain walk: every ordering of the
    distinct leaf forms whose cone f_1 <= f_2 <= ... is full-dimensional,
    with t's value there read by eval_term at an interior point of the cone
    and matched to the one form taking it (the forms differ strictly
    inside).  Its cost grows like m!, so m <= 6 only."""
    forms = sorted(_leaf_forms(t, n))
    assert len(forms) <= 6
    q = RationalGroup()
    pieces = []
    for chain in itertools.permutations(forms):
        rows = tuple(
            normalize_row(tuple(a - b for a, b in zip(hi, lo)))
            for lo, hi in zip(chain, chain[1:])
        )
        point = feasible_point(rows, [1] * len(rows), n)
        if point is None:
            continue
        value = eval_term(q, t, {xvar(i): v for i, v in enumerate(point, start=1)})
        (form,) = [f for f in chain if sum(c * p for c, p in zip(f, point)) == value]
        pieces.append((IneqSystem(n, rows), form))
    return pieces


def evaluate_piecewise(pw, point):
    """Value of the first piece whose region contains the point."""
    for region, form in pw.pieces:
        if region.contains(point):
            return sum(c * p for c, p in zip(form, point))
    raise ValueError(f"no piece covers {point!r}")


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

    def test_cap_exceeded(self, monkeypatch):
        # the cap stops the twelve forms at 50 cell tests, 24 of them LPs
        calls = count_lp_calls(monkeypatch)
        with pytest.raises(BudgetExceeded, match="more than 50 cell tests"):
            piecewise_canonical(_term(TWELVE_FORMS), cap=50)
        assert len(calls) == 24

    def test_cap_counts_cell_tests_not_lps(self, monkeypatch):
        # the twelve forms take 724 cell tests, 354 of them LPs: the cap
        # counts every test, however it is decided
        calls = count_lp_calls(monkeypatch)
        t = _term(TWELVE_FORMS)
        assert len(piecewise_canonical(t, cap=724).pieces) == 122
        assert len(calls) == 354
        with pytest.raises(BudgetExceeded, match="more than 723 cell tests"):
            piecewise_canonical(t, cap=723)

    def test_cap_counts_forms_pushed_through_the_lattice(self, monkeypatch):
        # the 22 leaf forms of 21 copies of x1 \/ -x1 cost nothing: the cap
        # counts the 3 cell tests (1 of them an LP), so it answers at 3 and
        # stops at 2
        calls = count_lp_calls(monkeypatch)
        text = r" + ".join([r"(x1 \/ -x1)"] * 21)
        assert len(piecewise_canonical(_term(text), cap=3).pieces) == 2
        assert len(calls) == 1
        with pytest.raises(BudgetExceeded, match="more than 2 cell tests"):
            piecewise_canonical(_term(text), cap=2)

    def test_long_sum_is_pinned(self, monkeypatch):
        # x1 \/ -x1 summed N times has N + 1 leaf forms N x1, (N - 2) x1, ...
        # but two cells, whatever N
        calls = count_lp_calls(monkeypatch)
        for copies in (16, 21):
            calls.clear()
            pw = piecewise_canonical(_term(r" + ".join([r"(x1 \/ -x1)"] * copies)))
            assert {(region.rows, form) for region, form in pw.pieces} == {
                (((1,),), (copies,)), (((-1,),), (-copies,))
            }
            assert (len(calls), len(pw.pieces)) == (1, 2)

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
        pw = piecewise_canonical(t, n=n)
        q = RationalGroup()
        for _ in range(40):
            point = random_rational_point(rng, n)
            env = {xvar(i): v for i, v in enumerate(point, start=1)}
            assert evaluate_piecewise(pw, point) == eval_term(q, t, env)


class TestAgainstLPRefinement:
    """Interior points only replace LPs: the pieces, their rows and their
    order are those of the LP-per-test refinement."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_terms(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        t = random_term(rng, Signature.GROUP, n, rng.randint(1, 5), coeff=5)
        if len(_leaf_forms(t, n)) > 6:
            return
        assert piecewise_canonical(t, n=n).pieces == _lp_pieces(t, n)

    @pytest.mark.parametrize("text", [SIX_FORMS, TWELVE_FORMS])
    def test_pinned_forms(self, text):
        assert piecewise_canonical(_term(text), n=3).pieces == _lp_pieces(_term(text), 3)


class TestAgainstChainWalk:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_terms(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        t = random_term(rng, Signature.GROUP, n, rng.randint(1, 5), coeff=5)
        if len(_leaf_forms(t, n)) > 6:
            return
        _assert_agrees_with_chain_walk(t, n, rng)

    def test_six_forms(self):
        _assert_agrees_with_chain_walk(_term(SIX_FORMS), 3, random.Random(6), 200)

    # sums, negations and scalars above the lattice operations
    @pytest.mark.parametrize(
        "text,n",
        [
            (r"x1 + (x1 \/ x2)", 2),
            (r"-(x1 \/ x2)", 2),
            (r"-2 (x1 /\ x2)", 2),
            (r"0 \/ x1 + -x1", 1),
            (r"(x1 \/ x2) + (x1 \/ x2)", 2),
        ],
    )
    def test_operations_above_the_lattice(self, text, n):
        _assert_agrees_with_chain_walk(_term(text), n, random.Random(text), 100)


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

    def test_recognizes_sums_of_z1(self):
        phi = parse_sentence("forall x1 exists! z1 : z1 + 2 z1 = x1", Signature.GROUP)
        assert sentence_to_delta_kt(phi).k == 3

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
