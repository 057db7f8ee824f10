import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from efdkit import geometry
from efdkit.canonical import piecewise_canonical
from efdkit.cli import run
from efdkit.geometry import (
    FullDimResult,
    IneqSystem,
    _farkas,
    feasible_point,
    is_full_dimensional,
    normalize_row,
)
from efdkit.selftest import _cleared, _integer_rank
from efdkit.terms import Signature, parse_term

from test_canonical import SIX_FORMS, count_cell_tests, count_lp_calls


def _rank(vectors, n):
    """Exact rank by the fulldim suite's integer elimination."""
    return _integer_rank(map(_cleared, vectors), n)


class TestRowUtilities:
    def test_normalize_row_divides_gcd(self):
        assert normalize_row((4, -6, 8)) == (2, -3, 4)

    def test_normalize_row_keeps_primitive(self):
        assert normalize_row((3, 5)) == (3, 5)

    def test_normalize_zero_row(self):
        assert normalize_row((0, 0)) == (0, 0)

    def test_rank(self):
        assert _rank([(1, 0), (0, 1)], 2) == 2
        assert _rank([(1, 2), (2, 4)], 2) == 1


class TestFeasiblePoint:
    def test_simple_feasible(self):
        p = feasible_point([(1, 0), (0, 1)], [1, 1], 2)
        assert p is not None and p[0] >= 1 and p[1] >= 1

    def test_infeasible(self):
        assert feasible_point([(1,), (-1,)], [1, 1], 1) is None

    def test_negative_direction(self):
        p = feasible_point([(-1,)], [3], 1)
        assert p is not None and -p[0] >= 3

    def test_exactness(self):
        p = feasible_point([(3, -7), (-2, 5)], [1, 1], 2)
        assert p is not None
        assert 3 * p[0] - 7 * p[1] >= 1 and -2 * p[0] + 5 * p[1] >= 1
        assert all(isinstance(c, Fraction) for c in p)


def _frac(text):
    return None if text is None else tuple(Fraction(c) for c in text)


# Points of the phase-1 simplex on the Farkas alternative, read off its
# multipliers: each row whose y ends basic is tight there, and a coordinate
# whose artificial ends basic is -1 / optimum.  Cases 4, 5, 6, 8, 12 and 13
# end elsewhere if ratio ties go to the higher basic index.
FEASIBLE_CASES = [
    ([(1, 0), (0, 1)], [1, 1], 2, ("1", "1")),
    ([(1,), (-1,)], [1, 1], 1, None),
    ([(-1,)], [3], 1, ("-3",)),
    ([(3, -7), (-2, 5)], [1, 1], 2, ("12", "5")),
    ([(2, 1), (1, 3)], [3, -2], 2, ("2", "-1")),
    ([(1, 1, 1), (-1, 2, 0), (0, -1, 3)], [1, 1, 1], 3, ("0", "1/2", "1/2")),
    ([(4, -3, 2), (-1, 0, 1), (2, 2, -1)], [2, -1, 1], 3, ("2", "-1", "1")),
    ([(1, -1), (-1, 1)], [0, 1], 2, None),
    (
        [(3, 1, 0, -2), (0, 2, -1, 1), (-1, 0, 4, 1), (1, 1, 1, 1)],
        [1, 2, -3, 1],
        4,
        ("-2", "5", "-1", "-1"),
    ),
    ([(0, 0)], [1], 2, None),
    ([(0, 0)], [-1], 2, ("-1", "-1")),
    ([(5, -2, 0), (0, 3, -4), (-1, 0, 2), (2, -3, 1)], [1, 1, 1, 1], 3, ("7", "17/3", "4")),
    ([(2, -1, 0, 1), (-2, 1, 0, -1)], [-1, -1], 4, ("-1/2", "-1", "-1", "-1")),
    # a ratio-test tie that Bland's rule breaks towards the lower basic index
    ([(-3, -2, 2), (-1, 0, 2), (1, 2, 2)], [1, 1, -2], 3, ("-1", "-1", "1/2")),
]

# (rows, full, basis, certificate) of `fulldim --rows`
FULLDIM_CASES = [
    ("1,0;-1,0", False, None, [1, 0]),
    ("1", True, [["1"]], None),
    ("1,-1;0,1", True, [["2", "1"], ["7", "3"]], None),
    ("1,1,0;0,1,-1", True, [["1", "0", "-1"], ["4", "0", "-3"], ["3", "1", "-3"]], None),
    ("1,0,0;0,1,0;-1,-1,0", False, None, [1, 0, 0]),
    (
        "1,2,0,-1;0,1,1,0;2,0,-1,1",
        True,
        [
            ["1/2", "2", "-1", "-1"],
            ["7/2", "10", "-5", "-5"],
            ["5/2", "11", "-5", "-5"],
            ["5/2", "10", "-4", "-5"],
        ],
        None,
    ),
    ("1,-1,0,0;-1,1,0,0;0,0,1,1", False, None, [1, -1, 0, 0]),
    ("2,-3;-4,6", False, None, [2, -3]),
    # the first row is no implicit equality; the certificate is the second
    ("0,1;1,0;-1,0", False, None, [1, 0]),
]


# An integer checker of the LP's answers that shares no code with
# efdkit.geometry: a point satisfies every row exactly, and a refusal's
# multipliers y prove that no point does (Farkas): y >= 0, y^T A = 0 and
# y . b > 0, since then 0 = y^T A x >= y . b > 0 for any such x.


def _point_ok(rows, rhs, x):
    den = math.lcm(*(c.denominator for c in x))
    num = [c.numerator * (den // c.denominator) for c in x]
    return all(sum(a * v for a, v in zip(row, num)) >= b * den for row, b in zip(rows, rhs))


def _farkas_ok(rows, rhs, n, y):
    return (
        len(y) == len(rows)
        and all(type(c) is int and c >= 0 for c in y)
        and all(sum(c * row[k] for c, row in zip(y, rows)) == 0 for k in range(n))
        and sum(c * b for c, b in zip(y, rhs)) > 0
    )


def _random_systems():
    """500 seeded systems row . x >= b: n 1..4, m 1..6, entries -4..4,
    right-hand sides -3..2."""
    rng = random.Random(20260823)
    for _ in range(500):
        n, m = rng.randint(1, 4), rng.randint(1, 6)
        rows = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m)]
        rhs = [rng.randint(-3, 2) for _ in range(m)]
        yield rows, rhs, n


class TestPinnedSimplex:
    @pytest.mark.parametrize("rows,rhs,n,expected", FEASIBLE_CASES)
    def test_point_is_pinned(self, rows, rhs, n, expected):
        p = feasible_point(rows, rhs, n)
        assert (None if p is None else tuple(p)) == _frac(expected)
        if p is not None:
            assert all(type(c) is Fraction for c in p)

    @pytest.mark.parametrize("rows,full,basis,certificate", FULLDIM_CASES)
    def test_fulldim_json_is_pinned(self, capsys, rows, full, basis, certificate):
        assert run(["fulldim", "--rows", rows]) == 0
        parsed = [[int(c) for c in r.split(",")] for r in rows.split(";")]
        assert json.loads(capsys.readouterr().out) == {
            "basis": basis,
            "certificate": certificate,
            "full_dimensional": full,
            "n": len(parsed[0]),
            "rows": parsed,
            "schema": "efdkit/fulldim/2",
        }

    @pytest.mark.parametrize("rows", [case[0] for case in FULLDIM_CASES])
    def test_fulldim_makes_one_lp(self, monkeypatch, rows):
        calls = []
        inner = geometry._farkas

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(geometry, "_farkas", counting)
        assert run(["fulldim", "--rows", rows]) == 0
        assert len(calls) == 1

    def test_returned_points_satisfy_rows_exactly(self):
        found = 0
        for rows, rhs, n in _random_systems():
            p = feasible_point(rows, rhs, n)
            if p is not None:
                found += 1
                assert _point_ok(rows, rhs, p)
        assert found > 250

    def test_refusals_carry_farkas_certificates(self):
        refused = 0
        for rows, rhs, n in _random_systems():
            x, y = _farkas(rows, rhs, n)
            if x is not None:
                continue
            refused += 1
            assert _farkas_ok(rows, rhs, n, y)
            # one multiplier changed: made negative, or grown on a nonzero row
            for i, row in enumerate(rows):
                assert not _farkas_ok(rows, rhs, n, y[:i] + [-1 - y[i]] + y[i + 1 :])
                if any(row):
                    assert not _farkas_ok(rows, rhs, n, y[:i] + [y[i] + 1] + y[i + 1 :])
        assert refused == 88

    # each term's LP calls, cell tests (however each is decided) and pieces;
    # the term alone names the test, so a re-pin keeps its id
    PINNED = {
        r"2 x1 \/ 6 x1": (0, 2, 2),
        r"(x1 /\ x2) \/ (2 x1 - x2) \/ -x2": (0, 6, 4),
        SIX_FORMS: (14, 58, 22),
    }

    @pytest.mark.parametrize("text", list(PINNED))
    def test_lp_call_count_is_pinned(self, monkeypatch, text):
        lps = count_lp_calls(monkeypatch)
        tests = count_cell_tests(monkeypatch)
        pw = piecewise_canonical(parse_term(text, Signature.GROUP))
        assert (len(lps), len(tests), len(pw.pieces)) == self.PINNED[text]


class TestFullDimensionality:
    def test_empty_system_is_full(self):
        res = is_full_dimensional(IneqSystem(2, ()))
        assert res.full_dimensional
        assert res.basis is not None and _rank(res.basis, 2) == 2

    def test_halfspace_is_full(self):
        res = is_full_dimensional(IneqSystem(2, ((1, 0),)))
        assert res.full_dimensional

    def test_opposite_rows_collapse(self):
        res = is_full_dimensional(IneqSystem(2, ((1, 0), (-1, 0))))
        assert not res.full_dimensional
        assert res.certificate is not None and any(res.certificate)

    def test_certificate_vanishes_on_cone(self):
        system = IneqSystem(2, ((1, -1), (-1, 1)))
        res = is_full_dimensional(system)
        assert not res.full_dimensional
        for point in [(1, 1), (-2, -2), (0, 0), (Fraction(1, 3), Fraction(1, 3))]:
            assert system.contains(point)
            assert sum(c * p for c, p in zip(res.certificate, point)) == 0

    def test_basis_solutions_satisfy_system(self):
        system = IneqSystem(3, ((1, 1, 0), (0, 1, -1)))
        res = is_full_dimensional(system)
        assert res.full_dimensional
        assert len(res.basis) == 3
        assert _rank(res.basis, 3) == 3
        for v in res.basis:
            assert system.contains(v)

    def test_origin_only_cone_in_dim_1(self):
        # single zero row keeps the cone all of Q^1
        res = is_full_dimensional(IneqSystem(1, ((0,),)))
        assert res.full_dimensional

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3))
    def test_certificates_always_verify(self, seed, n, nrows):
        rng = random.Random(seed)
        rows = tuple(
            tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(nrows)
        )
        system = IneqSystem(n, rows)
        res = is_full_dimensional(system)
        pool = itertools.product(range(-3, 4), repeat=n)
        sols = [p for p in pool if system.contains(p)]
        if res.full_dimensional:
            assert _rank(res.basis, n) == n
            for v in res.basis:
                assert system.contains(v)
        else:
            assert any(res.certificate)
            for p in sols:
                assert sum(c * q for c, q in zip(res.certificate, p)) == 0
