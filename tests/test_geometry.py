import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from efdkit.canonical import piecewise_canonical
from efdkit.cli import run
from efdkit.geometry import (
    FullDimResult,
    IneqSystem,
    feasible_point,
    gcd_all,
    is_full_dimensional,
    normalize_row,
)
from efdkit.selftest import _cleared, _integer_rank
from efdkit.terms import Signature, parse_term

from test_canonical import SIX_FORMS, count_lp_calls


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

    def test_gcd_all(self):
        assert gcd_all([4, -6, 10]) == 2

    def test_gcd_all_rejects_all_zero(self):
        with pytest.raises(ValueError):
            gcd_all([0, 0])

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


# Points returned by the rational-tableau simplex that the integer pivoting
# replaced; identical pivots must give identical points.
FEASIBLE_CASES = [
    ([(1, 0), (0, 1)], [1, 1], 2, ("1", "1")),
    ([(1,), (-1,)], [1, 1], 1, None),
    ([(-1,)], [3], 1, ("-3",)),
    ([(3, -7), (-2, 5)], [1, 1], 2, ("12", "5")),
    ([(2, 1), (1, 3)], [3, -2], 2, ("11/5", "-7/5")),
    ([(1, 1, 1), (-1, 2, 0), (0, -1, 3)], [1, 1, 1], 3, ("0", "1/2", "1/2")),
    ([(4, -3, 2), (-1, 0, 1), (2, 2, -1)], [2, -1, 1], 3, ("8/15", "-4/15", "-7/15")),
    ([(1, -1), (-1, 1)], [0, 1], 2, None),
    (
        [(3, 1, 0, -2), (0, 2, -1, 1), (-1, 0, 4, 1), (1, 1, 1, 1)],
        [1, 2, -3, 1],
        4,
        ("3/4", "1/4", "-3/4", "3/4"),
    ),
    ([(0, 0)], [1], 2, None),
    ([(0, 0)], [-1], 2, ("0", "0")),
    ([(5, -2, 0), (0, 3, -4), (-1, 0, 2), (2, -3, 1)], [1, 1, 1, 1], 3, ("7", "17/3", "4")),
    ([(2, -1, 0, 1), (-2, 1, 0, -1)], [-1, -1], 4, ("1/2", "0", "0", "0")),
    # a ratio-test tie that Bland's rule breaks towards the lower basic index
    ([(-3, -2, 2), (-1, 0, 2), (1, 2, 2)], [1, 1, -2], 3, ("0", "-3/2", "1/2")),
]


class TestPinnedSimplex:
    @pytest.mark.parametrize("rows,rhs,n,expected", FEASIBLE_CASES)
    def test_point_is_pinned(self, rows, rhs, n, expected):
        p = feasible_point(rows, rhs, n)
        assert (None if p is None else tuple(p)) == _frac(expected)
        if p is not None:
            assert all(type(c) is Fraction for c in p)

    @pytest.mark.parametrize(
        "rows,full,basis,certificate",
        [
            ("1,0;-1,0", False, None, [1, 0]),
            ("1", True, [["1"]], None),
            ("1,-1;0,1", True, [["2", "1"], ["7", "3"]], None),
            ("1,1,0;0,1,-1", True, [["0", "1", "0"], ["1", "3", "0"], ["0", "3", "1"]], None),
            ("1,0,0;0,1,0;-1,-1,0", False, None, [1, 0, 0]),
            (
                "1,2,0,-1;0,1,1,0;2,0,-1,1",
                True,
                [["1", "0", "1", "0"], ["6", "0", "5", "0"], ["5", "1", "5", "0"], ["5", "0", "5", "1"]],
                None,
            ),
            ("1,-1,0,0;-1,1,0,0;0,0,1,1", False, None, [1, -1, 0, 0]),
            ("2,-3;-4,6", False, None, [2, -3]),
        ],
    )
    def test_fulldim_json_is_pinned(self, capsys, rows, full, basis, certificate):
        assert run(["fulldim", "--rows", rows]) == 0
        parsed = [[int(c) for c in r.split(",")] for r in rows.split(";")]
        assert json.loads(capsys.readouterr().out) == {
            "basis": basis,
            "certificate": certificate,
            "full_dimensional": full,
            "n": len(parsed[0]),
            "rows": parsed,
            "schema": "efdkit/fulldim/1",
        }

    def test_returned_points_satisfy_rows_exactly(self):
        rng = random.Random(20260823)
        found = 0
        for _ in range(500):
            n, m = rng.randint(1, 4), rng.randint(1, 6)
            rows = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m)]
            rhs = [rng.randint(-3, 2) for _ in range(m)]
            p = feasible_point(rows, rhs, n)
            if p is not None:
                found += 1
                assert all(sum(c * x for c, x in zip(r, p)) >= b for r, b in zip(rows, rhs))
        assert found > 250

    @pytest.mark.parametrize(
        "text,calls,cells",
        [
            (r"2 x1 \/ 6 x1", 0, 2),
            (r"(x1 /\ x2) \/ (2 x1 - x2) \/ -x2", 1, 4),
            (SIX_FORMS, 28, 22),
        ],
    )
    def test_lp_call_count_is_pinned(self, monkeypatch, text, calls, cells):
        lps = count_lp_calls(monkeypatch)
        pw = piecewise_canonical(parse_term(text, Signature.GROUP))
        assert (len(lps), len(pw.pieces)) == (calls, cells)


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
