import math

import pytest
from hypothesis import given, settings, strategies as st

from efdkit.errors import BudgetExceeded
from efdkit.lattice import (
    ALL_PRIMES,
    AEClass,
    EMPTY_PRIMES,
    LatticeError,
    LogicExpansion,
    PrimeSet,
    associated_class,
    boolean_p,
    divisible_g,
    divisible_p,
    emit_axioms,
    expansion_order,
    includes,
    is_prime,
    join,
    meet,
    prime_factors,
    trivial_g,
    trivial_p,
)

PRIMES = (2, 3, 5, 7, 11)


class TestPrimes:
    def test_is_prime(self):
        assert [p for p in range(2, 30) if is_prime(p)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]

    def test_prime_factors(self):
        assert prime_factors(12) == frozenset({2, 3})
        assert prime_factors(1) == frozenset()
        assert prime_factors(49) == frozenset({7})

    def test_is_prime_agrees_with_trial_division(self):
        def trial(p):
            return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))

        assert all(is_prime(p) == trial(p) for p in range(-2, 10**5))

    def test_strong_pseudoprimes_are_composite(self):
        # the least strong pseudoprimes to the bases 2..31 and 2..37
        assert not is_prime(3825123056546413051)
        assert not is_prime(318665857834031151167461)
        # a Carmichael number without a factor among the bases: every base
        # reaches 1 through a square root of 1 other than -1
        assert not is_prime(211 * 421 * 631)
        assert prime_factors(211 * 421 * 631) == frozenset({211, 421, 631})

    def test_large_prime_is_decided_at_once(self):
        p = 1000000000000000003
        assert is_prime(p)
        assert prime_factors(p) == frozenset({p})
        assert prime_factors(2**90 * 9 * p) == frozenset({2, 3, p})

    def test_undecided_above_the_bound(self):
        # the least strong pseudoprime to the bases 2..41 is the bound itself
        with pytest.raises(ValueError):
            is_prime(3317044064679887385961981)
        assert not is_prime(2 * 3317044064679887385961981)
        assert prime_factors(2**100) == frozenset({2})

    def test_factoring_stops_at_the_trial_bound(self):
        # 999983 is the largest prime below the bound, 1000003 the least above it
        assert prime_factors(999983 * 1000003) == frozenset({999983, 1000003})
        assert prime_factors(3825123056546413051) == frozenset({149491, 747451, 34233211})
        for k in (1000003 * 1000033, 318665857834031151167461, 3317044064679887385961981):
            with pytest.raises(BudgetExceeded, match=f"k = {k}:"):
                prime_factors(k)


prime_sets = st.builds(
    lambda kind, ps: PrimeSet(kind, frozenset(ps)),
    st.sampled_from(("finite", "cofinite")),
    st.sets(st.sampled_from(PRIMES)),
)


class TestPrimeSet:
    def test_finite_contains(self):
        s = PrimeSet.finite({2, 3})
        assert s.contains(2) and not s.contains(5)

    def test_cofinite_contains(self):
        s = PrimeSet.cofinite({2})
        assert not s.contains(2) and s.contains(7)

    def test_rejects_composite(self):
        with pytest.raises(LatticeError):
            PrimeSet.finite({4})

    def test_mixed_union(self):
        s = PrimeSet.finite({2}).union(PrimeSet.cofinite({2, 3}))
        assert s == PrimeSet.cofinite({3})

    def test_mixed_intersection(self):
        s = PrimeSet.finite({2, 3}).intersection(PrimeSet.cofinite({2}))
        assert s == PrimeSet.finite({3})

    def test_cofinite_never_subset_of_finite(self):
        assert not ALL_PRIMES.issubset(PrimeSet.finite({2, 3, 5}))
        assert EMPTY_PRIMES.issubset(ALL_PRIMES)

    @settings(max_examples=300, deadline=None)
    @given(prime_sets, prime_sets)
    def test_set_algebra_pointwise(self, a, b):
        for p in PRIMES + (13,):
            assert a.union(b).contains(p) == (a.contains(p) or b.contains(p))
            assert a.intersection(b).contains(p) == (a.contains(p) and b.contains(p))
        if a.issubset(b):
            for p in PRIMES + (13, 17):
                assert not a.contains(p) or b.contains(p)


def classes(family):
    base = [st.just(AEClass(family, "trivial"))]
    if family == "P":
        base.append(st.just(AEClass(family, "boolean")))
    base.append(st.builds(lambda ps: AEClass(family, "divisible", ps), prime_sets))
    return st.one_of(base)


class TestAEClasses:
    def test_constructor_validation(self):
        with pytest.raises(LatticeError):
            AEClass("G", "boolean")
        with pytest.raises(LatticeError):
            AEClass("P", "divisible")
        with pytest.raises(LatticeError):
            AEClass("P", "trivial", EMPTY_PRIMES)

    def test_chain_positions(self):
        assert includes(trivial_p(), boolean_p())
        assert includes(boolean_p(), divisible_p(EMPTY_PRIMES))
        assert not includes(divisible_p(EMPTY_PRIMES), boolean_p())

    def test_divisible_ordering_reverses_prime_inclusion(self):
        big = divisible_g(PrimeSet.finite({2, 3}))
        small = divisible_g(PrimeSet.finite({2}))
        assert includes(big, small)
        assert not includes(small, big)

    def test_meet_unions_join_intersects(self):
        a = divisible_g(PrimeSet.finite({2}))
        b = divisible_g(PrimeSet.finite({3}))
        assert meet(a, b) == divisible_g(PrimeSet.finite({2, 3}))
        assert join(a, b) == divisible_g(EMPTY_PRIMES)

    def test_family_mismatch(self):
        with pytest.raises(LatticeError):
            includes(trivial_g(), trivial_p())

    @settings(max_examples=300, deadline=None)
    @given(classes("P"), classes("P"), classes("P"))
    def test_lattice_laws(self, a, b, c):
        assert meet(a, b) == meet(b, a)
        assert join(a, b) == join(b, a)
        assert meet(a, meet(b, c)) == meet(meet(a, b), c)
        assert join(a, join(b, c)) == join(join(a, b), c)
        assert meet(a, join(a, b)) == a
        assert join(a, meet(a, b)) == a
        assert includes(meet(a, b), a) and includes(meet(a, b), b)
        assert includes(a, join(a, b)) and includes(b, join(a, b))

    @settings(max_examples=300, deadline=None)
    @given(classes("G"), classes("G"))
    def test_order_agrees_with_meet(self, a, b):
        assert includes(a, b) == (meet(a, b) == a)


class TestExpansions:
    def test_validation(self):
        with pytest.raises(LatticeError):
            LogicExpansion("intuitionistic")
        with pytest.raises(LatticeError):
            LogicExpansion("bal", special="classical")

    def test_associated_classes(self):
        assert associated_class(LogicExpansion("bal", special="inconsistent")) == trivial_g()
        assert associated_class(LogicExpansion("lp", special="classical")) == boolean_p()
        assert associated_class(
            LogicExpansion("lp", PrimeSet.finite({2}))
        ) == divisible_p(PrimeSet.finite({2}))

    def test_order_duality(self):
        e_small = LogicExpansion("bal", PrimeSet.finite({2}))
        e_big = LogicExpansion("bal", PrimeSet.finite({2, 3}))
        assert expansion_order(e_small, e_big) == "morphism-exists"
        assert expansion_order(e_big, e_small) == "incomparable"
        assert expansion_order(e_big, e_big) == "equipollent"

    def test_base_mismatch(self):
        with pytest.raises(LatticeError):
            expansion_order(
                LogicExpansion("bal"), LogicExpansion("lp")
            )

    def test_equipollent_iff_same_prime_set(self):
        e1 = LogicExpansion("lp", PrimeSet.finite({2, 3}))
        e2 = LogicExpansion("lp", PrimeSet.finite({3, 2}))
        assert expansion_order(e1, e2) == "equipollent"


class TestAxioms:
    def test_bal_existence_axioms(self):
        schemas = emit_axioms(LogicExpansion("bal", PrimeSet.finite({2, 3})))
        assert [s.name for s in schemas] == ["A_2", "A_3"]
        assert schemas[0].formula == "x -> 2 d2(x)"
        assert schemas[0].fresh_symbols == ("d2",)

    def test_lp_definition_axioms(self):
        schemas = emit_axioms(LogicExpansion("lp", PrimeSet.finite({5})))
        assert schemas[0].name == "D_5"
        assert schemas[0].formula.endswith("<-> x")
        assert "d5(x)^5" in schemas[0].formula

    def test_uniqueness_note_present(self):
        schemas = emit_axioms(LogicExpansion("bal", PrimeSet.finite({2})))
        assert "derivable" in schemas[0].note

    def test_structured_form_matches_string(self):
        schema = emit_axioms(LogicExpansion("bal", PrimeSet.finite({3})))[0]
        assert schema.structured["right"]["k"] == 3

    def test_special_and_cofinite_rejected(self):
        with pytest.raises(LatticeError):
            emit_axioms(LogicExpansion("bal", special="inconsistent"))
        with pytest.raises(LatticeError):
            emit_axioms(LogicExpansion("bal", ALL_PRIMES))
