"""Property suites backing the `selftest` subcommand and the acceptance
tests.  Each suite returns a machine-readable report with per-check results
and a counterexample on failure.
"""

from __future__ import annotations

import inspect
import itertools
import math
import random
from fractions import Fraction

from . import terms, translate
from .canonical import DeltaKT, piecewise_canonical, reduce_delta_kt
from .errors import DEFAULT_SEED
from .gen import random_rational_point, random_term
from .geometry import IneqSystem, is_full_dimensional
from .lattice import (
    AEClass,
    LogicExpansion,
    PrimeSet,
    associated_class,
    divisible_g,
    divisible_p,
    emit_axioms,
    expansion_order,
    includes,
    join,
    meet,
    prime_factors,
    trivial_g,
    trivial_p,
    boolean_p,
)
from .models import (
    GammaPerfect,
    LocalizedRationals,
    PositiveCone,
    RationalGroup,
    _Solver,
    _layout,
    eval_term,
    gamma_div,
    holds_delta_exact,
    qs_member,
    radical_member,
    sample_elements,
)
from .terms import (
    MVNeg,
    Plus,
    Signature,
    build_epsilon_k,
    build_t_k,
    parse_term,
    xvar,
    zvar,
)
from .translate import phi_rad_decompose, star_term

__all__ = ["SuiteReport", "SUITES", "run_suite", "run_all"]


class SuiteReport:
    def __init__(self, name: str):
        self.name = name
        self.passed = True
        self.checks: list = []
        self.counterexample = None

    def record(self, label: str, ok: bool, witness=None):
        self.checks.append({"check": label, "ok": bool(ok)})
        if not ok:
            self.passed = False
            if self.counterexample is None:
                self.counterexample = witness if witness is not None else label

    def to_json(self):
        return {
            "suite": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "counterexample": repr(self.counterexample)
            if self.counterexample is not None
            else None,
        }


# ---------------------------------------------------------------------------
# 1. Piecewise soundness


def suite_piecewise(seed: int = DEFAULT_SEED, budget: int = 200) -> SuiteReport:
    """Random group terms: exact value equals the containing piece's form at
    every sampled rational point, and some piece covers every point."""
    report = SuiteReport("piecewise")
    rng = random.Random(seed)
    q = RationalGroup()
    for made in range(1, budget + 1):
        n = rng.randint(1, 3)
        t = random_term(rng, Signature.GROUP, n, rng.randint(1, 5), coeff=6)
        pw = piecewise_canonical(t, n=n)
        bad = None
        for _ in range(1000):
            point = random_rational_point(rng, n)
            # homogeneity: checking at the common-denominator integer
            # multiple is equivalent and keeps the arithmetic integral
            ipoint = tuple(_cleared(point))
            env = {xvar(i): Fraction(v) for i, v in enumerate(ipoint, start=1)}
            value = eval_term(q, t, env)
            hit = None
            for region, form in pw.pieces:
                if region.contains(ipoint):
                    hit = form
                    break
            if hit is None or sum(c * p for c, p in zip(hit, ipoint)) != value:
                bad = (t, point, hit, value)
                break
        report.record(f"term {made}", bad is None, bad)
        if bad:
            break
    return report


# ---------------------------------------------------------------------------
# 2. Reduction oracle

_REDUCTION_TERMS = [
    "x1",
    r"2 x1 \/ 6 x1",
    "2 x1 + 4 x2",
    r"x1 \/ -x1",
    r"(2 x1 \/ 4 x2) + 2 x3",
]


def _delta_kt_on_qs_sampled(k: int, t, n: int, S: frozenset[int]) -> bool:
    """Exact-arithmetic falsification sampling of delta_{k,t} on Q_S:
    every sampled value of t must divide by k inside Q_S.  Integer box
    points include the coefficient-gcd witnesses for this term family."""
    q = RationalGroup()
    points = [
        tuple(map(Fraction, p)) for p in itertools.product(range(-3, 4), repeat=n)
    ]
    for p in sorted(S):
        points.append(tuple(Fraction(1, p) for _ in range(n)))
    for point in points:
        env = {xvar(i): v for i, v in enumerate(point, start=1)}
        value = eval_term(q, t, env)
        if not qs_member(Fraction(value) / k, S):
            return False
    return True


def suite_reduction_oracle(seed: int = DEFAULT_SEED) -> SuiteReport:
    """delta_{k,t} ~ delta_{k'}: the Q_S oracle agrees with primes(k')
    membership for every instance and every S in 2^{2,3,5}."""
    report = SuiteReport("reduction-oracle")
    subsets = [
        frozenset(s)
        for r in range(4)
        for s in itertools.combinations((2, 3, 5), r)
    ]
    instances = 0
    for k in range(1, 13):
        for text in _REDUCTION_TERMS:
            t = parse_term(text, Signature.GROUP)
            n = terms.max_index(t, "x")
            kprime = reduce_delta_kt(DeltaKT(k, t))
            ok_all = True
            for S in subsets:
                expected = prime_factors(kprime) <= S
                observed = _delta_kt_on_qs_sampled(k, t, n, S)
                if expected != observed:
                    ok_all = False
                    report.record(
                        f"k={k} t={text!r} S={sorted(S)}",
                        False,
                        (k, text, sorted(S), kprime, expected, observed),
                    )
            if ok_all:
                instances += 1
                report.record(f"k={k} t={text!r}", True)
    report.record("instance count >= 50", instances >= 50, instances)
    return report


# ---------------------------------------------------------------------------
# 3. Full-dimensionality oracle


def _integer_rank(vectors, n: int) -> int:
    """Rank of integer vectors, capped at n, by fraction-free elimination."""
    echelon: list[tuple[int, list[int]]] = []  # (leading index, row)
    for v in vectors:
        vec = list(v)
        for lead, b in echelon:
            f = vec[lead]
            if f:
                g = b[lead]
                vec = [g * a - f * c for a, c in zip(vec, b)]
        lead = next((i for i, c in enumerate(vec) if c), None)
        if lead is not None:
            echelon.append((lead, vec))
            if len(echelon) == n:
                break
    return len(echelon)


def _cleared(v) -> list[int]:
    """A rational vector scaled to integers by the lcm of its denominators."""
    m = math.lcm(*(c.denominator for c in v))
    return [c.numerator * (m // c.denominator) for c in v]


def _check_fulldim_system(system: IneqSystem, pool, report: SuiteReport) -> bool:
    res = is_full_dimensional(system)
    if res.full_dimensional:
        if res.basis is None or len(res.basis) != system.n:
            report.record("basis certificate", False, system)
            return False
        if not all(system.contains(v) for v in res.basis):
            report.record("basis satisfies system", False, system)
            return False
        if _integer_rank(map(_cleared, res.basis), system.n) != system.n:
            report.record("basis rank", False, system)
            return False
        return True
    # span oracle, independent of the LP: the integer pool points in the cone
    inside = [p for p in pool if system.contains(p)]
    if _integer_rank(inside, system.n) == system.n:
        report.record("span oracle vs LP", False, system)
        return False
    cert = res.certificate
    if cert is None or not any(cert):
        report.record("vanishing certificate", False, system)
        return False
    for point in inside:
        if sum(c * p for c, p in zip(cert, point)) != 0:
            report.record("certificate orthogonality", False, (system, point))
            return False
    return True


def suite_fulldim(seed: int = DEFAULT_SEED, budget: int = 2000) -> SuiteReport:
    """Exhaustive families for n <= 2 (coefficients [-3,3], <= 3 rows, up to
    row multiset symmetry) and n = 3 with coefficients [-1,1]; the remaining
    n = 3 family is covered by a seeded sample of the stated size."""
    report = SuiteReport("fulldim")
    rng = random.Random(seed)

    def rows_for(n, c):
        return [r for r in itertools.product(range(-c, c + 1), repeat=n)]

    def pool_for(n):
        return [p for p in itertools.product(range(-3, 4), repeat=n)]

    families = []
    for n in (1, 2):
        rows = rows_for(n, 3)
        systems = []
        for size in (1, 2, 3):
            systems.extend(itertools.combinations_with_replacement(rows, size))
        families.append((n, systems))
    rows3 = rows_for(3, 1)
    systems3 = []
    for size in (1, 2, 3):
        systems3.extend(itertools.combinations_with_replacement(rows3, size))
    families.append((3, systems3))
    sampled = []
    allrows3 = rows_for(3, 3)
    for _ in range(budget):
        size = rng.randint(1, 3)
        sampled.append(tuple(rng.choice(allrows3) for _ in range(size)))
    families.append((3, sampled))

    for n, systems in families:
        pool = pool_for(n)
        ok = True
        for rows in systems:
            system = IneqSystem(n, tuple(rows))
            if not _check_fulldim_system(system, pool, report):
                ok = False
                break
        report.record(f"family n={n} ({len(systems)} systems)", ok)
        if not ok:
            break
    return report


# ---------------------------------------------------------------------------
# 4. t_k endomorphism suite


def suite_endomorphism(seed: int = DEFAULT_SEED, budget: int = 1000) -> SuiteReport:
    report = SuiteReport("endomorphism")
    model = GammaPerfect(RationalGroup())
    z1 = zvar(1)
    pairs = list(
        zip(
            sample_elements(model, budget, seed),
            sample_elements(model, budget, seed + 1),
        )
    )
    for k in (2, 3, 5):
        tk = build_t_k(k)

        def apply_tk(e):
            return eval_term(model, tk, {z1: e})

        ok_add = ok_neg = ok_inj = ok_inv = True
        witness = None
        for a, b in pairs:
            ta, tb = apply_tk(a), apply_tk(b)
            s = eval_term(model, Plus(z1, zvar(2)), {z1: a, zvar(2): b})
            if apply_tk(s) != eval_term(model, Plus(z1, zvar(2)), {z1: ta, zvar(2): tb}):
                ok_add, witness = False, (k, a, b)
            neg_a = eval_term(model, terms.MVNeg(z1), {z1: a})
            if apply_tk(neg_a) != eval_term(model, terms.MVNeg(z1), {z1: ta}):
                ok_neg, witness = False, (k, a)
            if a != b and ta == tb:
                ok_inj, witness = False, (k, a, b)
            da = gamma_div(model, a, k)
            if da is None or apply_tk(da) != a or gamma_div(model, ta, k) != a:
                ok_inv, witness = False, (k, a)
            if not (ok_add and ok_neg and ok_inj and ok_inv):
                break
        report.record(f"k={k} additivity", ok_add, witness)
        report.record(f"k={k} negation-preservation", ok_neg, witness)
        report.record(f"k={k} injectivity", ok_inj, witness)
        report.record(f"k={k} d_k inverse", ok_inv, witness)
    return report


# ---------------------------------------------------------------------------
# 5. Star-translation transfer


def _delta_star_on_qs_sampled(k: int, S: frozenset[int]) -> bool:
    """delta_k* on Q_S by exact per-sample solving: k z = x \\/ -x with
    z \\/ 0 = z.  The sample includes x = 1, which falsifies exactly when
    primes(k) escape S."""
    samples = [Fraction(0), Fraction(1), Fraction(-1), Fraction(7), Fraction(-5)]
    for p in sorted(S):
        samples.extend((Fraction(1, p), Fraction(-3, p * p)))
    for x in samples:
        z = abs(x) / k
        if not qs_member(z, S):
            return False
        # z is the unique rational solution and satisfies z >= 0
        assert z >= 0 and k * z == abs(x)
    return True


def suite_star_transfer(seed: int = DEFAULT_SEED, budget: int = 100) -> SuiteReport:
    report = SuiteReport("star-transfer")
    subsets = [frozenset(s) for r in range(3) for s in itertools.combinations((2, 3), r)]
    for k in (1, 2, 3, 4, 6):
        for S in subsets:
            exact = holds_delta_exact(LocalizedRationals(S), k)
            starred = _delta_star_on_qs_sampled(k, S)
            report.record(
                f"delta_{k} vs star on S={sorted(S)}",
                exact == starred,
                (k, sorted(S), exact, starred),
            )
    rng = random.Random(seed)
    cone = PositiveCone(RationalGroup())
    q = RationalGroup()
    ok = True
    witness = None
    for i in range(budget):
        n = rng.randint(1, 3)
        t = random_term(rng, Signature.HOOP, n, rng.randint(1, 4), coeff=4)
        st = star_term(t)
        for _ in range(100):
            vals = [abs(v) for v in random_rational_point(rng, n)]
            env = {xvar(i): v for i, v in enumerate(vals, start=1)}
            if eval_term(cone, t, env) != eval_term(q, st, env):
                ok, witness = False, (t, vals)
                break
        if not ok:
            break
    report.record("hoop/star paired evaluation", ok, witness)
    return report


# ---------------------------------------------------------------------------
# 6. MV classification


def suite_mv_classification(seed: int = DEFAULT_SEED) -> SuiteReport:
    report = SuiteReport("mv-classification")
    for k in range(1, 13):
        result = translate.classify_mv_sentences([build_epsilon_k(k)])
        expected = divisible_p(PrimeSet.finite(prime_factors(k)))
        report.record(
            f"classify epsilon_{k}",
            result.ae_class == expected,
            (k, result.ae_class, expected),
        )
    primes = (2, 3, 5, 7)
    for r in range(len(primes) + 1):
        for S in itertools.combinations(primes, r):
            model = GammaPerfect(LocalizedRationals(frozenset(S)))
            for p in primes:
                report.record(
                    f"epsilon_{p} on S={list(S)}",
                    holds_delta_exact(model, p) == (p in S),
                    (p, S),
                )
    return report


# ---------------------------------------------------------------------------
# 7. Phi_rad decomposition


def _sign_pattern(model: GammaPerfect, values: list) -> tuple[int, ...]:
    return tuple(0 if radical_member(model, v) else 1 for v in values)


def _negate_by(model: GammaPerfect, values: list, ebar) -> list:
    out = []
    for v, e in zip(values, ebar):
        out.append(eval_term(model, MVNeg(xvar(1)), {xvar(1): v}) if e else v)
    return out


def suite_decomposition(seed: int = DEFAULT_SEED, budget: int = 500) -> SuiteReport:
    """Sentence-level agreement of the decomposition conjunction with the
    input over the structured assignments and budget sampled ones, the
    pointwise correspondence through sign patterns, and radical
    preservation (condition (i))."""
    report = SuiteReport("decomposition")
    configs = [
        (GammaPerfect(RationalGroup()), "gamma(q)"),
        (GammaPerfect(LocalizedRationals(frozenset({2}))), "gamma(qs:2)"),
    ]
    for model, label in configs:
        layout = _layout(model)
        structured = [layout.down(w, 1) for w in layout.structured(1)]
        for k in (2, 3):
            eps = build_epsilon_k(k)
            parts = phi_rad_decompose(eps)
            report.record(f"{label} eps_{k} branch count", len(parts) == 2)
            # one solver per sentence for the whole sample, so each keeps its memo;
            # solutions are decoded only where the radical-preservation check reads them
            solver_in = _Solver(model, eps)
            by_sign = {p.sign_vector: _Solver(model, p.sentence) for p in parts}
            input_ok = True
            branches_ok = True
            pointwise = True
            radical_pres = True
            witness = None
            # the structured values first: a small sample may miss every failing x
            for x in structured + sample_elements(model, budget, seed + k, cap=9):
                env = {xvar(1): x}
                sols_in, _ = solver_in.solve_codes(solver_in.codes(env))
                input_ok = input_ok and len(sols_in) == 1
                ebar = _sign_pattern(model, [x])
                xr = _negate_by(model, [x], ebar)[0]
                branch = by_sign[ebar]
                sols_br, _ = branch.solve_codes(branch.codes({xvar(1): xr}))
                if min(len(sols_in), 2) != min(len(sols_br), 2):
                    pointwise = False
                    witness = (label, k, x, len(sols_in), len(sols_br))
                if ebar == (0,):
                    for (zv,) in branch.decode(sols_br):
                        if not radical_member(model, zv):
                            radical_pres = False
                            witness = (label, k, x, zv)
                for solver in by_sign.values():
                    s, _ = solver.solve_codes(solver.codes(env))
                    if len(s) != 1:
                        branches_ok = False
            exact = holds_delta_exact(model, k)
            report.record(
                f"{label} eps_{k} aggregate agreement",
                (input_ok == branches_ok) and (input_ok == exact),
                (label, k, input_ok, branches_ok, exact),
            )
            report.record(f"{label} eps_{k} sign-pattern pointwise", pointwise, witness)
            report.record(f"{label} eps_{k} radical preservation", radical_pres, witness)
    return report


# ---------------------------------------------------------------------------
# 8. Lattice structure


def _subsets_235():
    return [
        frozenset(s) for r in range(4) for s in itertools.combinations((2, 3, 5), r)
    ]


def suite_lattice_laws(seed: int = DEFAULT_SEED, budget: int = 500) -> SuiteReport:
    report = SuiteReport("lattice-laws")
    subsets = _subsets_235()

    # finite shadow of 1 + 2^3 (G family)
    g_classes = [trivial_g()] + [divisible_g(PrimeSet.finite(S)) for S in subsets]
    expected_g = 0
    observed_g = 0
    iso_ok = True
    for c1, S1 in zip(g_classes, [None] + subsets):
        for c2, S2 in zip(g_classes, [None] + subsets):
            expect = S1 is None or (S2 is not None and S2 <= S1)
            expected_g += expect
            got = includes(c1, c2)
            observed_g += got
            if got != expect:
                iso_ok = False
    report.record("G poset isomorphic to 1+2^3", iso_ok and expected_g == observed_g)

    p_classes = [trivial_p(), boolean_p()] + [
        divisible_p(PrimeSet.finite(S)) for S in subsets
    ]
    tags = [("t",), ("b",)] + [("d", S) for S in subsets]
    iso_ok = True
    for c1, t1 in zip(p_classes, tags):
        for c2, t2 in zip(p_classes, tags):
            if t1[0] == "d" and t2[0] == "d":
                expect = t2[1] <= t1[1]
            elif t1[0] == "t":
                expect = True
            elif t1[0] == "b":
                expect = t2[0] != "t"
            else:
                expect = t2[0] != "t" and t2[0] != "b"
            if t1[0] == "d" and t2[0] == "b":
                expect = False
            if includes(c1, c2) != expect:
                iso_ok = False
    report.record("P poset isomorphic to 2+2^3", iso_ok)

    # lattice laws on random pairs including cofinite prime sets
    rng = random.Random(seed)

    def random_class():
        family = rng.choice(("G", "P"))
        kind = rng.choice(
            ("trivial", "divisible", "divisible", "divisible")
            + (("boolean",) if family == "P" else ())
        )
        if kind == "divisible":
            primes = frozenset(
                p for p in (2, 3, 5, 7, 11) if rng.random() < 0.4
            )
            ps = (
                PrimeSet.finite(primes)
                if rng.random() < 0.7
                else PrimeSet.cofinite(primes)
            )
            return AEClass(family, "divisible", ps)
        return AEClass(family, kind)

    laws_ok = True
    witness = None
    for _ in range(budget):
        family = rng.choice(("G", "P"))
        cs = []
        while len(cs) < 3:
            c = random_class()
            if c.family == family:
                cs.append(c)
        c1, c2, c3 = cs
        checks = [
            meet(c1, c1) == c1,
            join(c1, c1) == c1,
            meet(c1, c2) == meet(c2, c1),
            join(c1, c2) == join(c2, c1),
            meet(c1, join(c1, c2)) == c1,
            join(c1, meet(c1, c2)) == c1,
            includes(meet(c1, c2), c1),
            includes(c1, join(c1, c2)),
        ]
        if not all(checks):
            laws_ok, witness = False, (c1, c2, c3, checks)
            break
        # includes partial order
        if includes(c1, c2) and includes(c2, c3) and not includes(c1, c3):
            laws_ok, witness = False, (c1, c2, c3, "transitivity")
            break
        if includes(c1, c2) and includes(c2, c1) and c1 != c2:
            laws_ok, witness = False, (c1, c2, "antisymmetry")
            break
    report.record("lattice laws on random pairs", laws_ok, witness)

    # Galois duality of expansions over S in 2^{2,3,5}
    duality_ok = True
    for base in ("bal", "lp"):
        expansions = [LogicExpansion(base, PrimeSet.finite(S)) for S in subsets]
        expansions.append(LogicExpansion(base, special="inconsistent"))
        if base == "lp":
            expansions.append(LogicExpansion(base, special="classical"))
        for e1 in expansions:
            for e2 in expansions:
                rel = expansion_order(e1, e2)
                incl = includes(associated_class(e2), associated_class(e1))
                if (rel in ("morphism-exists", "equipollent")) != incl:
                    duality_ok = False
    report.record("expansion order dual to inclusion", duality_ok)

    # axiom emission spot checks
    bal_axioms = emit_axioms(LogicExpansion("bal", PrimeSet.finite({2})))
    lp_axioms = emit_axioms(LogicExpansion("lp", PrimeSet.finite({3})))
    report.record(
        "A_2 emitted",
        len(bal_axioms) == 1 and bal_axioms[0].formula == "x -> 2 d2(x)",
        bal_axioms,
    )
    report.record(
        "D_3 emitted",
        len(lp_axioms) == 1 and "d3(x)^3" in lp_axioms[0].formula,
        lp_axioms,
    )
    return report


SUITES = {
    "piecewise": suite_piecewise,
    "reduction-oracle": suite_reduction_oracle,
    "fulldim": suite_fulldim,
    "endomorphism": suite_endomorphism,
    "star-transfer": suite_star_transfer,
    "mv-classification": suite_mv_classification,
    "decomposition": suite_decomposition,
    "lattice-laws": suite_lattice_laws,
}


def _sampled(fn) -> bool:
    """A suite that takes a budget samples; the others are exhaustive over
    fixed sets."""
    return "budget" in inspect.signature(fn).parameters


def run_suite(name: str, seed: int = DEFAULT_SEED, budget: int | None = None) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    fn = SUITES[name]
    if budget is None:
        return fn(seed=seed)
    if not _sampled(fn):
        raise ValueError(f"suite {name!r} is exhaustive over a fixed set and takes no budget")
    return fn(seed=seed, budget=budget)


def run_all(seed: int = DEFAULT_SEED, budget: int | None = None) -> list[SuiteReport]:
    """Every suite; a budget applies to the sampled suites only."""
    return [
        run_suite(name, seed=seed, budget=budget if _sampled(fn) else None)
        for name, fn in SUITES.items()
    ]
