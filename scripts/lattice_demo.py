#!/usr/bin/env python3
"""Walk through the classification pipeline and the expansion lattices.

Prints, for a few sentence sets, the canonical AE-class; then shows the
finite sub-posets over S in 2^{2,3,5} together with the matching axiom
schemas for the corresponding logic expansions.
"""

import itertools

from efdkit import (
    build_delta_k,
    build_epsilon_k,
    classify_group_sentences,
    classify_mv_sentences,
    emit_axioms,
    expansion_order,
    includes,
)
from efdkit.lattice import LogicExpansion, PrimeSet, divisible_g
from efdkit.terms import Signature, parse_sentence


def show_class(label, ae):
    primes = (
        sorted(ae.primes.primes)
        if ae.kind == "divisible" and ae.primes.kind == "finite"
        else ""
    )
    print(f"  {label:<32} -> {ae.family}:{ae.kind} {primes}")


def main() -> None:
    print("Group sentence sets (delta_{k,t} shapes):")
    phi = parse_sentence(r"forall x1 exists! z1 : 4 z1 = 2 x1 \/ 6 x1", Signature.GROUP)
    show_class("delta_4 with t = 2x1 \\/ 6x1", classify_group_sentences([phi]))
    show_class(
        "delta_6 and delta_10",
        classify_group_sentences([build_delta_k(6), build_delta_k(10)]),
    )

    print("\nMV sentence sets (epsilon_k):")
    for k in (1, 2, 6, 12):
        show_class(f"epsilon_{k}", classify_mv_sentences([build_epsilon_k(k)]).ae_class)

    print("\nG-family sub-poset over S in 2^{2,3,5} (edges of inclusion):")
    subsets = [
        frozenset(s) for r in range(4) for s in itertools.combinations((2, 3, 5), r)
    ]
    classes = {tuple(sorted(S)): divisible_g(PrimeSet.finite(S)) for S in subsets}
    for s1, c1 in classes.items():
        covers = [
            s2
            for s2, c2 in classes.items()
            if includes(c2, c1) and len(s2) == len(s1) + 1
        ]
        print(f"  Div{list(s1)} has immediate subclasses {[list(s) for s in covers]}")

    print("\nExpansion order mirrors reverse inclusion:")
    e_23 = LogicExpansion("bal", PrimeSet.finite({2, 3}))
    e_2 = LogicExpansion("bal", PrimeSet.finite({2}))
    print(f"  order(bal^{{2}}, bal^{{2,3}}) = {expansion_order(e_2, e_23)}")
    print(f"  order(bal^{{2,3}}, bal^{{2}}) = {expansion_order(e_23, e_2)}")

    print("\nAxiom schemas:")
    for base, primes in (("bal", {2, 3}), ("lp", {5})):
        for schema in emit_axioms(LogicExpansion(base, PrimeSet.finite(primes))):
            print(f"  {schema.name}: {schema.formula}")


if __name__ == "__main__":
    main()
