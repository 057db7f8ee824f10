"""Deterministic random generators for terms and rational points, shared by
the self-test suites and the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from .terms import _NODES, Neg, Power, Scalar, Signature, Term, Var, ZERO

__all__ = ["random_term", "random_rational_point"]


def random_term(
    rng: random.Random,
    sig: Signature,
    n: int,
    depth: int,
    coeff: int = 6,
    kinds: tuple[str, ...] = ("x",),
    m: int = 0,
) -> Term:
    """Random well-formed term of the given signature and nesting depth."""
    if depth <= 0 or rng.random() < 0.2:
        choices = ["var"] * 3 + ["zero"]
        pick = rng.choice(choices)
        if pick == "zero" or (n == 0 and m == 0):
            return ZERO
        kind = rng.choice([k for k in kinds if (n if k == "x" else m) > 0])
        bound = n if kind == "x" else m
        return Var(kind, rng.randint(1, bound))

    def sub():
        return random_term(rng, sig, n, depth - 1, coeff, kinds, m)

    node = rng.choice(_NODES[sig])
    if node is Scalar:
        t = Scalar(rng.randint(2, max(2, coeff)), sub())
        # negative group multiples are spelled with an explicit negation
        return Neg(t) if sig is Signature.GROUP and rng.random() < 0.3 else t
    if node is Power:
        return Power(rng.randint(2, max(2, coeff // 2)), sub())
    return node(*[sub() for _ in node._fields])


def random_rational_point(
    rng: random.Random, n: int, num_cap: int = 8, den_cap: int = 4
) -> tuple[Fraction, ...]:
    return tuple(
        Fraction(rng.randint(-num_cap, num_cap), rng.randint(1, den_cap))
        for _ in range(n)
    )
