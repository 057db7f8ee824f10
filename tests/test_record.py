import os
import subprocess
import sys
from pathlib import Path

import pytest

import efdkit
from efdkit.geometry import IneqSystem
from efdkit.lattice import EMPTY_PRIMES, AEClass, LogicExpansion
from efdkit.models import (
    GammaPerfect,
    IntegerGroup,
    LexProduct,
    LocalizedRationals,
    ModelError,
    PositiveCone,
    RationalGroup,
    TwoMV,
    Verdict,
)
from efdkit.record import Record
from efdkit.terms import ZERO, Join, Neg, Plus, Var, xvar
from efdkit.translate import MVClassification


def test_equality_needs_the_same_class():
    a, b = xvar(1), xvar(2)
    assert Plus(a, b) == Plus(Var("x", 1), Var("x", 2))
    assert Plus(a, b) != Join(a, b)
    assert Var("x", 1) != Var("z", 1)
    assert Var("x", 1) != ("x", 1)
    z, q = IntegerGroup(), RationalGroup()
    assert z == IntegerGroup() != q != TwoMV()
    assert LocalizedRationals(frozenset({2, 3})) == LocalizedRationals(frozenset({3, 2}))
    assert LocalizedRationals(frozenset({2})) != LocalizedRationals(frozenset({3}))
    assert LexProduct(z, q) == LexProduct(IntegerGroup(), RationalGroup()) != LexProduct(q, z)
    assert PositiveCone(q) == PositiveCone(RationalGroup()) != GammaPerfect(q)
    assert GammaPerfect(q) != GammaPerfect(z)


def test_equal_records_hash_alike_and_families_apart():
    a, b = xvar(1), xvar(2)
    assert hash(Plus(a, b)) == hash(Plus(Var("x", 1), Var("x", 2)))
    assert hash(Var("x", 1)) == hash(xvar(1))
    z, q, primes = IntegerGroup(), RationalGroup(), frozenset({2, 3})
    assert hash(LocalizedRationals(primes)) == hash(LocalizedRationals(frozenset({3, 2})))
    assert hash(LexProduct(z, q)) == hash(LexProduct(IntegerGroup(), RationalGroup()))
    assert hash(GammaPerfect(q)) == hash(GammaPerfect(RationalGroup()))
    # records of one family: equal fields, or none, in different classes
    families = [
        [Plus(a, b), Join(a, b)],
        [z, q, TwoMV(), ZERO],
        [LexProduct(z, z), LexProduct(z, q), LexProduct(q, z), LexProduct(q, q)],
        [PositiveCone(q), PositiveCone(z), GammaPerfect(q), GammaPerfect(z)],
    ]
    for family in families:
        assert len(set(map(hash, family))) == len(family), family


def test_witness_algebras_have_slots_and_their_own_init():
    q = RationalGroup()
    for a in (IntegerGroup(), q, LocalizedRationals(frozenset({2})), LexProduct(q, q),
              PositiveCone(q), GammaPerfect(q), TwoMV()):
        assert not hasattr(a, "__dict__") and type(a).__init__ is not Record.__init__
    with pytest.raises(ModelError, match="4 is not prime"):
        LocalizedRationals(frozenset({2, 4}))
    with pytest.raises(TypeError):
        IntegerGroup(1)
    with pytest.raises(TypeError):
        LexProduct(IntegerGroup())


@pytest.mark.parametrize(
    "record",
    [
        Var("x", 1),
        IneqSystem(1, ((1,),)),
        Verdict("holds", True),
        IntegerGroup(),
        RationalGroup(),
        LocalizedRationals(frozenset({2})),
        LexProduct(IntegerGroup(), RationalGroup()),
        PositiveCone(RationalGroup()),
        GammaPerfect(RationalGroup()),
        TwoMV(),
    ],
)
def test_fields_are_frozen(record):
    name = record._fields[0] if record._fields else "extra"
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)


def test_repr_names_every_field():
    expected = "Verdict(status='holds', exact=True, witness=None, detail='')"
    assert repr(Verdict("holds", True)) == expected
    assert repr(Neg(xvar(1))) == "Neg(arg=Var(kind='x', index=1))"


def test_defaults_and_keywords():
    assert AEClass("G", "trivial").primes is None
    e = LogicExpansion("lp", special="classical")
    assert (e.base, e.primes, e.special) == ("lp", EMPTY_PRIMES, "classical")
    assert LogicExpansion("bal") == LogicExpansion("bal", EMPTY_PRIMES, None)
    assert MVClassification(AEClass("G", "trivial")).notes == ()
    with pytest.raises(TypeError):
        Verdict("holds")
    with pytest.raises(TypeError):
        Verdict("holds", True, status="falsified")


def test_fields_are_inherited_in_order():
    class Base(Record):
        a: int

    class Child(Base):
        b: int = 2

    assert Child._fields == ("a", "b")
    assert Child(1) == Child(a=1, b=2) != Child(1, 3)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """The value classes are Records: importing dataclasses (and with it
    inspect, ast, dis and tokenize) would add about 10 ms to every cold
    CLI start, and each @dataclass about 1 ms more.  The one-z solver is
    compiled at its first solve, not by the import."""
    code = (
        "import sys; before = set(sys.modules); import efdkit.cli; "
        "print(sorted({'dataclasses', 'inspect', 'efdkit.onez'} & (set(sys.modules) - before)))"
    )
    src = str(Path(efdkit.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert done.stdout == "[]\n"
