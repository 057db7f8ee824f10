import os
import subprocess
import sys
from pathlib import Path

import pytest

import efdkit
from efdkit.geometry import IneqSystem
from efdkit.lattice import EMPTY_PRIMES, AEClass, LogicExpansion
from efdkit.models import _INTEGER, _RATIONAL, RationalGroup, Verdict, _group
from efdkit.record import Record
from efdkit.terms import ZERO, Join, Neg, Plus, Var, xvar
from efdkit.translate import MVClassification


def test_equality_needs_the_same_class():
    a, b = xvar(1), xvar(2)
    assert Plus(a, b) == Plus(Var("x", 1), Var("x", 2))
    assert Plus(a, b) != Join(a, b)
    assert Var("x", 1) != Var("z", 1)
    assert Var("x", 1) != ("x", 1)


def test_hash_is_the_hash_of_the_fields():
    a, b = xvar(1), xvar(2)
    assert hash(Var("x", 1)) == hash(("x", 1))
    assert hash(Plus(a, b)) == hash((a, b))
    assert hash(Neg(a)) == hash((a,))
    assert hash(ZERO) == hash(())
    assert hash(RationalGroup()) == hash(())


@pytest.mark.parametrize("record", [Var("x", 1), IneqSystem(1, ((1,),)), Verdict("holds", True)])
def test_fields_are_frozen(record):
    name = record._fields[0]
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


def test_scalar_groups_stay_apart_as_cache_keys():
    q = RationalGroup()
    assert _RATIONAL != _INTEGER
    assert _group(q, _INTEGER) is not _group(q)
    assert _group(q, _INTEGER) is not _group(q, _RATIONAL)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """The value classes are Records: importing dataclasses (and with it
    inspect, ast, dis and tokenize) would add about 10 ms to every cold
    CLI start, and each @dataclass about 1 ms more."""
    code = (
        "import sys; before = set(sys.modules); import efdkit.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    src = str(Path(efdkit.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert done.stdout == "[]\n"
