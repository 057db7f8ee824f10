"""Exact-arithmetic toolkit for canonicalizing and classifying equational
function definitions over abelian l-groups, cancellative hoops, and perfect
MV-algebras, cross-validated against computable witness algebras.

Importing the package executes none of its modules.  Each module below is
registered lazily (importlib's LazyLoader): it is in ``sys.modules`` and an
attribute of the package at once, and its body runs on its first attribute
access, so a CLI query compiles only the modules it runs.  The public names
resolve the same way, on first access (PEP 562)."""

import importlib.util
import sys

# Each lazily executed module and the public names the package re-exports
# from it.  errors and record export nothing here; they are lazy so that
# efdkit.errors and efdkit.record resolve after a bare ``import efdkit``.
_EXPORTS = {
    "errors": (),
    "record": (),
    "terms": (
        "Signature",
        "Term",
        "EFDSentence",
        "Identity",
        "parse_term",
        "parse_sentence",
        "print_term",
        "print_sentence",
        "build_t_k",
        "build_delta_k",
        "build_epsilon_k",
        "boolean_marker",
    ),
    "geometry": ("IneqSystem", "is_full_dimensional"),
    "lattice": (
        "PrimeSet",
        "AEClass",
        "LogicExpansion",
        "includes",
        "meet",
        "join",
        "expansion_order",
        "emit_axioms",
    ),
    "canonical": (
        "PiecewiseLinear",
        "DeltaKT",
        "piecewise_canonical",
        "reduce_delta_kt",
    ),
    "models": (
        "IntegerGroup",
        "RationalGroup",
        "LocalizedRationals",
        "LexProduct",
        "PositiveCone",
        "GammaPerfect",
        "TwoMV",
        "eval_term",
        "radical_member",
        "holds_delta_exact",
        "check_sentence_sampled",
        "parse_model",
    ),
    "translate": (
        "star_term",
        "star_sentence",
        "check_in_two",
        "phi_rad_decompose",
        "mv_to_hoop",
        "classify_group_sentences",
        "classify_mv_sentences",
        "check_sentence",
    ),
}

_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNERS)

__version__ = "0.1.0"


def _register_lazy(module: str) -> None:
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lazy
    globals()[module] = lazy
    spec.loader.exec_module(lazy)


for _module in _EXPORTS:
    _register_lazy(_module)
del _module


def __getattr__(name: str):
    module = _OWNERS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[module], name)
    globals()[name] = value
    return value
