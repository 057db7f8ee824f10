"""Exact-arithmetic toolkit for canonicalizing and classifying equational
function definitions over abelian l-groups, cancellative hoops, and perfect
MV-algebras, cross-validated against computable witness algebras."""

from .terms import (
    Signature,
    Term,
    EFDSentence,
    Identity,
    parse_term,
    parse_sentence,
    print_term,
    print_sentence,
    build_t_k,
    build_delta_k,
    build_epsilon_k,
    boolean_marker,
)
from .geometry import IneqSystem, is_full_dimensional, gcd_all
from .canonical import (
    PiecewiseLinear,
    DeltaKT,
    piecewise_canonical,
    reduce_delta_kt,
    classify_group_sentences,
)
from .translate import (
    star_term,
    star_sentence,
    check_in_two,
    phi_rad_decompose,
    mv_to_hoop,
    classify_mv_sentences,
    check_sentence,
)
from .models import (
    IntegerGroup,
    RationalGroup,
    LocalizedRationals,
    LexProduct,
    PositiveCone,
    GammaPerfect,
    TwoMV,
    eval_term,
    radical_member,
    holds_delta_exact,
    check_sentence_sampled,
    parse_model,
)
from .lattice import (
    PrimeSet,
    AEClass,
    LogicExpansion,
    includes,
    meet,
    join,
    expansion_order,
    emit_axioms,
)

__version__ = "0.1.0"
