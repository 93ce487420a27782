"""Expansions of Schur, skew Schur, and quasisymmetric Schur functions in
the fundamental quasisymmetric basis, with multiplicity-freeness detection
and exhaustive verification of the closed-form classifications.

The index objects are plain tuples (compositions and partitions) and
:class:`SkewShape`; expansions are sparse integer maps; everything is
immutable and deterministic.
"""

from .compositions import (
    Composition,
    DescentSet,
    Partition,
    complement,
    composition_of,
    conjugate,
    descent_set_of,
    enumerate_compositions,
    enumerate_partitions,
    rearrangements,
    refinements,
    reverse,
)
from .ctableaux import (
    CompositionTableau,
    canonical_filling,
    com_c,
    covers_down,
    covers_up,
    des_c,
    enumerate_sct,
    is_valid_sct,
)
from .classify import (
    DEFAULT_MAX_TABLEAUX,
    THEOREMS,
    Disagreement,
    VerificationReport,
    brute_family_fmf,
    in_c2,
    in_c2_prime,
    predict_family,
    predict_qs_components,
    predict_schur,
    predict_skew,
    predict_two_part,
    verify,
)
from .errors import BudgetExceededError
from .expansion import Expansion
from .qsym import (
    f_component_count,
    f_to_m,
    is_fmf,
    multiplicity_witnesses,
    omega_f,
    qs_f,
    schur_f,
    schur_via_qs,
    skew_schur_f,
)
from .shapes import SkewShape, disjoint_union, enumerate_skew_shapes
from .young import (
    SkewTableau,
    com_p,
    des_p,
    enumerate_syt,
    is_semistandard,
    is_standard,
    lr_expansion,
)

__all__ = [
    "BudgetExceededError",
    "Composition",
    "CompositionTableau",
    "DEFAULT_MAX_TABLEAUX",
    "DescentSet",
    "Disagreement",
    "Expansion",
    "Partition",
    "SkewShape",
    "SkewTableau",
    "THEOREMS",
    "VerificationReport",
    "brute_family_fmf",
    "canonical_filling",
    "com_c",
    "com_p",
    "complement",
    "composition_of",
    "conjugate",
    "covers_down",
    "covers_up",
    "des_c",
    "des_p",
    "descent_set_of",
    "disjoint_union",
    "enumerate_compositions",
    "enumerate_partitions",
    "enumerate_sct",
    "enumerate_skew_shapes",
    "enumerate_syt",
    "f_component_count",
    "f_to_m",
    "in_c2",
    "in_c2_prime",
    "is_fmf",
    "is_semistandard",
    "is_standard",
    "is_valid_sct",
    "lr_expansion",
    "multiplicity_witnesses",
    "omega_f",
    "predict_family",
    "predict_qs_components",
    "predict_schur",
    "predict_skew",
    "predict_two_part",
    "qs_f",
    "rearrangements",
    "refinements",
    "reverse",
    "schur_f",
    "schur_via_qs",
    "skew_schur_f",
    "verify",
]
