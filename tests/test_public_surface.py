"""The package's public surface is exactly the names listed here."""

import qschur

PUBLIC = [
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


def test_public_names_are_pinned():
    # A name added to or dropped from __all__ must be added or dropped here.
    assert sorted(qschur.__all__) == PUBLIC
    assert len(PUBLIC) == 54
    for name in PUBLIC:
        assert hasattr(qschur, name), name
