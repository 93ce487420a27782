"""The package's public surface is exactly the names listed here, and
importing it loads nothing heavy."""

import os
import subprocess
import sys
from pathlib import Path

import qschur

SRC = Path(__file__).resolve().parent.parent / "src"

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


def test_cold_import_loads_no_introspection_modules():
    # A fresh interpreter, so no other test's imports count.  These modules
    # come with dataclasses and cost a fresh verify process its start-up.
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys, qschur; print([m for m in {heavy!r} if m in sys.modules])",
        ],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert loaded.strip() == "[]"
