"""The package's public surface is exactly the names listed here, and
importing it loads nothing heavy."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

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


def _timeout(signum, frame):
    raise TimeoutError("the call did not return within 3 s")


# The public callables that take a partition, a composition or a skew shape
# first, which test_non_instances_raise_value_error probes.
TAKES_PARTITION = [
    qschur.SkewShape,
    qschur.skew_schur_f,
    qschur.schur_f,
    qschur.schur_via_qs,
    qschur.brute_family_fmf,
    qschur.predict_family,
    qschur.predict_schur,
    qschur.conjugate,
]
TAKES_COMPOSITION = [
    qschur.complement,
    qschur.descent_set_of,
    qschur.qs_f,
    qschur.covers_up,
    qschur.covers_down,
    qschur.rearrangements,
    qschur.refinements,
    qschur.reverse,
    qschur.in_c2,
    qschur.in_c2_prime,
    qschur.enumerate_sct,
    qschur.canonical_filling,
    qschur.multiplicity_witnesses,
    qschur.predict_qs_components,
    qschur.predict_two_part,
]
TAKES_SHAPE = [qschur.enumerate_syt, qschur.lr_expansion, qschur.predict_skew]
# Probed with the bad input on either side of an empty shape.
TAKES_TWO_SHAPES = [qschur.disjoint_union]
# The public callables the probe leaves out, and why.
_DEGREE = "takes a degree: test_enumerators_check_the_degree_at_the_call"
EXEMPT = {
    "Composition": "a type alias",
    "Partition": "a type alias",
    "BudgetExceededError": "an exception",
    "Disagreement": "a record of a verify run",
    "VerificationReport": "a record of a verify run",
    "CompositionTableau": "takes rows of entries",
    "SkewTableau": "takes a shape and rows of entries",
    "DescentSet": "takes a degree: test_descent_sets_take_int_members",
    "Expansion": "takes a degree: test_expansions_take_int_degrees_and_parts",
    "composition_of": "takes a DescentSet",
    "com_c": "takes a tableau",
    "com_p": "takes a tableau",
    "des_c": "takes a tableau",
    "des_p": "takes a tableau",
    "is_semistandard": "takes a tableau",
    "is_standard": "takes a tableau",
    "is_valid_sct": "takes a tableau",
    "f_to_m": "takes an Expansion",
    "omega_f": "takes an Expansion",
    "is_fmf": "takes an Expansion",
    "f_component_count": "takes an Expansion",
    "enumerate_compositions": _DEGREE,
    "enumerate_partitions": _DEGREE,
    "enumerate_skew_shapes": _DEGREE,
    "verify": "takes a theorem and a degree: test_verify_checks_its_degree",
}


def test_every_public_callable_is_probed_or_exempt():
    # A public callable added to __all__ must join a probe list or EXEMPT.
    probed = TAKES_PARTITION + TAKES_COMPOSITION + TAKES_SHAPE + TAKES_TWO_SHAPES
    names = {f.__name__ for f in probed}
    assert len(names) == len(probed)
    assert names.isdisjoint(EXEMPT)
    public = {name for name in qschur.__all__ if callable(getattr(qschur, name))}
    assert public == names | set(EXEMPT)


@pytest.mark.parametrize(
    "bad", [(1, 2), (0,), (2, -1), (2.5,), ("3",), (2.0, 1), (3, 1.5)]
)
def test_non_instances_raise_value_error(bad):
    # Each call runs under an alarm, so a call that never returns fails
    # here instead of stalling the suite.  (1, 2) is a composition, but
    # not a partition or a skew shape; no tuple is a skew shape.  Parts
    # that are not ints make no instance, even 2.0.  The iterators raise
    # at the call, before their first step.
    empty = qschur.SkewShape()
    calls = TAKES_PARTITION + TAKES_SHAPE
    calls += TAKES_COMPOSITION if bad != (1, 2) else []
    calls += [lambda x, f=f: f(x, empty) for f in TAKES_TWO_SHAPES]
    calls += [lambda x, f=f: f(empty, x) for f in TAKES_TWO_SHAPES]
    previous = signal.signal(signal.SIGALRM, _timeout)
    try:
        for f in calls:
            signal.alarm(3)
            try:
                with pytest.raises(ValueError):
                    f(bad)
            finally:
                signal.alarm(0)
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_descent_sets_take_int_members():
    with pytest.raises(ValueError, match=r"descent 1\.5 is not an int in 1\.\.2"):
        qschur.DescentSet(3, [1.5])
    with pytest.raises(ValueError):
        qschur.DescentSet(3, ["1"])
    assert qschur.DescentSet(3, [1, 2]) == qschur.DescentSet(3, (2, 1))
    for degree in (2.5, "3", -1):
        with pytest.raises(ValueError, match="degree must be nonnegative, and an int"):
            qschur.DescentSet(degree, [1])


def test_expansions_take_int_degrees_and_parts():
    for degree in (2.5, "3", -1):
        with pytest.raises(ValueError, match="degree must be nonnegative, and an int"):
            qschur.Expansion("F", degree, {})
    for key in [(1.5, 1.5), ("3",), (2.0, 1)]:
        with pytest.raises(ValueError, match="is not a composition of 3"):
            qschur.Expansion("F", 3, {key: 1})
    assert qschur.Expansion("F", 3, [([2, 1], 1)]).terms == {(2, 1): 1}


def test_verify_checks_its_degree():
    for bad in (2.5, "3", 0, None):
        with pytest.raises(ValueError, match="max_n must be an int of at least 1"):
            qschur.verify("skew", bad)


@pytest.mark.parametrize(
    "enumerate_n",
    [
        qschur.enumerate_skew_shapes,
        qschur.enumerate_partitions,
        qschur.enumerate_compositions,
    ],
)
def test_enumerators_check_the_degree_at_the_call(enumerate_n):
    # No next(): a generator function would raise only at its first step.
    for bad in (-1, 2.5, "3", None):
        with pytest.raises(ValueError, match="n must be a nonnegative integer"):
            enumerate_n(bad)
    assert list(enumerate_n(0)) in ([()], [qschur.SkewShape()])
