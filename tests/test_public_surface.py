"""The package's public surface is exactly the names listed here, and
importing it loads nothing heavy."""

import inspect
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
# Probed with the bad input as the shape of no rows.
TAKES_SHAPE_AND_ROWS = [qschur.SkewTableau]
# The public callables that take a tableau, rows of entries, an Expansion
# or a DescentSet first, which test_non_objects_raise_value_error probes.
TAKES_OBJECT = [
    qschur.CompositionTableau,
    qschur.composition_of,
    qschur.com_c,
    qschur.com_p,
    qschur.des_c,
    qschur.des_p,
    qschur.is_semistandard,
    qschur.is_standard,
    qschur.is_valid_sct,
    qschur.f_to_m,
    qschur.omega_f,
    qschur.is_fmf,
    qschur.f_component_count,
]
# The public callables the probes leave out, and why.
_DEGREE = "takes a degree: test_enumerators_check_the_degree_at_the_call"
EXEMPT = {
    "Composition": "a type alias",
    "Partition": "a type alias",
    "BudgetExceededError": "an exception",
    "Disagreement": "a record of a verify run",
    "VerificationReport": "a record of a verify run",
    "DescentSet": "takes a degree: test_descent_sets_take_int_members",
    "Expansion": "takes a degree: test_expansions_take_int_degrees_and_parts",
    "enumerate_compositions": _DEGREE,
    "enumerate_partitions": _DEGREE,
    "enumerate_skew_shapes": _DEGREE,
    "verify": "takes a theorem and a degree: test_verify_checks_its_degree",
}


def test_every_public_callable_is_probed_or_exempt():
    # A public callable added to __all__ must join a probe list or EXEMPT.
    probed = TAKES_PARTITION + TAKES_COMPOSITION + TAKES_SHAPE + TAKES_TWO_SHAPES
    probed += TAKES_SHAPE_AND_ROWS + TAKES_OBJECT
    names = {f.__name__ for f in probed}
    assert len(names) == len(probed)
    assert names.isdisjoint(EXEMPT)
    public = {name for name in qschur.__all__ if callable(getattr(qschur, name))}
    assert public == names | set(EXEMPT)


def _assert_each_raises_value_error(calls, bad):
    # Each call runs under an alarm, so a call that never returns fails
    # here instead of stalling the suite.
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


@pytest.mark.parametrize(
    "bad", [(1, 2), (0,), (2, -1), (2.5,), ("3",), (2.0, 1), (3, 1.5), (True, 2), 5]
)
def test_non_instances_raise_value_error(bad):
    # (1, 2) is a composition, but not a partition or a skew shape; no
    # tuple is a skew shape.  Parts that are not plain ints make no
    # instance, even 2.0 or True, and neither does a non-iterable.  The
    # iterators raise at the call, before their first step.
    empty = qschur.SkewShape()
    calls = TAKES_PARTITION + TAKES_SHAPE
    calls += TAKES_COMPOSITION if bad != (1, 2) else []
    calls += [lambda x, f=f: f(x, empty) for f in TAKES_TWO_SHAPES]
    calls += [lambda x, f=f: f(empty, x) for f in TAKES_TWO_SHAPES]
    calls += [lambda x, f=f: f(x, ()) for f in TAKES_SHAPE_AND_ROWS]
    _assert_each_raises_value_error(calls, bad)


@pytest.mark.parametrize("bad", [(1, 2), (0,), (2.5,), (True, 2), 5])
def test_non_objects_raise_value_error(bad):
    # No tuple or int is a tableau, an Expansion or a DescentSet, and no int
    # is a row of entries, nor rows of them.
    _assert_each_raises_value_error(TAKES_OBJECT, bad)


def test_input_helpers_return_what_they_check():
    # Each helper turns what it checked into the value the engine trusts,
    # and a non-iterable is no composition or partition either.
    from qschur.compositions import _composition, _instance, _partition
    from qschur.errors import _budget

    assert _composition([2, 1, 3]) == (2, 1, 3)
    assert _partition(iter([3, 1, 1]), "outer") == (3, 1, 1)
    shape = qschur.SkewShape((2, 1))
    assert _instance(shape, qschur.SkewShape, "a skew shape") is shape
    assert [_budget(b) for b in (None, 1, 10**7)] == [None, 1, 10**7]
    for bad in (5, None):
        with pytest.raises(ValueError, match="not a composition"):
            _composition(bad)
        with pytest.raises(ValueError, match="not an iterable outer"):
            _partition(bad, "outer")
    with pytest.raises(ValueError, match=r"not a skew shape: \(2, 1\)"):
        _instance((2, 1), qschur.SkewShape, "a skew shape")


def _takes_budget(f) -> bool:
    try:
        params = inspect.signature(f).parameters
    except (TypeError, ValueError):  # no signature to read
        return False
    return any(p in params for p in ("max_tableaux", "max_terms", "max_fillings"))


# Each public callable that takes a budget, on a valid first argument.
BUDGETED = {
    qschur.qs_f: ((1, 2),),
    qschur.skew_schur_f: (qschur.SkewShape((2, 1)),),
    qschur.schur_f: ((2, 1),),
    qschur.multiplicity_witnesses: ((2, 2),),
    qschur.brute_family_fmf: ((2, 1),),
    qschur.verify: ("schur", 3),
    qschur.f_to_m: (qschur.Expansion("F", 3, {(1, 2): 1}),),
    qschur.lr_expansion: (qschur.SkewShape((2, 1)),),
}


def test_every_budget_is_checked():
    # A budget is None or an int of at least 1, so not a bool either.
    public = [getattr(qschur, name) for name in qschur.__all__]
    assert set(BUDGETED) == {f for f in public if callable(f) and _takes_budget(f)}
    for f, args in BUDGETED.items():
        for bad in (0, -1, 2.5, "x", True):
            with pytest.raises(ValueError, match="a budget must be None or an int"):
                f(*args, bad)
        f(*args, None)


def test_descent_sets_take_int_members():
    with pytest.raises(ValueError, match=r"descent 1\.5 is not an int in 1\.\.2"):
        qschur.DescentSet(3, [1.5])
    for members in (["1"], [True], 5):
        with pytest.raises(ValueError):
            qschur.DescentSet(3, members)
    assert qschur.DescentSet(3, [1, 2]) == qschur.DescentSet(3, (2, 1))
    for degree in (2.5, "3", -1, True):
        with pytest.raises(ValueError, match="degree must be nonnegative, and an int"):
            qschur.DescentSet(degree, [1])


def test_expansions_take_int_degrees_and_parts():
    for degree in (2.5, "3", -1, True):
        with pytest.raises(ValueError, match="degree must be nonnegative, and an int"):
            qschur.Expansion("F", degree, {})
    for key in [(1.5, 1.5), ("3",), (2.0, 1), (True, 2)]:
        with pytest.raises(ValueError, match="is not a composition of 3"):
            qschur.Expansion("F", 3, {key: 1})
    with pytest.raises(ValueError, match=r"coefficient of \(3,\) is not an integer"):
        qschur.Expansion("F", 3, {(3,): True})
    assert qschur.Expansion("F", 3, [([2, 1], 1)]).terms == {(2, 1): 1}
    # A key is iterable, and a scalar multiple is a plain int, not a bool.
    with pytest.raises(ValueError, match="not a key: 5"):
        qschur.Expansion("F", 1, {5: 1})
    e = qschur.Expansion("F", 3, {(3,): 1})
    with pytest.raises(ValueError, match="not a key: 5"):
        e.coefficient(5)
    for scalar in (True, 2.0):
        with pytest.raises(TypeError):
            e * scalar
        with pytest.raises(TypeError):
            scalar * e
    assert e * 2 == 2 * e == e + e


def test_verify_checks_its_degree():
    for bad in (2.5, "3", 0, None, True):
        with pytest.raises(ValueError, match="max_n must be an int of at least 1"):
            qschur.verify("skew", bad)
    # A theorem is named by a string; a list is no name, though unhashable.
    with pytest.raises(ValueError, match=r"not a theorem name: \['schur'\]"):
        qschur.verify(["schur"], 3)


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
