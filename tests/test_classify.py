import hashlib
import json

import pytest

import qschur.classify
import qschur.qsym
from oracles import (
    predict_family_by_counts,
    predict_qs_components_by_slices,
    predict_skew_by_variants,
    schur_listed,
)
from qschur import (
    BudgetExceededError,
    Disagreement,
    SkewShape,
    VerificationReport,
    brute_family_fmf,
    conjugate,
    covers_up,
    disjoint_union,
    enumerate_compositions,
    enumerate_partitions,
    enumerate_skew_shapes,
    f_component_count,
    in_c2,
    in_c2_prime,
    is_fmf,
    predict_family,
    predict_qs_components,
    predict_schur,
    predict_skew,
    predict_two_part,
    qs_f,
    rearrangements,
    verify,
)
from qschur.classify import _row_below_left_of_column


def test_in_c2():
    assert in_c2((1, 2, 1))
    assert in_c2(())
    assert in_c2((1, 1, 1))
    assert in_c2((1, 2, 1, 2))
    assert not in_c2((2, 1))
    assert not in_c2((1, 2, 2))
    assert not in_c2((1, 3))


def test_in_c2_prime():
    assert in_c2_prime((1, 2))
    assert in_c2_prime((1, 1, 2, 1, 2))
    assert not in_c2_prime((1, 2, 1))
    assert not in_c2_prime((2,))
    assert not in_c2_prime(())
    # contained in the larger family
    assert all(in_c2(a) for a in [(1, 2), (1, 1, 2, 1, 2)])


def test_predict_schur_examples():
    assert predict_schur((4, 4))
    assert predict_schur((3, 3))
    assert predict_schur((1, 1, 1, 1, 1))
    assert predict_schur((6, 2))
    assert predict_schur((2, 2, 1, 1))  # conjugate of (4, 2)
    assert not predict_schur((3, 2, 1))
    assert not predict_schur((4, 3))


def test_predict_schur_and_family_match_their_oracles():
    for n in range(0, 21):
        for lam in enumerate_partitions(n):
            assert predict_schur(lam) == (
                schur_listed(lam) or schur_listed(conjugate(lam))
            ), lam
            assert predict_family(lam) == predict_family_by_counts(lam), lam


def test_predicates_reject_non_instances():
    for bad in ((1, 2), (0,), (2, 0), (3, -1, 1)):
        with pytest.raises(ValueError):
            predict_schur(bad)
        with pytest.raises(ValueError):
            predict_family(bad)
    for bad in ((1, 0, 2), (0,), (-1, 1), (2, 2, 0)):
        with pytest.raises(ValueError):
            predict_qs_components(bad)
    for bad in ((0, 3), (3, 0), (-1, 4)):
        with pytest.raises(ValueError):
            predict_two_part(bad)


def test_predict_skew_examples():
    assert predict_skew(disjoint_union(SkewShape((2,)), SkewShape((1,))))
    assert not predict_skew(SkewShape((3, 2, 2, 1), (1, 1)))
    assert predict_skew(SkewShape((3, 2)).rotate180())
    assert predict_skew(SkewShape((3, 3), (1,)))  # rotation of (3, 2)
    assert not predict_skew(disjoint_union(SkewShape((2,)), SkewShape((2,))))


def test_predict_skew_matches_variant_search():
    # 38,253 shapes; the oracle builds every transpose and rotation.
    for n in range(0, 11):
        for shape in enumerate_skew_shapes(n):
            assert predict_skew(shape) == predict_skew_by_variants(shape), shape


def test_row_below_left_of_column_matches_disjoint_unions():
    for n in range(0, 10):
        unions = {
            disjoint_union(SkewShape((n - k,)), SkewShape((1,) * k))
            for k in range(1, n)
        }
        for shape in enumerate_skew_shapes(n):
            assert _row_below_left_of_column(shape) == (shape in unions)


def test_predict_qs_components_examples():
    assert predict_qs_components((3, 1, 2, 1)) == "one"
    assert predict_qs_components((7,)) == "one"
    assert predict_qs_components(()) == "one"
    assert predict_qs_components((1, 3, 1, 2)) == "two"
    assert predict_qs_components((1, 3)) == "two"
    assert predict_qs_components((2, 2)) == "two"
    assert predict_qs_components((2, 3, 1)) == "two"
    assert predict_qs_components((3, 3)) == "more"
    assert predict_qs_components((1, 4)) == "more"
    assert predict_qs_components((2, 2, 2)) == "more"


def test_predict_qs_components_matches_slice_oracle():
    # 65,536 compositions; the oracle slices and re-tests every position.
    for n in range(0, 17):
        for alpha in enumerate_compositions(n):
            got = predict_qs_components(alpha)
            assert got == predict_qs_components_by_slices(alpha), alpha


def test_predict_two_part_examples():
    assert predict_two_part((4, 5))
    assert predict_two_part((1, 8))
    assert predict_two_part((2, 2))
    assert predict_two_part((4, 3))
    assert not predict_two_part((3, 6))
    assert not predict_two_part((5, 4))
    with pytest.raises(ValueError):
        predict_two_part((1, 1, 1))


def test_predict_family_examples():
    assert predict_family((3, 2, 2))
    assert predict_family((4, 3))
    assert predict_family((5, 1, 1))
    assert predict_family((2, 2, 2, 1))
    assert not predict_family((2, 2, 2, 2, 2))
    assert not predict_family((3, 3, 2))
    assert not predict_family((5, 3))


def test_brute_family_fmf():
    assert not brute_family_fmf((3, 3, 2))
    assert brute_family_fmf((6,))
    assert brute_family_fmf((2, 2, 1))


def test_theorem_refinement_one_and_two():
    # "one" means the expansion is exactly its own F-term; "two" keeps the
    # own term plus one other
    for n in range(0, 10):
        for alpha in enumerate_compositions(n):
            e = qs_f(alpha)
            cls = predict_qs_components(alpha)
            if cls == "one":
                assert dict(e.terms) == {alpha: 1}
            elif cls == "two":
                assert f_component_count(e) == 2
                assert e.coefficient(alpha) == 1
                assert is_fmf(e)
            else:
                assert f_component_count(e) >= 3


def test_verify_small_all_theorems():
    for theorem, max_n in [
        ("schur", 8),
        ("skew", 6),
        ("qs-components", 7),
        ("two-part", 10),
        ("families", 8),
    ]:
        report = verify(theorem, max_n)
        assert report.verified
        assert report.checked > 0
        assert report.disagreements == ()


def test_verify_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify("nope", 5)
    with pytest.raises(ValueError):
        verify("schur", 0)


def test_verify_budget_aborts_loudly():
    with pytest.raises(BudgetExceededError):
        verify("schur", 6, max_tableaux=1)


def test_verify_budget_holds_at_the_last_degree():
    # The truth checks the budget on every instance it reads off a clean
    # profile, at the last degree too, whether or not the instance passes:
    # 3,3,3/2,1 is (3,2,1) rotated, clean with 16 tableaux, and not
    # multiplicity-free.  It is the first instance over the budget in both
    # instance orders, and the only Schur one.
    message = "tableaux of shape 3,3,3/2,1 exceeded the tableau budget of 15"
    for theorem in ("schur", "skew"):
        with pytest.raises(BudgetExceededError, match=message):
            verify(theorem, 6, max_tableaux=15)
    assert verify("schur", 6, max_tableaux=16).verified


def test_verify_deterministic_across_runs():
    one = verify("schur", 7)
    again = verify("schur", 7)
    assert json.dumps(one.to_json_obj()) == json.dumps(again.to_json_obj())


def test_report_serialization():
    report = verify("two-part", 6)
    obj = report.to_json_obj()
    assert obj["theorem"] == "two-part"
    assert obj["max_n"] == 6
    assert obj["checked"] == 15
    assert obj["disagreements"] == []
    text = report.to_text()
    assert "disagreements: 0" in text
    assert "verdict: verified" in text


def test_report_types():
    report = verify("schur", 4)
    assert repr(report) == (
        "VerificationReport(theorem='schur', max_n=4, checked=11, disagreements=())"
    )
    assert report.verified
    assert report.to_json_obj() == {
        "theorem": "schur",
        "max_n": 4,
        "checked": 11,
        "disagreements": [],
    }
    assert report.to_text() == (
        "theorem: schur\nmax-n: 4\nchecked: 11\ndisagreements: 0\nverdict: verified"
    )

    found = Disagreement({"partition": [2, 2]}, False, True, ({"terms": []},))
    assert repr(found) == (
        "Disagreement(instance={'partition': [2, 2]}, predicted=False, "
        "truth=True, witnesses=({'terms': []},))"
    )
    assert found.to_json_obj() == {
        "instance": {"partition": [2, 2]},
        "predicted": False,
        "truth": True,
        "witnesses": [{"terms": []}],
    }
    refuted = VerificationReport("schur", 4, 11, (found,))
    assert not refuted.verified
    assert refuted.to_json_obj()["disagreements"] == [found.to_json_obj()]
    assert refuted.to_text() == (
        "theorem: schur\nmax-n: 4\nchecked: 11\ndisagreements: 1\n"
        "  {'partition': [2, 2]} predicted=False truth=True witnesses=1\n"
        "verdict: refuted"
    )

    for obj, field in [(report, "checked"), (found, "truth")]:
        with pytest.raises(AttributeError):
            setattr(obj, field, None)


def _flip(monkeypatch, name, wrong):
    """Make the predicate ``name`` answer ``wrong[x]`` on the listed inputs."""
    right = getattr(qschur.classify, name)
    monkeypatch.setattr(
        qschur.classify, name, lambda x: wrong[x] if x in wrong else right(x)
    )


def test_verify_reads_instances_through_module_names(monkeypatch):
    # The benchmark's tracer wraps the enumerators where this module binds
    # them, so verify must look them up there at call time.
    seen = []
    names = ("enumerate_partitions", "enumerate_skew_shapes", "enumerate_compositions")
    for name in names:
        right = getattr(qschur.classify, name)
        monkeypatch.setattr(
            qschur.classify,
            name,
            lambda n, right=right, name=name: seen.append((name, n)) or right(n),
        )
    for theorem in ("schur", "skew", "qs-components", "families"):
        verify(theorem, 2)
    assert seen == [(name, n) for name in names + names[:1] for n in (1, 2)]


def _doctored(source, by_mask):
    """The counts ``by_mask`` of ``source``, with the own-shape term of
    (1,3) dropped and that of (2,3) doubled, so that the structural checks
    fail."""
    if by_mask is None:
        return by_mask
    if source == (1, 3):
        return {m: c for m, c in by_mask.items() if m != 0b1}
    if source == (2, 3):
        return {m: c + (m == 0b10) for m, c in by_mask.items()}
    return by_mask


def _doctored_counts(real):
    """The counting engine, doctored."""

    def counts(source, max_tableaux):
        n, by_mask = real(source, max_tableaux)
        return n, _doctored(source, by_mask)

    return counts


def _doctored_closure_counts(real):
    """The counts read off a closure level, doctored, so that the narrow
    truth source is doctored too."""

    def closure_counts(*args):
        counts = real(*args)
        return lambda source: _doctored(source, counts(source))

    return closure_counts


def _report(theorem, max_n):
    return json.loads(json.dumps(verify(theorem, max_n).to_json_obj()))


def _disagreement(label, predicted, truth, witnesses=()):
    return {
        "instance": label,
        "predicted": predicted,
        "truth": truth,
        "witnesses": list(witnesses),
    }


def _witness(degree, descents, first, second):
    return {"degree": degree, "descents": descents, "first": first, "second": second}


def test_disagreement_reports(monkeypatch):
    _flip(monkeypatch, "predict_schur", {(3, 2, 1): True, (2, 2): False})
    _flip(
        monkeypatch,
        "predict_skew",
        {SkewShape((3, 2, 1), (2, 1)): True, SkewShape((2, 1)): False},
    )
    _flip(monkeypatch, "predict_two_part", {(3, 5): True, (2, 2): False})
    _flip(
        monkeypatch,
        "predict_qs_components",
        {(1, 3): "two", (2, 3): "two", (2, 2): "more", (1, 3, 3): "one"},
    )
    _flip(monkeypatch, "predict_family", {(3, 3, 1): True, (2, 2): False})

    schur = _report("schur", 6)
    assert schur["checked"] == 29
    assert schur["disagreements"] == [
        _disagreement({"partition": [2, 2]}, False, True),
        _disagreement(
            {"partition": [3, 2, 1]},
            True,
            False,
            [
                _witness(6, [1, 3, 5], [[1, 3, 5], [2, 4], [6]], [[1, 3, 5], [2, 6], [4]]),
                _witness(6, [2, 4], [[1, 2, 4], [3, 6], [5]], [[1, 2, 6], [3, 4], [5]]),
            ],
        ),
    ]

    skew = _report("skew", 3)
    assert skew["checked"] == 13
    assert skew["disagreements"] == [
        _disagreement({"outer": [2, 1], "inner": []}, False, True),
        _disagreement(
            {"outer": [3, 2, 1], "inner": [2, 1]},
            True,
            False,
            [
                _witness(
                    3,
                    [1],
                    [[None, None, 1], [None, 3], [2]],
                    [[None, None, 3], [None, 1], [2]],
                ),
                _witness(
                    3,
                    [2],
                    [[None, None, 2], [None, 1], [3]],
                    [[None, None, 2], [None, 3], [1]],
                ),
            ],
        ),
    ]

    two_part = _report("two-part", 8)
    assert two_part["checked"] == 28
    assert two_part["disagreements"] == [
        _disagreement({"composition": [2, 2]}, False, True),
        _disagreement(
            {"composition": [3, 5]},
            True,
            False,
            [_witness(8, [2, 5], [[5, 2, 1], [8, 7, 6, 4, 3]], [[5, 4, 2], [8, 7, 6, 3, 1]])],
        ),
    ]

    # A disagreement with no witness pair lists the terms instead; a wrong
    # set of terms is spelled out in the truth.
    counts = _doctored_counts(qschur.qsym._counts)
    closure_counts = _doctored_closure_counts(qschur.qsym._closure_counts)
    with monkeypatch.context() as m:
        # The narrow truth reads classify's _closure_counts, the
        # disagreement's report classify's _counts, and the witness search
        # qsym's.
        for module in (qschur.qsym, qschur.classify):
            m.setattr(module, "_counts", counts)
        m.setattr(qschur.classify, "_closure_counts", closure_counts)
        components = _report("qs-components", 7)
    assert components["checked"] == 127
    assert components["disagreements"] == [
        _disagreement(
            {"composition": [1, 3]}, "two", "one (terms: [(2, 2)])", [{"terms": [[2, 2]]}]
        ),
        _disagreement(
            {"composition": [2, 2]}, "more", "two", [{"terms": [[1, 2, 1], [2, 2]]}]
        ),
        _disagreement(
            {"composition": [2, 3]},
            "two",
            "two (terms: [(1, 2, 2), (2, 3)])",
            [{"terms": [[1, 2, 2], [2, 3]]}],
        ),
        _disagreement(
            {"composition": [1, 3, 3]},
            "one",
            "more",
            [_witness(7, [1, 3, 5], [[1], [5, 3, 2], [7, 6, 4]], [[3], [5, 4, 2], [7, 6, 1]])],
        ),
    ]

    families = _report("families", 7)
    assert families["checked"] == 44
    assert families["disagreements"] == [
        _disagreement({"partition": [2, 2]}, False, True),
        _disagreement(
            {"partition": [3, 3, 1]},
            True,
            False,
            [_witness(7, [1, 3, 5], [[1], [5, 3, 2], [7, 6, 4]], [[3], [5, 4, 2], [7, 6, 1]])],
        ),
    ]


def _size(state):
    """Cells of an engine state: a composition or skew-shape row intervals."""
    return sum(b - a for a, b in state) if state and isinstance(state[0], tuple) else sum(state)


def _watch_sweeps(monkeypatch, watch):
    """Hand the levels of each sweep reader that ``verify`` makes after
    this call to ``watch``, before each read."""
    sweep_counts = qschur.classify._sweep_counts

    def watched(levels, *args):
        read = sweep_counts(levels, *args)

        def counts(source):
            watch(levels, source.size if isinstance(source, SkewShape) else sum(source))
            return read(source)

        return counts

    monkeypatch.setattr(qschur.classify, "_sweep_counts", watched)


def _pruned_builds(monkeypatch):
    """The states the sweeps after this call store in their pruned levels,
    each appended to the returned list as it is stored; the public memo is
    cleared, and the sweeps must leave it empty."""
    qschur.qsym._KEPT.clear()
    built = []

    class Level(dict):
        def __setitem__(self, state, prof):
            assert state not in self, f"{state} built again"
            built.append(state)
            super().__setitem__(state, prof)

    def watch(levels, n):
        # A read of degree n stores only in levels 1 to n; a missing level
        # is read as an empty one, so a watched empty one changes nothing.
        for m in range(1, n + 1):
            levels.setdefault(m, Level())

    _watch_sweeps(monkeypatch, watch)
    return built


def _closure_builds(monkeypatch):
    """The states that the closure steps after this call profile, each
    appended to the returned list as its moves are taken; the public memo
    is cleared."""
    qschur.qsym._KEPT.clear()
    built = []
    step = qschur.classify._closure_step

    def watched(level, parents, moves, build):
        def watched_moves(state):
            built.append(state)
            return moves(state)

        return step(level, parents, watched_moves, build)

    monkeypatch.setattr(qschur.classify, "_closure_step", watched)
    return built


@pytest.mark.parametrize(
    "theorem, max_n", [("skew", 8), ("qs-components", 11), ("two-part", 18)]
)
def test_closure_sweeps_build_each_state_once(monkeypatch, theorem, max_n):
    # Each degree's closure level is built from the one below, in the call's
    # own locals: no state is built twice, every degree builds its level,
    # and the shared memo is not touched.
    built = _closure_builds(monkeypatch)
    assert verify(theorem, max_n).verified
    assert qschur.qsym._KEPT == {}
    assert len(built) == len(set(built))
    assert {_size(s) for s in built} == set(range(1, max_n + 1))


def test_verify_schur_builds_each_partition_once(monkeypatch):
    built = _closure_builds(monkeypatch)
    assert verify("schur", 13).verified
    assert qschur.qsym._KEPT == {}
    # Only rotated partitions are built, each once, up to the last degree.
    assert len(built) == len(set(built))
    rotated = {
        SkewShape(lam).rotate180().row_intervals()
        for n in range(1, 14)
        for lam in enumerate_partitions(n)
    }
    assert set(built) <= rotated
    assert {_size(s) for s in built} == set(range(1, 14))


def test_verify_schur_builds_no_validated_shapes(monkeypatch):
    # The Schur check reads the rotated partition off lam; the validated
    # shape of lam is built for a disagreement's witnesses only.
    built = []
    init = SkewShape.__init__

    def watched(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(SkewShape, "__init__", watched)
    assert verify("schur", 13).verified
    assert built == []
    _flip(monkeypatch, "predict_schur", {(3, 2, 1): True})
    assert not verify("schur", 6).verified
    assert built == [((3, 2, 1),)]


@pytest.mark.parametrize(
    "theorem, max_n, states_below",
    [
        # The rotated partitions of size at most 12, with schur taken out
        # of the closures, so that it sweeps the clean levels.
        ("schur", 13, 271),
        # The one- and two-part compositions of size at most 17, with
        # two-part taken out of the closures likewise.
        ("two-part", 18, 153),
        # Fewer than the compositions of size at most 10: a family stops at
        # its first rearrangement that is not multiplicity-free.
        ("families", 11, 838),
    ],
)
def test_verify_profiles_no_final_degree_root(monkeypatch, theorem, max_n, states_below):
    # A root below the last degree is stored for the degree above; a root of
    # the last degree is read off the level below and not stored.
    built = _pruned_builds(monkeypatch)
    monkeypatch.delitem(qschur.classify._CLOSURES, theorem, raising=False)
    assert verify(theorem, max_n).verified
    assert qschur.qsym._KEPT == {}
    assert 0 < len(built) <= states_below
    assert max(map(_size, built)) == max_n - 1
    # Each state is built once.  A family stops at its first rearrangement
    # that is not multiplicity-free, so the walk may need a state that has
    # left the sweep's levels and build it again: 12 states here.
    assert len(built) - len(set(built)) == (12 if theorem == "families" else 0)


def test_verify_keeps_no_final_degree_roots(monkeypatch):
    # Two-part taken out of the closures, so that it sweeps the clean levels.
    monkeypatch.delitem(qschur.classify._CLOSURES, "two-part")
    handed = []
    _watch_sweeps(monkeypatch, lambda levels, n: handed.append(levels))
    assert verify("two-part", 18).checked == 153
    # One sweep, with levels of its own.  Level 17 holds every instance of
    # degree 17, each stored as the root it was, and the one-part child of
    # (1, 17), built top-down; level 18 is read by no later degree, so none
    # is stored.  At each degree n the sweep drops the levels below n - 2.
    levels = handed[0]
    assert all(h is levels for h in handed)
    assert set(levels) == {16, 17}
    assert set(levels[17]) == {(a, 17 - a) for a in range(1, 17)} | {(17,)}


@pytest.mark.parametrize(
    "theorem, max_n, checked",
    [
        ("schur", 8, 66),
        ("skew", 5, 128),
        ("qs-components", 7, 127),
        ("two-part", 12, 66),
        ("families", 8, 66),
    ],
)
def test_verify_touches_no_module_memo(theorem, max_n, checked):
    # Every sweep builds and holds its levels in its own locals: a verified
    # theorem leaves the kept levels as it found them, and so does the
    # family truth, which builds levels of its own per call.
    q = qschur.qsym
    q._KEPT.clear()
    q.schur_f((3, 2, 1))
    q.qs_f((2, 1, 3))
    q.skew_schur_f(SkewShape((3, 2), (1,)))
    kept = {m: dict(level) for m, level in q._KEPT.items()}
    assert verify(theorem, max_n) == VerificationReport(theorem, max_n, checked, ())
    assert q._KEPT == kept
    assert brute_family_fmf((3, 2, 2))
    assert q._KEPT == kept


def test_pruned_truth_matches_counts_at_acceptance_bounds():
    # Every instance of each theorem up to its acceptance bound, read off
    # the pruned levels of a sweep, off the closure levels and off the
    # counting engine.
    q = qschur.qsym
    counts, clean, narrow = q._counts, q._clean_profile_of, q._narrow_profile_of
    clean_root, narrow_root = q._clean_root, q._narrow_root

    def free(source):
        return all(c == 1 for c in counts(source, None)[1].values())

    def closure(parents, moves, build, max_n):
        level = q._EMPTY_LEVEL
        for _ in range(max_n):
            level = q._closure_step(level, parents, moves, build)
            yield level

    def sweep(max_n):
        # A sweep that stores each root below max_n for the degree above.
        return q._sweep_counts({}, max_n, None)

    pruned = sweep(12)
    rotated_levels = closure(q._rotated_parents, q._skew_moves, clean, 12)
    for n, level in zip(range(1, 13), rotated_levels):
        for lam in enumerate_partitions(n):
            rotated = SkewShape(lam).rotate180()
            assert (pruned(rotated) is not None) == free(rotated)
            kept = q._closure_counts(level, clean_root, None)(rotated)
            assert (kept is not None) == free(rotated)
    pruned = sweep(9)
    skew_levels = closure(q._skew_parents, q._skew_moves, clean, 9)
    for n, level in zip(range(1, 10), skew_levels):
        for shape in enumerate_skew_shapes(n):
            assert (pruned(shape) is not None) == free(shape)
            kept = q._closure_counts(level, clean_root, None)(shape)
            assert (kept is not None) == free(shape)
    pruned = sweep(14)
    two_part_levels = closure(q._two_part_parents, q._qs_moves, clean, 14)
    for n, level in zip(range(1, 15), two_part_levels):
        for alpha in ((a, n - a) for a in range(1, n)):
            assert (pruned(alpha) is not None) == free(alpha)
            kept = q._closure_counts(level, clean_root, None)(alpha)
            assert (kept is not None) == free(alpha)
    narrow_levels = closure(covers_up, q._qs_moves, narrow, 9)
    for n, level in zip(range(1, 10), narrow_levels):
        for alpha in enumerate_compositions(n):
            _, by_mask = counts(alpha, None)
            pruned = q._closure_counts(level, narrow_root, None)(alpha)
            assert pruned == (by_mask if len(by_mask) <= 2 else None)
    for n in range(1, 11):
        for lam in enumerate_partitions(n):
            expected = all(free(alpha) for alpha in rearrangements(lam))
            assert brute_family_fmf(lam) == expected


def test_family_stops_at_its_first_failing_rearrangement():
    # A recording reader that fails one chosen rearrangement of (3, 2, 1, 1)
    # (12 of them) is asked about exactly those up to and including it, in
    # the order of rearrangements; one that fails none is asked about all.
    # Then the sweep's own reader, on every partition of n <= 9 (about
    # 0.01 s), is asked up to the first rearrangement it fails.
    lam = (3, 2, 1, 1)
    every = rearrangements(lam)
    for stop in [*every, None]:
        asked = []

        def kept(alpha):
            asked.append(alpha)
            return None if alpha == stop else set()

        assert qschur.classify._family_kept(lam, kept) == (stop is None)
        assert asked == (every[: every.index(stop) + 1] if stop else every)
    read = qschur.qsym._sweep_counts({}, 0, None)
    for n in range(1, 10):
        for lam in enumerate_partitions(n):
            asked, found = [], []

            def kept(alpha):
                asked.append(alpha)
                found.append(read(alpha))
                return found[-1]

            truth = qschur.classify._family_kept(lam, kept)
            every = rearrangements(lam)
            assert truth == (None not in found)
            assert asked == (every if truth else every[: len(asked)])
            assert None not in found[:-1]


# The sha256 of each benchmark sweep's report as ``verify --format json``
# prints it, taken at commit 65ff898: a change that makes these sweeps
# faster must not change what they print.  The four from families 13 on,
# taken at commit c1b0cdc, and families 14, taken at commit bab657c, reach
# past the benchmark's sizes, where the truth's levels hold more states.
SWEEP_DIGESTS = {
    ("skew", 8): "8cfda0fd4e2f8fb4b9b0579e3883aa2e0a043149d533939c3fbd65a3315c9bc5",
    ("schur", 13): "7126c6710df7a8636579dd78d235c1acd6d95979f4890ead7821c72de6a43191",
    ("two-part", 18): "e16db7bd19ad7c7f0d77b61572266d37525444c4029c01ff55abc04e7bdd8625",
    ("qs-components", 11): (
        "487c25c0c81fd6488e6dd8affcaf05d8dfd2c7009ca500a66093186f2588ae07"
    ),
    ("families", 11): "23666f010758c61e5e73449fc1050f86942a308cca24f02cee8e082e8c1f15e2",
    ("families", 13): "38d0c6a3fc9de491bbe761558ab9408ac1cb27e43d8fc308b03bf2886f31d51a",
    ("schur", 16): "8fc3cf52e1aea5a2536176b3ab0ca555151e98295af03d503e22f84d0b05c175",
    ("two-part", 24): "5439e468d801bfb91c715b12b99f81f81f6484432a0ba1b2afadfa28f7bc0854",
    ("skew", 9): "64e5c60105f4e576f7caa8f711f0c55d24cccc6e46556ad1e7464dd77d8f414f",
    ("families", 14): "db99aba268f1e9788b87247b741faac0d3be44a0e8e34ceae49b7326d409cb2c",
}


@pytest.mark.parametrize(("theorem", "max_n"), list(SWEEP_DIGESTS))
def test_benchmark_sweeps_print_what_they_printed(theorem, max_n):
    text = json.dumps(verify(theorem, max_n).to_json_obj(), indent=2)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == SWEEP_DIGESTS[theorem, max_n]


def test_two_part_30_fits_the_default_budget():
    # (10,20) has 10,015,005 tableaux, past the default tableau budget, but
    # both of its children are dirty markers, which store no mask.
    report = verify("two-part", 30)
    assert report.verified and report.checked == 435
