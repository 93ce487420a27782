import itertools
import json
import random
import sys
import threading
import time
from collections import Counter

import pytest

import qschur.qsym
from click.testing import CliRunner
from oracles import (
    compositions_with_parts_12,
    descent_tally,
    f_to_m_by_refinements,
    hook_length_count,
    multiplicity_witnesses_by_enumeration,
    qs_f_fast_12,
    qs_f_frontier,
    sct_by_recursion,
    skew_schur_f_pointer,
    syt_by_recursion,
)
from qschur import (
    BudgetExceededError,
    CompositionTableau,
    DescentSet,
    Expansion,
    SkewShape,
    SkewTableau,
    brute_family_fmf,
    com_c,
    com_p,
    conjugate,
    covers_up,
    des_c,
    des_p,
    disjoint_union,
    enumerate_compositions,
    enumerate_partitions,
    enumerate_sct,
    enumerate_skew_shapes,
    enumerate_syt,
    f_component_count,
    f_to_m,
    in_c2,
    is_fmf,
    multiplicity_witnesses,
    omega_f,
    qs_f,
    schur_f,
    schur_via_qs,
    skew_schur_f,
    verify,
)
from qschur.cli import main


def F(n, terms):
    return Expansion("F", n, terms)


def test_qs_f_worked_examples():
    assert qs_f((1, 3)) == F(4, {(1, 3): 1, (2, 2): 1})
    assert qs_f((4, 1)) == F(5, {(4, 1): 1})
    assert qs_f((2, 3)) == F(5, {(2, 3): 1, (1, 2, 2): 1})
    assert qs_f(()) == F(0, {(): 1})
    with pytest.raises(ValueError, match=r"not a composition: \(1, 0, 2\)"):
        qs_f((1, 0, 2))


def test_skew_schur_f_anchors():
    assert schur_f((3, 2, 1)).coefficient((2, 2, 2)) == 2
    assert schur_f((4, 3)).coefficient((2, 3, 2)) == 2
    assert skew_schur_f(SkewShape((6,))) == F(6, {(6,): 1})
    assert skew_schur_f(SkewShape()) == F(0, {(): 1})


def test_schur_f_small():
    assert schur_f((2, 2)) == F(4, {(2, 2): 1, (1, 2, 1): 1})
    assert schur_f((2, 1)) == F(3, {(2, 1): 1, (1, 2): 1})
    assert schur_f(()) == F(0, {(): 1})


def test_schur_f_matches_tableau_tally():
    for n in range(0, 8):
        for shape in enumerate_skew_shapes(n):
            tally = Counter(com_p(t) for t in enumerate_syt(shape))
            assert skew_schur_f(shape) == F(n, tally)
    for n in range(0, 11):
        for lam in enumerate_partitions(n):
            tally = Counter(com_p(t) for t in enumerate_syt(SkewShape(lam)))
            assert schur_f(lam) == F(n, tally)


def test_shared_engine_matches_per_shape_memo():
    for shape in enumerate_skew_shapes(8):
        assert skew_schur_f(shape) == skew_schur_f_pointer(shape)
    for n in range(0, 14):
        for lam in enumerate_partitions(n):
            assert schur_f(lam, 10**7) == skew_schur_f_pointer(SkewShape(lam))


def test_shared_memo_is_order_independent():
    # Every skew shape and composition of at most 7 cells, and seeded
    # samples past each kind's cap: skew shapes of 10 cells, partitions of
    # 11 and 12 and compositions of 12 (about 1 s in all).  Every order
    # gives the same answers and keeps no state past the cap of its kind.
    # Skew shapes and compositions alternate in the last order, so both
    # kinds share every kept level.
    q = qschur.qsym
    rng = random.Random(7)
    shapes = [s for n in range(0, 8) for s in enumerate_skew_shapes(n)]
    shapes += itertools.islice(enumerate_skew_shapes(10), 0, None, 1000)
    shapes += [SkewShape(lam) for n in (11, 12) for lam in enumerate_partitions(n)][::7]
    comps = [a for n in range(0, 8) for a in enumerate_compositions(n)]
    comps += rng.sample(list(enumerate_compositions(12)), 20)
    calls = [(skew_schur_f, s) for s in shapes] + [(qs_f, a) for a in comps]
    ascending = list(range(len(calls)))
    shuffled = rng.sample(ascending, len(ascending))
    pairs = itertools.zip_longest(range(len(shapes)), range(len(shapes), len(calls)))
    interleaved = [k for pair in pairs for k in pair if k is not None]
    results = []
    for order in (ascending, ascending[::-1], shuffled, interleaved):
        _clear_memos()
        results.append({k: calls[k][0](calls[k][1]) for k in order})
        _assert_kept_under_the_caps()
    assert results[0] == results[1] == results[2] == results[3]
    for k in range(len(shapes), len(calls)):
        assert results[0][k] == qs_f_frontier(calls[k][1])
    for k in range(len(shapes)):
        if shapes[k].size >= 10:
            assert results[0][k] == skew_schur_f_pointer(shapes[k])


def test_straight_counts_cross_the_kept_cap():
    # Every partition of n <= 13, so roots of 12 and 13 cells build the
    # levels above the cap for themselves.  Listing the tableaux of the
    # partitions of 13 would take about 6 s, so those are checked by their
    # totals, and every order and pass must give the same counts.
    q = qschur.qsym
    lams = [lam for n in range(0, 14) for lam in enumerate_partitions(n)]
    expected = {
        lam: descent_tally(SkewShape(lam)) if sum(lam) < 13 else None for lam in lams
    }
    shuffled = random.Random(11).sample(lams, len(lams))
    seen = {}
    for order in (lams, lams[::-1], shuffled):
        _clear_memos()
        for _ in range(2):  # cold, then warm
            for lam in order:
                n, by_mask = q._counts(SkewShape(lam), None)
                assert n == sum(lam)
                tally = (sum(by_mask.values()), len(by_mask))
                if expected[lam] is None:
                    assert tally[0] == hook_length_count(lam)
                else:
                    assert tally == expected[lam]
                assert seen.setdefault(lam, by_mask) == by_mask
    assert max(q._KEPT) == q._KEPT_CELLS


def test_repeated_straight_call_builds_no_profile(monkeypatch):
    # Up to 11 cells every level below the root is kept, so a second call
    # on a partition finds every child of its rotation.
    built = []
    profile_of = qschur.qsym._profile_of
    monkeypatch.setattr(
        qschur.qsym, "_profile_of", lambda *a: built.append(1) or profile_of(*a)
    )
    _clear_memos()
    for n in range(0, 12):
        for lam in enumerate_partitions(n):
            first = schur_f(lam)
            built.clear()
            assert schur_f(lam) == first
            assert built == []


def test_kept_levels_stop_at_the_cap():
    # After every partition of n <= 14, the kept levels hold every rotated
    # partition of at most 10 cells, 10,089 masks between them, and none
    # of more cells.
    q = qschur.qsym
    _clear_memos()
    for n in range(0, 15):
        for lam in enumerate_partitions(n):
            q._counts(SkewShape(lam), None)
    assert sorted(q._KEPT) == list(range(1, q._KEPT_CELLS + 1))
    for m, level in q._KEPT.items():
        assert len(level) == sum(1 for _ in enumerate_partitions(m))
        assert all(_is_rotated_partition(s, m) for s in level)
    masks = sum(
        len(ms) for level in q._KEPT.values() for p in level.values() for _, ms, _ in p
    )
    assert masks == 10_089


def test_kept_levels_survive_concurrent_calls():
    # Three threads on two cores fill cold kept levels at once, each in its
    # own order, with a tiny switch interval: two calls may build the same
    # state, but each stores the same profile, and none is ever removed.
    # The roots mix every partition of at most 11 cells with skew shapes of
    # at most 5 and 9 cells and compositions of at most 8 and 11 cells, so
    # every kind of state shares the levels, some past its cap (about 0.5 s).
    rng = random.Random(5)
    sources = [SkewShape(lam) for n in range(0, 12) for lam in enumerate_partitions(n)]
    sources += [s for n in range(0, 6) for s in enumerate_skew_shapes(n)]
    sources += rng.sample(list(enumerate_skew_shapes(9)), 30)
    sources += [a for n in range(0, 9) for a in enumerate_compositions(n)]
    sources += rng.sample(list(enumerate_compositions(11)), 30)
    engines = {SkewShape: skew_schur_f, tuple: qs_f}
    expected = {s: engines[type(s)](s) for s in sources}
    errors = []

    def worker(seed):
        try:
            for s in random.Random(seed).sample(sources, len(sources)):
                if engines[type(s)](s) != expected[s]:
                    errors.append(f"wrong expansion of {s}")
        except Exception as exc:
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seeds in ((1, 2, 3), (4, 5, 6), (7, 8, 9)):
            _clear_memos()
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            _assert_kept_under_the_caps()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


def test_straight_budget_names_the_partition():
    # Below the cap and across it: the root is read as its rotation, but
    # the error names the partition, cold and warm alike.
    for lam, what in [
        ((3, 3), "3,3"),
        ((4, 3, 1), "4,3,1"),
        ((5, 4, 2), "5,4,2"),
        ((4, 4, 4), "4,4,4"),
    ]:
        total = hook_length_count(lam)
        message = f"tableaux of shape {what} exceeded the tableau budget of {total - 1}"
        _clear_memos()
        for _ in range(2):
            with pytest.raises(BudgetExceededError) as caught:
                schur_f(lam, total - 1)
            assert str(caught.value) == message
            assert sum(schur_f(lam, total).terms.values()) == total


def test_rotated_partitions_are_read_off_the_kept_levels():
    # Every partition of 1 <= n <= 12 (271 of them, about 0.4 s), rotated by
    # 180 degrees: its rows end in one column, so it is read off the kept
    # levels as its straight shape is, up to the cap of 10 cells, with the
    # same expansion, and the composition states kept before stay.  A
    # budget one tableau short names the rotated shape as given; for a row
    # or a column, with one tableau, that is 0, which is no budget.
    q = qschur.qsym
    _clear_memos()
    qs_f((2, 1, 3))
    before = {m: dict(level) for m, level in q._KEPT.items()}
    assert before
    for n in range(1, 13):
        for lam in enumerate_partitions(n):
            rotated = SkewShape(lam).rotate180()
            assert skew_schur_f(rotated) == schur_f(lam)
            total = hook_length_count(lam)
            budget = total - 1
            if not budget:
                with pytest.raises(ValueError, match="a budget must be None or an int"):
                    skew_schur_f(rotated, budget)
                continue
            message = f"tableaux of shape {rotated} exceeded the tableau budget of {budget}"
            with pytest.raises(BudgetExceededError) as caught:
                skew_schur_f(rotated, budget)
            assert str(caught.value) == message
    assert sorted(q._KEPT) == list(range(1, q._KEPT_CELLS + 1))
    for m, level in q._KEPT.items():
        assert before.get(m, {}).items() <= level.items()
        assert all(s in before.get(m, ()) or _is_rotated_partition(s, m) for s in level)


def test_sweep_roots_stay_out_of_the_shared_memo():
    # Two families sweeps run beside the public calls, each on levels of
    # its own: the public calls keep their answers, and the kept levels
    # hold no composition.
    _clear_memos()
    shapes = list(enumerate_skew_shapes(5))
    expected = {s: skew_schur_f(s) for s in shapes}
    errors = []
    done = threading.Event()

    def sweeps():
        try:
            while not done.is_set():
                if not verify("families", 6).verified:
                    errors.append("a sweep refuted its theorem")
        except Exception as exc:
            errors.append(repr(exc))

    def calls():
        try:
            for _ in range(100):
                for shape in shapes:
                    if skew_schur_f(shape) != expected[shape]:
                        errors.append(f"wrong expansion of {shape}")
        except Exception as exc:
            errors.append(repr(exc))
        finally:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=f) for f in (sweeps, sweeps, calls)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(_is_skew(s) for level in qschur.qsym._KEPT.values() for s in level)


def test_sweep_degrees_stay_in_their_own_threads():
    # Each sweep builds and holds its levels, and knows its last degree, in
    # its own call: sweeps of other theorems and bounds beside public calls
    # keep their serial reports, and so do the public calls.
    jobs = [("skew", 6), ("schur", 9), ("qs-components", 8), ("families", 9)]
    jobs.append(("two-part", 12))
    serial = {job: verify(*job) for job in jobs}
    families = [lam for lam in enumerate_partitions(10) if len(lam) >= 3]
    shapes = list(enumerate_skew_shapes(5))
    expected = {lam: brute_family_fmf(lam) for lam in families}
    expected.update((s, skew_schur_f(s)) for s in shapes)
    errors = []
    done = threading.Event()

    def sweeps(job):
        try:
            while not done.is_set():
                if verify(*job) != serial[job]:
                    errors.append(f"{job} changed its report")
        except Exception as exc:
            errors.append(repr(exc))

    def calls():
        try:
            for _ in range(3):
                for lam in families:
                    if brute_family_fmf(lam) != expected[lam]:
                        errors.append(f"wrong family truth for {lam}")
                for shape in shapes:
                    if skew_schur_f(shape) != expected[shape]:
                        errors.append(f"wrong expansion of {shape}")
        except Exception as exc:
            errors.append(repr(exc))
        finally:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=sweeps, args=(job,)) for job in jobs]
        threads.append(threading.Thread(target=calls))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def _tally_sources():
    """Skew shapes of size <= 7, rotated partitions of size <= 10 and
    compositions of size <= 9."""
    sources = [s for n in range(0, 8) for s in enumerate_skew_shapes(n)]
    sources += [
        SkewShape(lam).rotate180() for n in range(0, 11) for lam in enumerate_partitions(n)
    ]
    return sources + [a for n in range(0, 10) for a in enumerate_compositions(n)]


def _clear_memos():
    qschur.qsym._KEPT.clear()


def _is_skew(state):
    """Whether a nonempty ``state`` is a skew shape's, not a composition."""
    return isinstance(state[0], tuple)


def _assert_kept_under_the_caps():
    """No kept state has more cells than the cap of its kind, and some kept
    states reach each cap: a rotated partition or a composition keeps up to
    10 cells, any other skew shape up to 8, as the docs state."""
    top = {}
    for m, level in qschur.qsym._KEPT.items():
        for s in level:
            skew = _is_skew(s) and not _is_rotated_partition(s, m)
            top[skew] = max(top.get(skew, 0), m)
    assert top == {True: 8, False: 10}


def _is_rotated_partition(state, m):
    """Whether ``state`` is a partition of ``m`` rotated by 180 degrees, in
    basic form: its rows end in one column and the last starts in column 1."""
    return (
        _size(state) == m
        and state[-1][0] == 0
        and all(b == state[0][1] for _, b in state)
        and all(x >= y for (x, _), (y, _) in zip(state, state[1:]))
    )


def _check(source, *options):
    """Exit code and output of ``qschur check --format json`` on a nonempty
    skew shape or composition."""
    if isinstance(source, SkewShape):
        index = ["skew", "--outer", ",".join(map(str, source.outer))]
        if source.inner:
            index += ["--inner", ",".join(map(str, source.inner))]
    else:
        index = ["qs", "--composition", ",".join(map(str, source))]
    args = ["check", "--kind", *index, "--format", "json", *options]
    result = CliRunner().invoke(main, args)
    return result.exit_code, result.output


def test_tally_matches_counts_and_enumeration():
    q = qschur.qsym
    for source in _tally_sources():
        expected = descent_tally(source)
        tableaux, masks = expected
        # Cold, the children of the root are built; warm, they are found,
        # in the shared memo or in the levels of a sweep.  The pruned truth
        # is None where the source is not multiplicity-free, and its masks,
        # one tableau each, otherwise.
        _clear_memos()
        pruned = q._sweep_counts({}, 0, None)
        for _ in range(2):
            n, by_mask = q._counts(source, None)
            assert (sum(by_mask.values()), len(by_mask)) == expected
            found = pruned(source)
            assert (found is not None) == (tableaux == masks)
            if found is not None:
                assert found == set(by_mask) and len(found) == tableaux
        # ``check`` reads the counts: one component per descent set.
        if n:
            code, output = _check(source)
            assert json.loads(output) == {"fmf": tableaux == masks, "components": masks}
            assert code == (0 if tableaux == masks else 1)


def test_tally_budget_matches_counts():
    counts = qschur.qsym._counts
    for source, what in [
        ((2, 2, 4), "composition tableaux of shape (2, 2, 4)"),
        (SkewShape((3, 2, 1)), "tableaux of shape 3,2,1"),
        (SkewShape((4, 3, 1), (2,)), "tableaux of shape 4,3,1/2"),
    ]:
        total, _ = descent_tally(source)
        message = f"{what} exceeded the tableau budget of {total - 1}"
        # The root is never built, yet meets the budget, whether its
        # children are built (cold) or found (warm).
        _clear_memos()
        for _ in range(2):
            with pytest.raises(BudgetExceededError) as caught:
                counts(source, total - 1)
            assert str(caught.value) == message
            counts(source, total)
        _clear_memos()
        for _ in range(2):
            code, output = _check(source, "--budget", str(total - 1))
            assert code == 3 and message in output
            code, _ = _check(source, "--budget", str(total))
            assert code in (0, 1)


def test_pruned_budget_caps_stored_tableaux():
    q = qschur.qsym

    def counts(source, budget, levels):
        return q._sweep_counts(levels, 0, budget)(source)

    # Multiplicity-free roots, so the clean levels keep every state below
    # them with its profile, and the root meets the budget.
    for source, what in [
        ((1, 2, 1, 2), "composition tableaux of shape (1, 2, 1, 2)"),
        (SkewShape((5, 1, 1)), "tableaux of shape 5,1,1"),
        (SkewShape((4, 4), (3,)), "tableaux of shape 4,4/3"),
    ]:
        tableaux, masks = descent_tally(source)
        assert tableaux == masks
        message = f"{what} exceeded the tableau budget of {masks - 1}"
        # Cold, the levels are built; warm, they are found.
        levels = {}
        for _ in range(2):
            with pytest.raises(BudgetExceededError) as caught:
                counts(source, masks - 1, levels)
            assert str(caught.value) == message
            assert len(counts(source, masks, levels)) == masks
    # A dirty root and its marked children meet no budget, so one far
    # below its tableaux holds: (10,20) has 10,015,005 tableaux.
    assert counts((10, 20), 1000, {}) is None


def _clean_entries(prof):
    """The entries a clean level stores for a full profile, (key, masks),
    or None, a marker, where a count is not 1."""
    if any(c != 1 for _, _, counts in prof for c in counts):
        return None
    return tuple((key, masks) for key, masks, _ in prof)


def _narrow_entries(prof):
    """A full profile, as a narrow level stores it, or None, a marker, where
    its entries hold more than two distinct masks."""
    return prof if len(set().union(*[ms for _, ms, _ in prof])) <= 2 else None


# By the name of a level's kind: what it stores for a full profile, its
# builder and its reader of a root.
KINDS = {
    "_clean": (_clean_entries, "_clean_profile_of", "_clean_root"),
    "_narrow": (_narrow_entries, "_narrow_profile_of", "_narrow_root"),
}


@pytest.mark.parametrize(
    "keep, sources_of, moves, max_n",
    [
        ("_clean", enumerate_compositions, "_qs_moves", 11),
        ("_clean", enumerate_skew_shapes, "_skew_moves", 8),
    ],
)
def test_markers_propagate_to_every_parent(keep, sources_of, moves, max_n):
    # A parent's entry for a child holds every mask of the child, shifted
    # by one bit and kept apart by bit 0, with counts at least the child's:
    # so a dirty child (a mask with two fillings in one entry) makes a
    # dirty parent, and a wide child (three masks) a wide parent.  The
    # pruned levels hold a marker exactly where the full profile is dirty,
    # and elsewhere its keys and masks, whose counts are all 1.  The sweep
    # stores each root below max_n, as a ``verify`` sweep does.
    q = qschur.qsym
    stored, moves = KINDS[keep][0], getattr(q, moves)
    _clear_memos()
    pruned: dict = {}
    read = q._sweep_counts(pruned, max_n, None)
    kept = failed = compared = 0
    for n in range(1, max_n + 1):
        for source in sources_of(n):
            q._counts(source, None)
            read(source)
        if n < 3:
            continue
        full = q._KEPT
        for parent, prof in full[n - 1].items():
            # A root is read up to its first marker child, so a pruned level
            # may lack a child that no root read.
            if parent in pruned[n - 1]:
                assert pruned[n - 1][parent] == stored(prof)
                compared += 1
            kept += stored(prof) is not None
            for _, child, _ in moves(parent):
                if stored(full[n - 2][child]) is None:
                    assert stored(prof) is None
                    failed += 1
    assert kept and failed and compared


def _size(state):
    return sum(b - a for a, b in state) if state and isinstance(state[0], tuple) else sum(state)


def _cells(ivs):
    return {(i, j) for i, (a, b) in enumerate(ivs) for j in range(a + 1, b + 1)}


def test_skew_parents_invert_skew_moves():
    q = qschur.qsym
    shapes = {n: [s.row_intervals() for s in enumerate_skew_shapes(n)] for n in range(10)}
    for n in range(1, 10):
        for parent in shapes[n]:
            for _, child, _ in q._skew_moves(parent):
                assert parent in set(q._skew_parents(child)), (parent, child)
    for n in range(9):
        for child in shapes[n]:
            for parent in q._skew_parents(child):
                # A basic-form skew shape one cell larger, with a move to child.
                assert SkewShape.from_cells(_cells(parent)).row_intervals() == parent
                assert _size(parent) == n + 1
                assert child in [c for _, c, _ in q._skew_moves(parent)]
    # A one-cell row inserted between two rows, in a new column.
    assert ((2, 3), (1, 2), (0, 1)) in set(q._skew_parents(((1, 2), (0, 1))))


def _rotated_partitions(n):
    return (SkewShape(lam).rotate180() for lam in enumerate_partitions(n))


def _two_part_compositions(n):
    """The compositions of n with at most two parts."""
    return [(n,)] + [(a, n - a) for a in range(1, n)]


@pytest.mark.parametrize(
    "parents, moves, keep, states_of, full_to",
    [
        (qschur.qsym._skew_parents, "_skew_moves", "_clean", enumerate_skew_shapes, 9),
        (qschur.qsym._rotated_parents, "_skew_moves", "_clean", _rotated_partitions, 10),
        (covers_up, "_qs_moves", "_narrow", enumerate_compositions, 10),
        (qschur.qsym._two_part_parents, "_qs_moves", "_clean", _two_part_compositions, 10),
    ],
)
def test_closure_levels_match_the_full_engine(parents, moves, keep, states_of, full_to):
    # Level n of a closure holds exactly the states of size n whose full
    # profile passes the level's test, with what it stores of that profile:
    # for a clean level, the keys and masks, whose counts are all 1.  A
    # child that fails the test makes a parent that fails it, so a missing
    # child is a marker.  Past ``full_to``, only states whose children all
    # pass are profiled: the 26,025 full profiles of skew shapes of size 10
    # take over 1 GB.
    q = qschur.qsym
    stored, build, read = KINDS[keep]
    moves, build, read = getattr(q, moves), getattr(q, build), getattr(q, read)

    def passes(prof):
        return stored(prof) is not None

    level = below = q._EMPTY_LEVEL
    sizes = []
    for n in range(1, 11):
        level = q._closure_step(level, parents, moves, build)
        states = [s.row_intervals() if isinstance(s, SkewShape) else s for s in states_of(n)]
        full = {
            s: q._profile_of(moves(s), below)
            for s in states
            if n <= full_to or all(passes(below[child]) for _, child, _ in moves(s))
        }
        assert level == {s: stored(prof) for s, prof in full.items() if passes(prof)}
        for s, prof in full.items():
            if any(not passes(below[child]) for _, child, _ in moves(s)):
                assert not passes(prof)
        below = full
        if parents is q._two_part_parents:
            # The closure never leaves the compositions of at most two parts.
            assert all(len(p) <= 2 for s in states for p in parents(s))
        # The states the reader passes too: for a clean level, the
        # multiplicity-free ones.
        passing = list(filter(q._closure_counts(level, read, None), level))
        sizes.append((len(level), len(passing)))
    if parents is q._skew_parents:
        clean = [1, 3, 9, 19, 24, 31, 34, 38, 40, 44]
        assert sizes == list(zip(clean, [1, 3, 8, 13, 20, 26, 28, 34, 36, 40]))


@pytest.mark.parametrize(
    "moves, states_of, max_n",
    [
        ("_qs_moves", enumerate_compositions, 10),
        ("_skew_moves", enumerate_skew_shapes, 8),
        ("_skew_moves", _rotated_partitions, 12),
        ("_qs_moves", _two_part_compositions, 14),
    ],
)
def test_clean_builder_matches_the_full_engine(moves, states_of, max_n):
    # Each size is built twice off the one below: in full by _profile_of,
    # and clean by _clean_profile_of off the clean level, which holds every
    # state of its size, None for a marker.  Where the full profile is
    # clean, the clean profile has its keys and masks in its order, and
    # every full count is 1; it is None exactly where a child is a marker
    # or an entry repeats a mask.
    q = qschur.qsym
    moves = getattr(q, moves)
    full_below = clean_below = q._EMPTY_LEVEL
    markers = 0
    for n in range(1, max_n + 1):
        full, clean = {}, {}
        for source in states_of(n):
            s = source.row_intervals() if isinstance(source, SkewShape) else source
            prof = full[s] = q._profile_of(moves(s), full_below)
            got = clean[s] = q._clean_profile_of(moves(s), clean_below)
            marked = any(clean_below[child] is None for _, child, _ in moves(s))
            repeated = any(c > 1 for _, _, counts in prof for c in counts)
            assert (got is None) == (marked or repeated), s
            if got is not None:
                assert got == tuple((key, masks) for key, masks, _ in prof)
                assert all(c == 1 for _, _, counts in prof for c in counts)
            markers += got is None
        full_below, clean_below = full, clean
    assert markers


def test_clean_builder_on_the_smallest_states():
    q = qschur.qsym
    # One cell: 1 is never a descent, so the one filling has mask 0.
    assert q._clean_profile_of(q._qs_moves((1,)), q._EMPTY_LEVEL) == ((1, (0,)),)
    one_cell = q._clean_profile_of(q._skew_moves(((0, 1),)), q._EMPTY_LEVEL)
    assert one_cell == ((0, (0,)),)
    assert q._clean_root(one_cell) == (1, {0})
    # The empty partition has one rearrangement, with one filling.
    assert brute_family_fmf(())
    assert brute_family_fmf((), 1)
    # Three cells apart have the descent sets {1} and {2} twice each, in
    # different entries: a root that is clean but not multiplicity-free.
    level = q._EMPTY_LEVEL
    for n in (1, 2, 3):
        states = [shape.row_intervals() for shape in enumerate_skew_shapes(n)]
        level = {s: q._clean_profile_of(q._skew_moves(s), level) for s in states}
    apart = level[((2, 3), (1, 2), (0, 1))]
    assert apart == ((0, (3, 1)), (1, (2, 1)), (2, (2, 0)))
    assert q._clean_root(apart) == (6, None)


def test_qs_f_matches_tableau_tally():
    for n in range(0, 11):
        for alpha in enumerate_compositions(n):
            tally = Counter(com_c(t) for t in enumerate_sct(alpha))
            assert qs_f(alpha) == F(n, tally)
            total = sum(tally.values())
            assert qs_f(alpha, max_tableaux=total) == F(n, tally)


def test_qs_f_matches_frontier_oracle():
    for n in range(0, 13):
        for alpha in enumerate_compositions(n):
            assert qs_f(alpha) == qs_f_frontier(alpha)
    for n in range(2, 19):
        for a in range(1, n):
            assert qs_f((a, n - a)) == qs_f_frontier((a, n - a))


def test_coefficient_totals_count_tableaux():
    for n in range(0, 7):
        for alpha in enumerate_compositions(n):
            assert qs_f(alpha).total() == sum(1 for _ in enumerate_sct(alpha))
        for shape in enumerate_skew_shapes(n):
            assert skew_schur_f(shape).total() == sum(
                1 for _ in enumerate_syt(shape)
            )


def test_schur_via_qs():
    assert schur_via_qs((2, 2)) == qs_f((2, 2)) == schur_f((2, 2))
    assert schur_via_qs((2, 1)) == F(3, {(2, 1): 1, (1, 2): 1})
    assert schur_via_qs((3, 2, 1)) == schur_f((3, 2, 1))
    for n in range(0, 9):
        for lam in enumerate_partitions(n):
            assert schur_via_qs(lam) == schur_f(lam)


def test_unit_coefficient_at_own_shape():
    for n in range(0, 10):
        for alpha in enumerate_compositions(n):
            assert qs_f(alpha).coefficient(alpha) == 1


def test_f_to_m():
    assert f_to_m(F(4, {(1, 3): 1})) == Expansion(
        "M", 4, {(1, 3): 1, (1, 2, 1): 1, (1, 1, 2): 1, (1, 1, 1, 1): 1}
    )
    assert f_to_m(F(4, {(1, 1, 1, 1): 1})) == Expansion("M", 4, {(1, 1, 1, 1): 1})
    full = f_to_m(F(5, {(5,): 1}))
    assert len(full.terms) == 16
    assert all(c == 1 for c in full.terms.values())
    assert f_to_m(F(0, {(): 1})) == Expansion("M", 0, {(): 1})
    assert f_to_m(F(0, {})) == Expansion("M", 0, {})
    with pytest.raises(ValueError):
        f_to_m(Expansion("M", 2, {(2,): 1}))


def test_f_to_m_matches_refinement_oracle():
    expansions = [qs_f(a) for n in range(0, 10) for a in enumerate_compositions(n)]
    expansions += [
        skew_schur_f(s) for n in range(0, 8) for s in enumerate_skew_shapes(n)
    ]
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 9)
        pool = list(enumerate_compositions(n))
        keys = rng.sample(pool, rng.randint(1, min(6, len(pool))))
        expansions.append(F(n, {key: rng.randint(1, 5) for key in keys}))
    expansions += [F(0, {(): 1}), F(0, {(): 3}), F(0, {}), F(4, {})]
    for e in expansions:
        assert f_to_m(e) == f_to_m_by_refinements(e)


def test_f_to_m_is_sparse():
    start = time.perf_counter()
    assert f_to_m(F(25, {(1,) * 25: 1})) == Expansion("M", 25, {(1,) * 25: 1})
    assert time.perf_counter() - start < 0.5
    full = f_to_m(F(16, {(16,): 1}))
    assert full.terms == {alpha: 1 for alpha in enumerate_compositions(16)}


def test_decode_cache_is_bounded():
    # Each call decodes every M-term it returns: 2^15 and then 2^16 keys.
    f_to_m(qs_f((16,)))
    f_to_m(qs_f((17,)))
    info = qschur.compositions._composition_of_mask.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize


def test_f_to_m_term_budget():
    e = F(16, {(16,): 1})
    assert len(f_to_m(e, max_terms=2**15)) == 2**15
    for cap in (1, 1000, 2**15 - 1):
        message = f"M-terms of degree 16 exceeded the tableau budget of {cap}$"
        with pytest.raises(BudgetExceededError, match=message):
            f_to_m(e, max_terms=cap)
    # A one-row shape of 40 cells has 2^39 M-terms; the cap stops it at once.
    with pytest.raises(BudgetExceededError):
        f_to_m(qs_f((40,)), max_terms=10)
    # Two F-terms and no new M-term: the F-support alone passes the cap.
    with pytest.raises(BudgetExceededError, match="M-terms of degree 3"):
        f_to_m(F(3, {(1, 1, 1): 1, (1, 2): 1}), max_terms=1)


def test_omega_f():
    assert omega_f(F(3, {(3,): 1})) == F(3, {(1, 1, 1): 1})
    e = schur_f((3, 1))
    assert omega_f(omega_f(e)) == e
    assert omega_f(schur_f((2, 1))) == schur_f((2, 1))
    with pytest.raises(ValueError, match="omega_f expects an F-expansion"):
        omega_f(Expansion("M", 2, {(2,): 1}))
    for n in range(0, 9):
        for lam in enumerate_partitions(n):
            assert omega_f(schur_f(lam)) == schur_f(conjugate(lam))


def test_omega_on_skew_shapes_is_transpose():
    # standard identity, not load-bearing for the classifications
    for n in range(0, 7):
        for shape in enumerate_skew_shapes(n):
            assert omega_f(skew_schur_f(shape)) == skew_schur_f(shape.transpose())


def test_rotation_invariance():
    for n in range(0, 7):
        for shape in enumerate_skew_shapes(n):
            assert skew_schur_f(shape) == skew_schur_f(shape.rotate180())


def test_is_fmf():
    assert is_fmf(qs_f((2, 3, 3)))
    assert not is_fmf(qs_f((3, 3, 2)))
    assert not is_fmf(schur_f((3, 2, 1)))
    assert is_fmf(F(0, {(): 1}))


def test_f_component_count():
    assert f_component_count(qs_f((1, 3))) == 2
    assert f_component_count(qs_f((3, 1, 2, 1))) == 1
    assert f_component_count(qs_f((7,))) == 1


def test_multiplicity_witnesses_shapes():
    found = multiplicity_witnesses(SkewShape((3, 2, 1)))
    descents = {tuple(d) for d, _, _ in found}
    assert (2, 4) in descents
    pair = next((a, b) for d, a, b in found if tuple(d) == (2, 4))
    assert {t.rows for t in pair} == {
        ((1, 2, 4), (3, 6), (5,)),
        ((1, 2, 6), (3, 4), (5,)),
    }
    for d, a, b in found:
        assert a != b
        assert com_p(a) == com_p(b)


def test_multiplicity_witnesses_compositions():
    assert multiplicity_witnesses((1, 3)) == []
    found = multiplicity_witnesses((2, 2, 4))
    assert found
    for d, a, b in found:
        assert isinstance(a, CompositionTableau)
        assert com_c(a) == com_c(b)
        assert a != b


def test_walks_track_descent_statistics():
    from qschur.ctableaux import _sct_walk
    from qschur.young import _syt_walk

    for n in range(0, 8):
        for shape in enumerate_skew_shapes(n):
            for mask, rows in _syt_walk(shape):
                t = SkewTableau(shape, rows)
                assert mask == sum(1 << (i - 1) for i in des_p(t))
            if n <= 6:
                assert list(enumerate_syt(shape)) == list(syt_by_recursion(shape))
    for n in range(0, 9):
        for alpha in enumerate_compositions(n):
            tableaux = list(enumerate_sct(alpha))
            assert tableaux == list(sct_by_recursion(alpha))
            masks = [mask for mask, _ in _sct_walk(alpha)]
            assert masks == [sum(1 << (i - 1) for i in des_c(t)) for t in tableaux]


def test_witnesses_match_enumeration_oracle():
    sources = [s for n in range(0, 8) for s in enumerate_skew_shapes(n)]
    sources += [SkewShape(lam) for n in range(0, 11) for lam in enumerate_partitions(n)]
    sources += [a for n in range(0, 10) for a in enumerate_compositions(n)]
    for source in sources:
        got = multiplicity_witnesses(source)
        assert got == multiplicity_witnesses_by_enumeration(source)
        for _, a, b in got:
            assert type(a.rows[0][0]) is int and type(b.rows) is tuple


def test_witnesses_of_multiplicity_free_sources_walk_nothing(monkeypatch):
    def refuse(source):
        raise AssertionError(f"walked the tableaux of {source}")

    monkeypatch.setattr(qschur.qsym, "_syt_walk", refuse)
    monkeypatch.setattr(qschur.qsym, "_sct_walk", refuse)
    assert multiplicity_witnesses((1, 3)) == []
    assert multiplicity_witnesses(SkewShape((5, 1))) == []
    assert multiplicity_witnesses(SkewShape((3, 3), (1,))) == []


def test_witness_budget_counts_tableaux():
    for source, what in [
        ((2, 2, 4), "composition tableaux of shape (2, 2, 4)"),
        (SkewShape((3, 2, 1)), "tableaux of shape 3,2,1"),
        (SkewShape((4, 3, 1), (2,)), "tableaux of shape 4,3,1/2"),
    ]:
        if isinstance(source, SkewShape):
            count = sum(1 for _ in syt_by_recursion(source))
        else:
            count = sum(1 for _ in sct_by_recursion(source))
        expected = multiplicity_witnesses_by_enumeration(source)
        assert expected
        assert multiplicity_witnesses(source, max_tableaux=count) == expected
        message = f"{what} exceeded the tableau budget of {count - 1}"
        with pytest.raises(BudgetExceededError) as new:
            multiplicity_witnesses(source, max_tableaux=count - 1)
        with pytest.raises(BudgetExceededError) as old:
            multiplicity_witnesses_by_enumeration(source, max_tableaux=count - 1)
        assert str(new.value) == str(old.value) == message


def test_witnesses_empty_iff_fmf():
    for n in range(1, 8):
        for alpha in enumerate_compositions(n):
            assert (multiplicity_witnesses(alpha) == []) == is_fmf(qs_f(alpha))


def test_qs_f_fast_12_examples():
    assert qs_f_fast_12((1, 2, 2, 1)) == F(6, {(1, 2, 2, 1): 1, (1, 1, 2, 1, 1): 1})
    assert qs_f_fast_12((1, 1, 1)) == F(3, {(1, 1, 1): 1})
    assert qs_f_fast_12((1, 2)) == F(3, {(1, 2): 1})
    assert qs_f_fast_12(()) == F(0, {(): 1})
    with pytest.raises(ValueError):
        qs_f_fast_12((1, 3))


def test_qs_f_fast_12_matches_enumeration():
    for n in range(0, 11):
        for alpha in compositions_with_parts_12(n):
            assert qs_f_fast_12(alpha) == qs_f(alpha)


def test_appending_one_or_one_two_preserves_distribution():
    tails = [(1,), (1, 2)]
    for n in range(0, 6):
        for alpha in enumerate_compositions(n):
            base = qs_f(alpha)
            for tail in tails:
                extended = qs_f(alpha + tail)
                assert extended == F(
                    n + sum(tail),
                    {key + tail: c for key, c in base.terms.items()},
                )


def test_appending_c2_preserves_distribution():
    gammas = [g for m in range(0, 5) for g in enumerate_compositions(m) if in_c2(g)]
    for n in range(0, 8):
        for alpha in enumerate_compositions(n):
            base = qs_f(alpha)
            for gamma in gammas:
                extended = qs_f(alpha + gamma)
                assert extended == F(
                    n + sum(gamma),
                    {key + gamma: c for key, c in base.terms.items()},
                )


def test_monotonicity_small():
    comps = [c for m in range(0, 5) for c in enumerate_compositions(m)]
    for alpha in comps:
        base = qs_f(alpha)
        for gamma in comps:
            suffixed = qs_f(alpha + gamma)
            prefixed = qs_f(gamma + alpha)
            for beta, c in base.terms.items():
                assert c <= suffixed.coefficient(beta + gamma)
                assert c <= prefixed.coefficient(gamma + beta)


def test_budget_paths():
    from qschur import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        qs_f((2, 2), max_tableaux=1)
    with pytest.raises(BudgetExceededError):
        skew_schur_f(SkewShape((2, 2)), max_tableaux=1)
    with pytest.raises(BudgetExceededError):
        multiplicity_witnesses((2, 2), max_tableaux=1)
    assert qs_f((2, 2), max_tableaux=10) == qs_f((2, 2))
    assert skew_schur_f(SkewShape((2, 2)), max_tableaux=10) == schur_f((2, 2))


def test_qs_f_budget_aborts_early(monkeypatch):
    from qschur import BudgetExceededError

    # 87,516 tableaux from 258 profiles.  Under a budget of 10, one level of
    # the walk down holds more than 10 missing compositions, so no profile
    # is built; under 100 the walk ends, and the remaining compositions pass
    # 100 tableaux before half of the profiles are built.
    built = []
    profile_of = qschur.qsym._profile_of
    monkeypatch.setattr(
        qschur.qsym, "_profile_of", lambda *a: built.append(1) or profile_of(*a)
    )
    for budget in (10, 100):
        qschur.qsym._KEPT.clear()
        built.clear()
        with pytest.raises(BudgetExceededError, match=f"tableau budget of {budget}$"):
            qs_f((6, 6, 6), max_tableaux=budget)
        assert len(built) < 129


def test_budget_caps_the_walk_down(monkeypatch):
    from qschur import BudgetExceededError

    # Any set of parts of (2,)*25 can drop to 1 and leading 1s can go, so
    # its downset has about 2^26 compositions; the walk down must stop at
    # the first level with more missing ones than the budget.
    calls = []
    moves = qschur.qsym._qs_moves

    def counted(alpha):
        calls.append(1)
        assert len(calls) < 2_000, "the walk down outgrew the budget"
        return moves(alpha)

    monkeypatch.setattr(qschur.qsym, "_qs_moves", counted)
    for budget in (10, 1000):
        qschur.qsym._KEPT.clear()
        calls.clear()
        with pytest.raises(BudgetExceededError, match=f"tableau budget of {budget}$"):
            qs_f((2,) * 25, max_tableaux=budget)


def test_skew_budget_aborts_early(monkeypatch):
    from qschur import BudgetExceededError

    # The profile of (20, 19) has 2^38 possible masks.  Under a budget of 10
    # the walk down stops at a level with more than 10 missing shapes; under
    # 100 it ends, and the small remaining shapes pass 100 tableaux after a
    # few profiles.  Either way the full profile is never built.
    built = []
    profile_of = qschur.qsym._profile_of
    monkeypatch.setattr(
        qschur.qsym, "_profile_of", lambda *a: built.append(1) or profile_of(*a)
    )
    for budget in (10, 100):
        built.clear()
        message = f"tableaux of shape 20,19 exceeded the tableau budget of {budget}$"
        with pytest.raises(BudgetExceededError, match=message):
            skew_schur_f(SkewShape((20, 19)), max_tableaux=budget)
        assert len(built) < 100
    # A memo hit at the root still meets the budget.
    skew_schur_f(SkewShape((3, 2)))
    with pytest.raises(BudgetExceededError):
        skew_schur_f(SkewShape((3, 2)), max_tableaux=4)


def test_expansion_serialization_roundtrip():
    e = qs_f((2, 1, 2))
    # The JSON object carries everything the validating constructor needs.
    obj = e.to_json_obj()
    terms = [(t["index"], t["coefficient"]) for t in obj["terms"]]
    assert Expansion(obj["basis"], obj["degree"], terms) == e
    assert e.to_json_obj()["terms"] == sorted(
        e.to_json_obj()["terms"], key=lambda t: t["index"]
    )
    text = schur_f((2, 1)).to_text()
    assert text == "1 · F[1,2]\n1 · F[2,1]"


def test_expansion_arithmetic_matches_validated_construction():
    # Sums and multiples skip re-validation, so compare them with the same
    # terms passed through the validating constructor.
    pairs = [
        (qs_f((2, 1, 2)), qs_f((1, 2, 2))),
        (schur_f((3, 2)), F(5, {})),
        (Expansion("M", 4, {(1, 3): 2}), Expansion("M", 4, {(1, 3): 1, (4,): 5})),
        (Expansion("schur", 4, {(2, 2): 1}), Expansion("schur", 4, {(3, 1): 2})),
    ]
    for a, b in pairs:
        terms = Counter(dict(a.terms))
        terms.update(dict(b.terms))
        total = a + b
        assert total == Expansion(a.basis, a.degree, terms)
        assert list(total.terms) == sorted(terms)
        for k in (0, 1, 3):
            scaled = {key: k * c for key, c in a.terms.items()}
            multiple = Expansion(a.basis, a.degree, scaled)
            assert k * a == a * k == multiple
            assert list(multiple.terms) == list((k * a).terms)
        # A multiple keeps the sorted key order of its expansion.
        assert list((a * 3).terms) == sorted(a.terms)
    assert len(0 * qs_f((2, 1, 2))) == 0
    with pytest.raises(ValueError, match="basis mismatch"):
        qs_f((1, 2)) + Expansion("M", 3, {})
    with pytest.raises(ValueError, match="degree mismatch"):
        qs_f((1, 2)) + qs_f((1, 3))
    with pytest.raises(ValueError, match="nonnegative"):
        -1 * qs_f((1, 2))


def test_lr_consistency_small():
    from qschur import lr_expansion

    for n in range(0, 7):
        for shape in enumerate_skew_shapes(n):
            total = F(n, {})
            for lam, c in lr_expansion(shape).terms.items():
                total = total + c * schur_f(lam)
            assert total == skew_schur_f(shape)
