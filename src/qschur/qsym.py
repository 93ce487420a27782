"""Expansions in the fundamental quasisymmetric basis.

Three generators feed everything else, and none lists tableaux:

- ``qs_f``, the quasisymmetric expansion of a composition shape, counts the
  cover chains that define composition tableaux (Haglund, Luoto, Mason and
  van Willigenburg) by descent set;
- ``skew_schur_f``, the expansion of a skew shape, counts standard tableaux
  by descent set (Gessel);
- ``schur_f`` is the straight-shape case of ``skew_schur_f``.

All three run one engine, Stanley's transfer-matrix method (EC1 section
4.7): the descent profile of a state is built from the profiles of the
states left after removing the cell holding 1.  The engine takes a set of
moves, one for compositions and one for skew shapes.  The moves of a
composition are one list per state, ``ctableaux._down_moves``, the inverse
cover moves that ``covers_down`` and ``is_valid_sct`` read too.  The tableau
walk ``ctableaux._sct_walk`` tests the same rule in place on its row sizes:
a walk over ``_down_moves`` lists was no faster, since a composition of 11
has about 35 tableaux and building the lists dominates.  A skew
shape's state is the tuple of basic-form row intervals the shape stores,
and removing a cell leaves a state in the same canonical form.  A public
call checks its root once, on entry, through the input helpers of
``compositions``, and never stores it: ``_counts`` reads the checked root
through ``_state`` and sums the entries of its children in level n - 1
into a count per descent bitmask.

Every public call keeps its levels in one memo, ``_KEPT``, split by size,
up to a cap set by the kind of its root, and builds the levels above the
cap in a dict of its own.  Rotating a shape by 180 degrees leaves its
expansion unchanged (EC2 ch. 7), and removing the cell holding 1 from a
rotated partition leaves a rotated partition.  So ``_counts`` reads a
straight shape as its rotation, rows (lam_1 - lam_i, lam_1], bottom row
first (``_rotated_rows``), and a skew shape whose rows all end in one
column, a rotated partition, as it is; every state below either is one of
the p(k) partitions of k cells, which every partition shares.  Such a root
and a composition keep levels up to ``_KEPT_CELLS`` = 10 cells: every
partition of at most 10 cells holds 10,089 masks between them, under
0.4 MB, and every composition 12,784.  Any other skew root keeps levels up
to ``_KEPT_SKEW_CELLS`` = 8 cells: every skew shape of at most 8 cells
holds 786,393 masks, about 17 MB, where those of 10 cells alone once held
1.39 GB.  The caps are set by the input, not by the number of calls, and
a smaller skew cap would slow the callers that walk every skew shape in
order.  A kept level only grows, so nothing is evicted, and a state that
another thread's call found there stays there for it.

``classify.verify`` asks less of a root: whether some mask has two
tableaux, or whether it has one, two or more masks.  A parent's entry for
a child holds every mask m of the child as m << 1 | d, where d depends only
on the key of the child's entry, with at least the child's count.  So a
dirty child, one with a mask of count 2 or more in one entry, makes a dirty
parent; and since m -> m << 1 | d is injective, a wide child, one with 3 or
more distinct masks, makes a wide parent.  So the clean states, and the
narrow ones, form upward closures: those of size n + 1 are parents of those
of size n.  ``_closure_step`` builds them upward, a level at a time,
through the inverse of a move set: ``ctableaux.covers_up`` for
compositions, and ``_skew_parents`` for skew shapes, which widens a row or
inserts a one-cell row, in a new column or not.  Each level has a builder,
which profiles a state off the level below, and a reader of a root.  Every
count in a clean profile is 1, so a clean level stores each entry as just
(key, masks): ``_clean_profile_of`` concatenates each child's masks,
shifted, and gives None, a marker, at a marker child or at the first mask
an entry repeats, with no dict and no counts; ``_clean_root`` reads a root
as multiplicity-free iff no mask repeats across its entries.  A narrow
level stores full profiles, through ``_narrow_profile_of``, since the
qs-components truth reads their counts.  ``verify`` reads skew, Schur,
two-part and qs-components truth off these levels, holding two at a time,
and takes each level's builder and reader from its table of closures.  It
reads each partition rotated by 180 degrees, as ``_counts`` does, since
its children and clean parents are then rotated partitions.  Likewise
``_two_part_parents`` keeps the parents with at most two parts, since the
children of a composition with at most two parts have at most two parts
too.

Families asks whether every rearrangement of a partition is clean with no
repeated mask, and can stop at the first that is not, where a closure
builds every clean composition of a size.  So it sweeps bottom-up instead,
through clean levels that the caller builds and holds, and makes the
rearrangements one at a time (``compositions._rearranged``), none after
the first that fails.  ``_sweep_counts`` reads a root off those levels by
``_clean_profile_of``, one move at a time up to its first marker child or
repeated mask, and a state that is not clean is stored as None, a marker.
It reads a root unchecked, through ``_state``: its roots are ``verify``'s
own instances, or rearrangements of a partition that ``brute_family_fmf``
has checked.  A child missing from level n - 1, such as a
rearrangement that an earlier family skipped, is built top-down by
``_level_below`` as in a public call, but in those levels and by the clean
builder.  ``verify`` keeps levels n - 2 to n and stores each root below its
last degree for the degree above; ``brute_family_fmf`` holds its levels for
one call and stores no root.  Neither touches a module-level memo.

``verify`` checks the tableau budget on every instance whose truth it
reads off a clean or narrow profile, in instance order.  ``_passing``
checks it on each root read with a profile, off a closure level or a
sweep's, for ``brute_family_fmf`` too; a clean profile has one filling per
mask.  A closure level is built whole, unchecked, before its roots are
read, so that the first root over the budget in instance order is the one
named.  Every state it is built from is an instance of the degree below,
which has met the budget, or, for two-part, a one-part composition, which
has one filling.

The queries on top work on the same bitmasks (bit t set = descent at
t + 1), through the codec in ``compositions``.  ``f_to_m`` is Gessel's
F_alpha = sum of M_beta over the refinements beta of alpha; the
refinements of alpha are the supersets of its mask, so the M-coefficient
of a mask is the sum of the F-coefficients of its subsets (the zeta
transform of the Boolean lattice, EC1 section 3.8).  It is taken one bit
at a time over the masks reached so far: for each bit, every mask without
it adds its sum into the mask with it.  That costs at most n - 1 dict
operations per M-term, and the masks no F-term lies under are never
allocated.  ``multiplicity_witnesses`` reads the repeated masks off the
engine's counts, then walks the tableaux, which yield their masks as they
are filled, and stops when each repeated mask has been met twice.  The
walks' rows never change, so a pair keeps them as they come.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .compositions import (
    Composition,
    DescentSet,
    Partition,
    _composition,
    _composition_of_mask,
    _descent_mask,
    _instance,
    _mask_members,
    _partition,
    _rearranged,
    complement,
    reverse,
)
from .ctableaux import CompositionTableau, _covers_up, _down_moves, _sct_walk
from .errors import BudgetExceededError, _budget
from .expansion import Expansion
from .shapes import Intervals, SkewShape
from .young import SkewTableau, _syt_walk

TableauSource = Union[Composition, SkewShape]


def _f_expansion(n: int, by_mask: dict[int, int]) -> Expansion:
    """The F-expansion of degree ``n`` with the given count per descent
    mask, built without re-validating the engine's output.  Degree 0 has
    only the mask 0, whose key decodes to the empty composition."""
    top = 1 << n >> 1
    return Expansion._trusted(
        "F", n, {_composition_of_mask(mask | top): cnt for mask, cnt in by_mask.items()}
    )


# A state is a composition or a basic-form skew shape, as the row intervals
# (a, b], top row first, that the shape stores.  A move removes the cell
# holding 1: it is (key, child, threshold), where the key locates that cell
# (its column in a composition, its row in a skew shape), the child is the
# state left, and entry 1 is a descent when the child's cell holding 1 has
# key >= threshold.
State = Union[Composition, Intervals]
Move = tuple[int, State, int]
Moves = Callable[[State], Iterable[Move]]
# One entry per move of a state: the key of the cell holding 1, the descent
# masks (bit t set = descent at t + 1) of the fillings that put 1 there, and
# how many fillings have each mask.  Composition states may repeat a key.
# An entry of a clean level has one filling per mask, so it is just
# (key, masks); the clean code reads only those two fields, so the empty
# level serves it too.
Profile = tuple[tuple, ...]
# A level of pruned states maps some of them to None, a marker.  Its
# builder gives the profile a state stores off the level below, or None;
# its reader gives a root's fillings and what the truth needs of the root,
# None where the root fails.
Level = dict[State, Optional[Profile]]
Build = Callable[[Iterable[Move], Level], Optional[Profile]]
Read = Callable[[Profile], tuple[int, object]]

# Shared across calls and across kinds of state: _KEPT[m] maps the states
# with m cells to their profiles.  A call keeps the levels up to its root's
# cap, _KEPT_CELLS for a straight or rotated-partition root and for a
# composition, _KEPT_SKEW_CELLS for any other skew shape.  They only grow.
_KEPT_CELLS = 10
_KEPT_SKEW_CELLS = 8
_KEPT: dict[int, dict[State, Profile]] = {}
# The empty state has one filling; its key lies below every threshold, so
# entry 1 of a one-cell state is never a descent.
_EMPTY_LEVEL: dict[State, Profile] = {(): ((-1, (0,), (1,)),)}


# The moves of a composition are its inverse cover moves, listed by
# ``ctableaux._down_moves`` in the engine's form: the column of the cell
# holding 1 is both its key and the threshold, since entry 1 is a descent
# when entry 2 sits weakly right of it.
_qs_moves = _down_moves


def _skew_moves(ivs: Intervals) -> Iterator[Move]:
    """Moves of a skew shape, one per row i whose leftmost cell has no cell
    above it; entry 1 is a descent when entry 2 lies in a lower row of the
    child, in basic form: its rows from i + 1 on, or from i if row i empties."""
    for i, (a, b) in enumerate(ivs):
        if i and ivs[i - 1][0] == a:
            continue
        if i + 1 == len(ivs) or ivs[i + 1][1] <= a:
            # Column a + 1 empties; the rows above i lie wholly right of it.
            head, row = tuple((x - 1, y - 1) for x, y in ivs[:i]), (a, b - 1)
        else:
            head, row = ivs[:i], (a + 1, b)
        if a + 1 == b:
            yield i, head + ivs[i + 1 :], i
        else:
            yield i, head + (row,) + ivs[i + 1 :], i + 1


def _skew_parents(ivs: Intervals) -> Iterator[Intervals]:
    """The skew shapes with a move to ``ivs``, the inverse of
    :func:`_skew_moves`, possibly with repeats.  The cell holding 1 widens
    row i, on the left, or on the right in a new column with the rows above
    moved right.  Or it is a new one-cell row at index i, where row i - 1,
    if any, starts at the end b of row i: the row (b - 1, b], or (b, b + 1]
    in a new column with the rows above moved right; or a new last row."""
    right = tuple((x + 1, y + 1) for x, y in ivs)  # every row moved right
    for i, (a, b) in enumerate(ivs):
        if a and ivs[i + 1][0] < a:  # a > 0: row i is not the last
            yield ivs[:i] + ((a - 1, b),) + ivs[i + 1 :]
        if i + 1 == len(ivs) or ivs[i + 1][1] == a:
            yield right[:i] + ((a, b + 1),) + ivs[i + 1 :]
        if not i or ivs[i - 1][0] == b:
            yield ivs[:i] + ((b - 1, b),) + ivs[i:]
            yield right[:i] + ((b, b + 1),) + ivs[i:]
    yield right + ((0, 1),)


def _rotated_rows(lam: Partition) -> Intervals:
    """The row intervals of the nonempty partition ``lam`` rotated by 180
    degrees, (lam_1 - lam_i, lam_1], bottom row of ``lam`` first: the same
    expansion, in basic form."""
    top = lam[0]
    return tuple((top - part, top) for part in reversed(lam))


def _rotated_parents(ivs: Intervals) -> Iterator[Intervals]:
    """The parents of a partition rotated by 180 degrees that are rotated
    partitions: every row ends in the last column."""
    return (p for p in _skew_parents(ivs) if p[-1][1] == p[0][1])


def _two_part_parents(alpha: Composition) -> Iterator[Composition]:
    """The parents of a composition with at most two parts that have at
    most two parts."""
    return (p for p in _covers_up(alpha) if len(p) <= 2)


def _merged(entries: Sequence[tuple]) -> tuple:
    """Masks and counts of the sum of some profile entries."""
    _, masks, counts = entries[0]
    if len(entries) == 1:
        return masks, counts
    acc = dict(zip(masks, counts))
    for _, ms, cs in entries[1:]:
        for m, c in zip(ms, cs):
            acc[m] = acc.get(m, 0) + c
    return acc.keys(), acc.values()


def _profile_of(moves: Iterable[Move], below: Level) -> Profile | None:
    """Profile of a state from its moves and the profiles of the states one
    cell smaller, or None, a marker, when a child is one.  A child's entry 1
    is the parent's entry 2, so the child's entries split into those below
    the threshold and those at or above it; their masks differ in bit 0, so
    only entries within a group need merging.
    """
    out = []
    for key, child, t in moves:
        entries = below[child]
        if entries is None:
            return None
        if len(entries) == 1:  # nothing to merge
            k, ms, cs = entries[0]
            d = k >= t
            out.append((key, tuple([m << 1 | d for m in ms]), cs))
            continue
        groups = ([e for e in entries if e[0] < t], [e for e in entries if e[0] >= t])
        keys: list[int] = []
        counts: list[int] = []
        for d, group in enumerate(groups):
            if group:
                ms, cs = _merged(group)
                keys += [m << 1 | d for m in ms]
                counts += cs
        out.append((key, tuple(keys), tuple(counts)))
    return tuple(out)


def _clean_profile_of(moves: Iterable[Move], below: Level) -> Profile | None:
    """The profile of a state off a clean level, as a clean level stores
    it: per move, the key and the masks of the child's entries, shifted by
    one bit, those below the threshold first, in :func:`_profile_of`'s
    order.  None, a marker, where a child is one or an entry repeats a
    mask, which is where the full profile has a count above 1."""
    out = []
    for key, child, t in moves:
        entries = below[child]
        if entries is None:
            return None
        if len(entries) == 1:
            # A stored entry repeats no mask, and neither does its shift.
            e = entries[0]
            d = e[0] >= t
            out.append((key, tuple([m << 1 | d for m in e[1]])))
            continue
        masks = [m << 1 for e in entries if e[0] < t for m in e[1]]
        masks += [m << 1 | 1 for e in entries if e[0] >= t for m in e[1]]
        if len(set(masks)) < len(masks):
            return None
        out.append((key, tuple(masks)))
    return tuple(out)


def _clean_root(prof: Profile) -> tuple[int, set[int] | None]:
    """The fillings of a root with a clean profile, one per mask, and its
    masks, or None where two entries share a mask: one pass counts and
    collects them.  An entry's masks are read as ``e[1]``, since the empty
    level's entry has a third field."""
    found: set[int] = set()
    tableaux = 0
    for e in prof:
        masks = e[1]
        tableaux += len(masks)
        found.update(masks)
    return tableaux, found if len(found) == tableaux else None


def _narrow_profile_of(moves: Iterable[Move], below: Level) -> Profile | None:
    """The full profile of a state, or None, a marker, where a child is one
    or its entries hold more than two distinct masks."""
    prof = _profile_of(moves, below)
    wide = prof is None or len(set().union(*[ms for _, ms, _ in prof])) > 2
    return None if wide else prof


def _narrow_root(prof: Profile) -> tuple[int, dict[int, int]]:
    """The fillings of a root with a narrow profile and its counts per mask,
    which are at most two."""
    by_mask = dict(zip(*_merged(prof)))
    return sum(by_mask.values()), by_mask


def _tableaux(prof: Profile) -> int:
    """The fillings of a full profile."""
    return sum(sum(counts) for _, _, counts in prof)


def _mask_count(prof: Profile) -> int:
    """The fillings of a clean profile, one per mask."""
    return sum(len(masks) for _, masks in prof)


def _evict(memo: dict[int, dict], n: int) -> None:
    """Keep levels n - 2 and n - 1 of ``memo``."""
    for level in list(memo):
        if not n - 2 <= level < n:
            memo.pop(level, None)


def _closure_step(level: Level, parents: Callable, moves: Moves, build: Build) -> Level:
    """The states one cell larger than those of ``level`` that ``build``
    stores with a profile, with those profiles, where ``level`` holds every
    state of its size that it stores: a state stored has only children that
    are, so it is a parent of one.  A child missing from ``level`` is a
    marker.  No budget is checked here; see :func:`_closure_counts`."""
    up: Level = dict.fromkeys(p for state in level for p in parents(state))
    for p in up:
        try:
            up[p] = build(moves(p), level)
        except KeyError:  # a child missing from ``level``: p is a marker
            pass
    return {p: prof for p, prof in up.items() if prof is not None}


def _passing(
    prof: Profile, read: Read, budget: int | None, source: TableauSource
) -> object:
    """What ``read`` finds of a root with profile ``prof``, None where the
    root fails.  The root's fillings meet the budget first, whether it
    passes or not: ``verify`` checks the tableau budget on every instance
    whose truth it reads off a clean or narrow profile, in instance order."""
    tableaux, found = read(prof)
    if budget is not None and tableaux > budget:
        raise BudgetExceededError(_label(source), budget)
    return found


def _closure_counts(
    level: Level, read: Read, budget: int | None
) -> Callable[[TableauSource], object]:
    """The reader of a source off a level of :func:`_closure_step`: what
    ``read`` finds of it, None where the source is not in the level or
    fails.  Every source in the level meets the budget, by
    :func:`_passing`, whether it passes or not."""

    def counts(source: TableauSource) -> object:
        state = source.row_intervals() if isinstance(source, SkewShape) else source
        prof = level.get(state)
        return None if prof is None else _passing(prof, read, budget, source)

    return counts


def _level_below(
    state: State,
    n: int,
    moves: Moves,
    max_tableaux: int | None,
    source: TableauSource,
    memo: dict[int, Level],
    build: Build,
    tableaux: Callable[[Profile], int],
) -> tuple[list[Move], Level]:
    """The moves of ``state``, which has ``n`` >= 1 cells, and the level of
    ``memo`` holding its children, after building the states it still lacks
    below it: they are found top-down, level by level, then profiled
    bottom-up by ``build`` and stored.  With a budget, a level with more
    missing states than the budget aborts the call, and so does a state
    stored with a profile of more fillings, as ``tableaux`` counts them,
    than it: every filling of a state left after removing cells extends to
    one of ``state``.  The error names ``source``.
    """
    levels = {0: _EMPTY_LEVEL}
    root_moves = list(moves(state))
    missing: list[list[tuple[State, list[Move]]]] = []
    frontier = [(state, root_moves)]
    for m in range(n - 1, 0, -1):
        known = levels[m] = memo.setdefault(m, {})
        children = {
            child for _, ms in frontier for _, child, _ in ms if child not in known
        }
        if not children:
            break
        # Distinct states of one level are left by distinct runs of moves,
        # and each run starts a distinct filling of ``state``; so the budget
        # also caps the walk at about n * max_tableaux states.
        if max_tableaux is not None and len(children) > max_tableaux:
            raise BudgetExceededError(_label(source), max_tableaux)
        frontier = [(s, list(moves(s))) for s in children]
        missing.append(frontier)
    for depth in range(len(missing) - 1, -1, -1):
        level, below = levels[n - 1 - depth], levels[n - 2 - depth]
        for s, ms in missing[depth]:
            prof = level[s] = build(ms, below)
            if prof is not None and max_tableaux is not None:
                if tableaux(prof) > max_tableaux:
                    raise BudgetExceededError(_label(source), max_tableaux)
    return root_moves, levels[n - 1]


def _state(source: TableauSource) -> tuple[State, int, Moves]:
    """The state of ``source``, a skew shape or a checked composition, its
    size and its moves."""
    if isinstance(source, SkewShape):
        return source.row_intervals(), source.size, _skew_moves
    return source, sum(source), _qs_moves


def _label(source: TableauSource) -> str:
    """What a budget error on ``source`` names; built only when raising."""
    if isinstance(source, SkewShape):
        return f"tableaux of shape {source}"
    return f"composition tableaux of shape {source}"


def _counts(
    source: TableauSource, max_tableaux: int | None
) -> tuple[int, dict[int, int]]:
    """Degree of ``source``, a skew shape or a checked composition, and its
    number of tableaux per descent mask.  A straight shape is read as its
    rotation, and a rotated partition as it is.  The levels below the root
    are built in ``_KEPT`` up to the cap of the root's kind, and above it
    for this call only (see the module docstring).  More tableaux than
    ``max_tableaux`` raise :class:`BudgetExceededError`, which names
    ``source`` as given."""
    state, n, moves = _state(source)
    by_mask = {} if n else {0: 1}
    if n:
        skew = isinstance(source, SkewShape)
        # A straight shape is read as its rotation; a rotated partition,
        # whose rows all end in the last column, is read as it is.
        if skew and not state[0][0]:
            state = _rotated_rows(source.outer)
        cap = _KEPT_SKEW_CELLS if skew and state[-1][1] != state[0][1] else _KEPT_CELLS
        memo = {m: _KEPT.setdefault(m, {}) for m in range(1, min(n, cap + 1))}
        root_moves, below = _level_below(
            state, n, moves, max_tableaux, source, memo, _profile_of, _tableaux
        )
        for _, child, t in root_moves:
            for key, ms, cs in below[child]:
                d = key >= t
                for m, c in zip(ms, cs):
                    m = m << 1 | d
                    by_mask[m] = by_mask.get(m, 0) + c
    if max_tableaux is not None and sum(by_mask.values()) > max_tableaux:
        raise BudgetExceededError(_label(source), max_tableaux)
    return n, by_mask


def _sweep_counts(
    levels: dict[int, Level], last: int, budget: int | None
) -> Callable[[TableauSource], Optional[set[int]]]:
    """The reader of a source's masks off ``levels``, the clean levels of a
    bottom-up sweep: None where the source is not multiplicity-free.  The
    source is a skew shape or a tuple of positive parts, read unchecked
    through :func:`_state`; its caller has built or checked it.  A root
    is profiled off level n - 1 by :func:`_clean_profile_of`, up to its
    first marker child or repeated mask; a missing child is built by
    :func:`_level_below`, in ``levels``.  A root of degree n below ``last``
    is stored in level n, as a marker where it is not clean; ``last`` says
    only that.  Every clean root meets the budget, by :func:`_passing`,
    whether it passes or not.
    """

    def counts(source: TableauSource) -> set[int] | None:
        state, n, moves = _state(source)
        if not n:
            return _passing(_EMPTY_LEVEL[()], _clean_root, budget, source)
        try:
            prof = _clean_profile_of(moves(state), levels[n - 1])
        except KeyError:  # a child, or level n - 1 itself, is missing
            root_moves, below = _level_below(
                state, n, moves, budget, source, levels, _clean_profile_of, _mask_count
            )
            prof = _clean_profile_of(root_moves, below)
        if n < last:
            levels.setdefault(n, {})[state] = prof
        return None if prof is None else _passing(prof, _clean_root, budget, source)

    return counts


def qs_f(alpha: Composition, max_tableaux: int | None = None) -> Expansion:
    """Fundamental expansion of the quasisymmetric Schur function of shape
    ``alpha``: the coefficient of a composition beta counts the standard
    composition tableaux of shape alpha with descent composition beta.

    Removing the cells 1, 2, ..., n in order walks an inverse cover chain
    down to the empty composition, so this counts chains by descent set,
    off the levels kept across calls up to 10 cells.  With
    ``max_tableaux``, a shape with more tableaux than the budget raises
    :class:`BudgetExceededError` at a cost that grows with the budget times
    the size, not with the number of tableaux.  A part that is not an int
    of at least 1, or a budget that is not None or an int of at least 1,
    raises :class:`ValueError`.
    """
    return _f_expansion(*_counts(_composition(alpha), _budget(max_tableaux)))


def skew_schur_f(shape: SkewShape, max_tableaux: int | None = None) -> Expansion:
    """Fundamental expansion of the skew Schur function of ``shape``.

    The coefficient of beta counts standard Young tableaux whose descent
    composition is beta (Gessel).  Rather than listing tableaux, this counts
    them by descent set.  A straight shape is read as its rotation, where
    every state below is a rotated partition, off the levels kept across
    calls up to 10 cells; any other shape keeps levels up to 8 cells (see
    the module docstring).  With ``max_tableaux``, a shape with more
    tableaux than the budget raises :class:`BudgetExceededError` at a cost
    that grows with the budget times the size, not with the number of
    tableaux.  Anything but a :class:`SkewShape`, or a budget that is not
    None or an int of at least 1, raises :class:`ValueError`.
    """
    shape = _instance(shape, SkewShape, "a skew shape")
    return _f_expansion(*_counts(shape, _budget(max_tableaux)))


def schur_f(lam: Partition, max_tableaux: int | None = None) -> Expansion:
    """Fundamental expansion of the Schur function of the partition
    ``lam``: :func:`skew_schur_f` of its straight shape, read as its
    rotation off the kept levels of rotated partitions."""
    return skew_schur_f(SkewShape(lam), max_tableaux)


def schur_via_qs(lam: Partition) -> Expansion:
    """Schur function assembled as the sum of the quasisymmetric Schur
    functions over all rearrangements of ``lam``; must agree with
    :func:`schur_f`.  A part below 1 or an increasing pair of parts raises
    :class:`ValueError`."""
    lam = _partition(lam)
    total = Expansion("F", sum(lam), {})
    for alpha in _rearranged(lam):
        total = total + qs_f(alpha)
    return total


def f_to_m(e: Expansion, max_terms: int | None = None) -> Expansion:
    """Change of basis: F_alpha is the sum of M_beta over the refinements
    beta of alpha.

    Computed as a sparse subset sum over descent masks, described in the
    module docstring.  With ``max_terms``, an M-expansion of more terms
    raises :class:`BudgetExceededError` as soon as the terms found pass it.
    Anything but an F-expansion, or a budget that is not None or an int of
    at least 1, raises :class:`ValueError`.
    """
    if _instance(e, Expansion, "an expansion").basis != "F":
        raise ValueError("f_to_m expects an F-expansion")
    max_terms = _budget(max_terms)
    n = e.degree
    acc = {_descent_mask(key): coeff for key, coeff in e.terms.items()}
    # Every F-term is an M-term, so the support alone may pass the cap.
    if max_terms is not None and len(acc) > max_terms:
        raise BudgetExceededError(f"M-terms of degree {n}", max_terms)
    for t in range(n - 1):
        bit = 1 << t
        # Masks without the bit add their sums into masks with it; the
        # first are only read and the second only written in this pass.
        for low in [m for m in acc if not m & bit]:
            high = low | bit
            if high in acc:
                acc[high] += acc[low]
            else:
                acc[high] = acc[low]
                # The dict only grows, so the result has at least this many.
                if max_terms is not None and len(acc) > max_terms:
                    raise BudgetExceededError(f"M-terms of degree {n}", max_terms)
    top = 1 << n >> 1
    return Expansion._trusted(
        "M", n, {_composition_of_mask(mask | top): c for mask, c in acc.items()}
    )


def omega_f(e: Expansion) -> Expansion:
    """The involution sending the F-term at alpha to the F-term at the
    complement of the reverse of alpha."""
    if _instance(e, Expansion, "an expansion").basis != "F":
        raise ValueError("omega_f expects an F-expansion")
    return Expansion(
        "F", e.degree, {complement(reverse(key)): c for key, c in e.terms.items()}
    )


def is_fmf(e: Expansion) -> bool:
    """True iff every coefficient is 0 or 1."""
    return all(c == 1 for c in _instance(e, Expansion, "an expansion").terms.values())


def f_component_count(e: Expansion) -> int:
    """Number of keys with nonzero coefficient."""
    return len(_instance(e, Expansion, "an expansion").terms)


def multiplicity_witnesses(
    source: TableauSource, max_tableaux: int | None = None
) -> list[tuple[DescentSet, object, object]]:
    """One witness pair of tableaux for every descent set hit at least
    twice, in ascending order of descent set; the empty list is equivalent
    to the expansion being multiplicity-free.  Each pair is the first two
    tableaux with that descent set in enumeration order.

    The descent counts come from the shared engine, which also enforces the
    budget, so a multiplicity-free source lists no tableau.  Otherwise one
    walk over the tableaux stops as soon as every repeated descent set has
    its pair.  The walk's rows never change, so the rows of a pair are kept
    as they come, and only the tableaux of the pairs are built.  A source
    that is neither a :class:`SkewShape` nor a composition, or a budget that
    is not None or an int of at least 1, raises :class:`ValueError`.
    """
    skew = isinstance(source, SkewShape)
    source = source if skew else _composition(source)
    n, counts = _counts(source, _budget(max_tableaux))
    repeated = {mask for mask, c in counts.items() if c > 1}
    if not repeated:
        return []
    first: dict[int, tuple] = {}
    found = []
    for mask, rows in _syt_walk(source) if skew else _sct_walk(source):
        if mask not in repeated:
            continue
        if mask not in first:
            first[mask] = rows
            continue
        found.append((_mask_members(n, mask), first[mask], rows))
        repeated.discard(mask)
        if not repeated:
            break
    found.sort(key=itemgetter(0))
    wrap = CompositionTableau._trusted
    if skew:
        wrap = partial(SkewTableau._trusted, source)
    return [
        (DescentSet._trusted(n, members), wrap(a), wrap(b)) for members, a, b in found
    ]
