"""Expansions in the fundamental quasisymmetric basis.

Three generators feed everything else, and none lists tableaux:

- ``qs_f``, the quasisymmetric expansion of a composition shape, distributes
  descent sets level by level over the cover chains that define composition
  tableaux;
- ``skew_schur_f``, the expansion of a skew shape, counts standard tableaux
  by descent set on the shape left after removing the cell holding 1
  (Stanley's transfer-matrix method, EC1 section 4.7).  That memo is shared
  by every call and split by size; a call on a shape of size n keeps no
  level below n - 1, so an upward sweep over all shapes computes each one
  once from the level below and keeps two levels between calls;
- ``schur_f`` is the straight-shape case of ``skew_schur_f``.

Both engines hand a count per descent bitmask to one function,
``_f_expansion``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Union

from .compositions import (
    Composition,
    DescentSet,
    Partition,
    complement,
    rearrangements,
    refinements,
    reverse,
)
from .ctableaux import _down_moves, des_c, enumerate_sct
from .errors import BudgetExceededError, capped
from .expansion import Expansion
from .shapes import SkewShape
from .young import des_p, enumerate_syt

TableauSource = Union[Composition, SkewShape]


# Unbounded: it holds one entry per descent set the engines produced, and an
# LRU's per-entry bookkeeping cost more memory than it would ever evict.
@lru_cache(maxsize=None)
def _composition_of_mask(key: int) -> Composition:
    """Decode ``mask | 1 << (n - 1)``, a descent bitmask of degree n (bit t
    set = descent at t + 1) whose top bit carries n: it closes the last part."""
    parts = []
    prev = 0
    pos = 1
    while key:
        if key & 1:
            parts.append(pos - prev)
            prev = pos
        key >>= 1
        pos += 1
    return tuple(parts)


def _f_expansion(by_mask: dict[int, int], n: int) -> Expansion:
    """The F-expansion of degree ``n`` >= 1 with the given count per descent
    mask, built without re-validating the engine's output."""
    top = 1 << (n - 1)
    return Expansion._trusted(
        "F", n, {_composition_of_mask(mask | top): cnt for mask, cnt in by_mask.items()}
    )


def _qs_f_profile(alpha: Composition, max_tableaux: int | None) -> Expansion:
    """Count standard composition tableaux of shape ``alpha`` by descent set,
    one level of the cover chain at a time.

    Removing the cells 1, 2, ..., n in order walks an inverse cover chain
    down to the empty composition.  After removing cell i, a frontier state
    is the remaining composition with the column of cell i, and its value
    maps the descent bitmask of entries 1..i-1 to the number of chains that
    reach the state with it; entry i-1 is a descent when cell i sits weakly
    right of cell i-1.  Every nonempty composition has a down move, so the
    frontier's count never drops and ends at the number of tableaux.
    """
    n = sum(alpha)
    if n == 0:
        return Expansion("F", 0, {(): 1})
    # No column exceeds n, so the first removal never records a descent.
    frontier: dict[tuple[Composition, int], dict[int, int]] = {(alpha, n + 1): {0: 1}}
    for entry in range(1, n + 1):
        bit = 1 << (entry - 2) if entry > 1 else 0
        nxt: dict[tuple[Composition, int], dict[int, int]] = {}
        for (shape, last), masks in frontier.items():
            for col, child in _down_moves(shape):
                descent = bit if col >= last else 0
                into = nxt.setdefault((child, col), {})
                for mask, cnt in masks.items():
                    mask |= descent
                    into[mask] = into.get(mask, 0) + cnt
        frontier = nxt
        if max_tableaux is not None and (
            sum(sum(masks.values()) for masks in frontier.values()) > max_tableaux
        ):
            raise BudgetExceededError(
                f"composition tableaux of shape {alpha}", max_tableaux
            )
    by_mask: dict[int, int] = {}
    for masks in frontier.values():
        for mask, cnt in masks.items():
            by_mask[mask] = by_mask.get(mask, 0) + cnt
    return _f_expansion(by_mask, n)


@lru_cache(maxsize=None)
def _qs_f_cached(alpha: Composition) -> Expansion:
    return _qs_f_profile(alpha, None)


def qs_f(alpha: Composition, max_tableaux: int | None = None) -> Expansion:
    """Fundamental expansion of the quasisymmetric Schur function of shape
    ``alpha``: the coefficient of a composition beta counts the standard
    composition tableaux of shape alpha with descent composition beta."""
    alpha = tuple(alpha)
    if any(p < 1 for p in alpha):
        raise ValueError(f"not a composition: {alpha}")
    if max_tableaux is None:
        return _qs_f_cached(alpha)
    return _qs_f_profile(alpha, max_tableaux)


# A basic-form skew shape as its row intervals (a, b], top row first.
Intervals = tuple[tuple[int, int], ...]
# One entry per inner-corner row i of a shape: the descent masks of its
# standard fillings with 1 in row i, and how many fillings have each mask.
Entry = tuple[int, tuple[int, ...], tuple[int, ...]]
Profile = tuple[Entry, ...]

# Shared across calls: _PROFILES[m] maps the shapes with m cells to their
# profiles.  A call on a shape with n cells keeps no level below n - 1.
_PROFILES: dict[int, dict[Intervals, Profile]] = {}
_SINGLE_CELL: Profile = ((0, (0,), (1,)),)


def _corners(ivs: Intervals) -> list[int]:
    """Rows whose leftmost cell has no cell above it: where 1 can sit."""
    return [i for i in range(len(ivs)) if not i or ivs[i - 1][0] != ivs[i][0]]


def _remove_first(ivs: Intervals, i: int) -> Intervals:
    """Row intervals, in basic form, left after removing the leftmost cell
    of the inner-corner row ``i``."""
    a, b = ivs[i]
    if i + 1 == len(ivs) or ivs[i + 1][1] <= a:
        # Column a + 1 empties; the rows above i lie wholly right of it.
        head = tuple((x - 1, y - 1) for x, y in ivs[:i])
        row = (a, b - 1)
    else:
        head = ivs[:i]
        row = (a + 1, b)
    if row[0] < row[1]:
        return head + (row,) + ivs[i + 1 :]
    return head + ivs[i + 1 :]


def _merged(entries: Sequence[Entry]) -> tuple:
    """Masks and counts of the sum of some profile entries."""
    _, masks, counts = entries[0]
    if len(entries) == 1:
        return masks, counts
    acc = dict(zip(masks, counts))
    for _, ms, cs in entries[1:]:
        for m, c in zip(ms, cs):
            acc[m] = acc.get(m, 0) + c
    return acc.keys(), acc.values()


def _profile_of(ivs: Intervals, below: dict[Intervals, Profile]) -> Profile:
    """Profile of a shape from the profiles of the shapes one cell smaller.

    Removing the cell holding 1 from row i leaves a child whose entry 1 is
    the parent's entry 2; entry 1 is a descent when that cell lies in a
    lower row.  Those are the child's rows from t on: from i + 1, or from i
    when row i empties.  The masks of the two groups differ in bit 0, so
    only entries within a group need merging.
    """
    out = []
    for i in _corners(ivs):
        a, b = ivs[i]
        t = i if a + 1 == b else i + 1
        entries = below[_remove_first(ivs, i)]
        groups = ([e for e in entries if e[0] < t], [e for e in entries if e[0] >= t])
        keys: list[int] = []
        counts: list[int] = []
        for d, group in enumerate(groups):
            if group:
                ms, cs = _merged(group)
                keys += [m << 1 | d for m in ms]
                counts += cs
        out.append((i, tuple(keys), tuple(counts)))
    return tuple(out)


def _evict_below(m: int) -> None:
    """Drop the memo's levels below ``m``, and empty ones an abort left."""
    for level in [k for k, v in _PROFILES.items() if k < m or not v]:
        del _PROFILES[level]


def _skew_profile(
    ivs: Intervals, n: int, max_tableaux: int | None, what: str
) -> Profile:
    """Profile of the shape ``ivs`` with ``n`` >= 1 cells, through the shared
    memo.  The shapes it still lacks are found top-down, level by level,
    then computed bottom-up; with a budget, the first one with more fillings
    than the budget aborts the call, since every filling of a shape left
    after removing cells extends to one of ``ivs``."""
    _evict_below(n - 1)
    try:
        # Hold each level here, so that another thread's eviction cannot
        # pull one from under this call.
        levels = {n: _PROFILES.setdefault(n, {})}
        missing: list[list[Intervals]] = []
        frontier = [] if ivs in levels[n] else [ivs]
        m = n
        while frontier:
            missing.append(frontier)
            m -= 1
            if m == 0:
                break
            known = levels[m] = _PROFILES.setdefault(m, {})
            frontier = list(
                {
                    child
                    for state in frontier
                    for i in _corners(state)
                    if (child := _remove_first(state, i)) not in known
                }
            )
        for depth in range(len(missing) - 1, -1, -1):
            m = n - depth
            level, below = levels[m], levels.get(m - 1)
            for state in missing[depth]:
                prof = _SINGLE_CELL if m == 1 else _profile_of(state, below)
                if max_tableaux is not None and (
                    sum(sum(counts) for _, _, counts in prof) > max_tableaux
                ):
                    raise BudgetExceededError(what, max_tableaux)
                level[state] = prof
        return levels[n][ivs]
    finally:
        _evict_below(n - 1)


def skew_schur_f(shape: SkewShape, max_tableaux: int | None = None) -> Expansion:
    """Fundamental expansion of the skew Schur function of ``shape``.

    The coefficient of beta counts standard Young tableaux whose descent
    composition is beta (Gessel).  Rather than listing tableaux, this counts
    them by descent set on the shape that remains after removing the cell
    holding 1, memoised across calls: every skew shape ``verify`` meets is
    computed once from the shapes one cell smaller.  The memo is split by
    size, and a call on a shape of size n first and last evicts every level
    below n - 1, so an upward sweep, whose children were all computed at the
    previous degree, loses nothing.  With ``max_tableaux``, any remaining
    shape with more tableaux than the budget raises
    :class:`BudgetExceededError` before larger ones are built.
    """
    n = shape.size
    if n == 0:
        return Expansion("F", 0, {(): 1})
    what = f"tableaux of shape {shape}"
    profile = _skew_profile(tuple(shape.row_intervals()), n, max_tableaux, what)
    by_mask = dict(zip(*_merged(profile)))
    if max_tableaux is not None and sum(by_mask.values()) > max_tableaux:
        raise BudgetExceededError(what, max_tableaux)
    return _f_expansion(by_mask, n)


@lru_cache(maxsize=None)
def _schur_f_cached(lam: Partition) -> Expansion:
    return skew_schur_f(SkewShape(lam))


def schur_f(lam: Partition, max_tableaux: int | None = None) -> Expansion:
    """Fundamental expansion of the Schur function of the partition ``lam``."""
    lam = tuple(lam)
    if max_tableaux is None:
        return _schur_f_cached(lam)
    return skew_schur_f(SkewShape(lam), max_tableaux)


def schur_via_qs(lam: Partition) -> Expansion:
    """Schur function assembled as the sum of the quasisymmetric Schur
    functions over all rearrangements of ``lam``; must agree with
    :func:`schur_f`."""
    lam = tuple(lam)
    total = Expansion("F", sum(lam), {})
    for alpha in rearrangements(lam):
        total = total + qs_f(alpha)
    return total


def f_to_m(e: Expansion) -> Expansion:
    """Change of basis: each F-term contributes to every refinement of its key."""
    if e.basis != "F":
        raise ValueError("f_to_m expects an F-expansion")
    terms: dict[Composition, int] = {}
    for key, coeff in e.terms.items():
        for beta in refinements(key):
            terms[beta] = terms.get(beta, 0) + coeff
    return Expansion("M", e.degree, terms)


def omega_f(e: Expansion) -> Expansion:
    """The involution sending the F-term at alpha to the F-term at the
    complement of the reverse of alpha."""
    if e.basis != "F":
        raise ValueError("omega_f expects an F-expansion")
    return Expansion(
        "F", e.degree, {complement(reverse(key)): c for key, c in e.terms.items()}
    )


def is_fmf(e: Expansion) -> bool:
    """True iff every coefficient is 0 or 1."""
    return all(c == 1 for c in e.terms.values())


def f_component_count(e: Expansion) -> int:
    """Number of keys with nonzero coefficient."""
    return len(e.terms)


def multiplicity_witnesses(
    source: TableauSource, max_tableaux: int | None = None
) -> list[tuple[DescentSet, object, object]]:
    """One witness pair of tableaux for every descent set hit at least
    twice; the empty list is equivalent to the expansion being
    multiplicity-free."""
    if isinstance(source, SkewShape):
        stream = enumerate_syt(source)
        stat = des_p
        what = f"tableaux of shape {source}"
    else:
        source = tuple(source)
        stream = enumerate_sct(source)
        stat = des_c
        what = f"composition tableaux of shape {source}"
    first: dict[DescentSet, object] = {}
    pairs: dict[DescentSet, tuple[object, object]] = {}
    for t in capped(stream, max_tableaux, what):
        d = stat(t)
        if d in pairs:
            continue
        if d in first:
            pairs[d] = (first[d], t)
        else:
            first[d] = t
    return [
        (d, a, b)
        for d, (a, b) in sorted(pairs.items(), key=lambda kv: tuple(kv[0]))
    ]
