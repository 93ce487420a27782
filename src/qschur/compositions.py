"""Compositions, partitions, and descent-set statistics.

A composition is a plain tuple of positive ints; the empty tuple is the
unique composition of 0.  Partitions are compositions with weakly
decreasing parts.  Nothing here is mutable.

A descent set of degree n is also coded as a bitmask, bit t set = descent
at t + 1, which is what the expansion engines work on.  That codec,
``_descent_mask`` and ``_composition_of_mask``, is the only one: the
descent-set functions here are built on it.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache

Composition = tuple[int, ...]
Partition = tuple[int, ...]


class DescentSet:
    """A subset of {1, ..., n-1} tagged with its degree n.

    Subsets of [n-1] are in bijection with compositions of n via partial
    sums; the degree is part of the value because the bare subset does not
    determine the composition.
    """

    __slots__ = ("degree", "members")

    def __init__(self, degree: int, members: Iterable[int] = ()) -> None:
        if type(degree) is not int or degree < 0:
            raise ValueError(f"degree must be nonnegative, and an int: {degree!r}")
        members = tuple(_instance(members, Iterable, "an iterable of descents"))
        for m in members:
            if not (type(m) is int and 1 <= m <= degree - 1):
                raise ValueError(f"descent {m!r} is not an int in 1..{degree - 1}")
        self.degree = degree
        self.members = frozenset(members)

    @classmethod
    def _trusted(cls, degree: int, members: Iterable[int]) -> "DescentSet":
        """The descent set of these members, known to lie in 1..degree - 1,
        without re-checking them."""
        obj = cls.__new__(cls)
        obj.degree = degree
        obj.members = frozenset(members)
        return obj

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DescentSet)
            and self.degree == other.degree
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.members))

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))

    def __contains__(self, m: int) -> bool:
        return m in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"DescentSet({self.degree}, {sorted(self.members)})"


# Bounded: repeated expansions decode the same keys, but one M-expansion of
# degree n decodes up to 2^(n - 1) of them, which an unbounded cache would
# keep for the life of the process.
@lru_cache(maxsize=2**16)
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


def _descent_mask(alpha: Composition) -> int:
    """Descent bitmask of a composition: bit t is set when a part ends at
    t + 1 before the last part."""
    mask = total = 0
    for part in alpha[:-1]:
        total += part
        mask |= 1 << (total - 1)
    return mask


Rows = tuple[tuple[int, ...], ...]


def _walk(
    start, n: int, r: int, moves_of: Callable[..., list], right_to_left: bool
) -> Iterator[tuple[int, Rows]]:
    """Depth-first walk over the standard fillings of a shape of ``n`` cells
    in ``r`` rows, from its state ``start``.  ``moves_of`` lists a state's
    moves in walk order, each as (row, key, threshold, child): the next
    entry goes to that row, the child is the state left, and the entry is a
    descent when the entry after it has a key at least its threshold.

    Yields each filling's descent mask (bit t set = descent at t + 1) and
    its rows, a tuple of tuples that never changes: an entry joins its row
    at the end, or at the start when the rows fill ``right_to_left``, and
    the row is restored on backtrack, so the fillings share their unchanged
    rows.  Each state's moves are listed once per walk; a state with two
    cells left stores the one move of each child in place of the child, so
    the last entry is placed with no state of its own.
    """
    if n < 2:
        yield 0, ((1,),) * n
        return
    listed: dict = {}

    def moves(state, left: int) -> list:
        out = moves_of(state)
        if left == 2:
            out = [(i, key, t, moves_of(child)[0]) for i, key, t, child in out]
        listed[state] = out
        return out

    rows: list[tuple[int, ...]] = [()] * r
    # Frame e, for e = 0, ..., n - 2 entries placed: the moves left to try
    # for entry e + 1, the threshold of entry e, the descent mask of entries
    # 1..e, and the row of entry e with its value before it (none in frame 0).
    stack = [(iter(moves(start, n)), 0, 0, 0, ())]
    while True:
        it, t, mask, _, _ = stack[-1]
        e = len(stack) - 1
        bit = 1 << e >> 1  # a descent at e, bit e - 1
        for i, key, t_next, child in it:
            m = mask | bit if key >= t else mask
            row = rows[i]
            rows[i] = (e + 1,) + row if right_to_left else row + (e + 1,)
            if e + 2 == n:
                # The last entry goes to the one cell left.
                j, k, _, _ = child
                last = rows[j]
                rows[j] = (n,) + last if right_to_left else last + (n,)
                yield (m | 1 << e if k >= t_next else m), tuple(rows)
                rows[j] = last
                rows[i] = row
                continue
            child_moves = listed.get(child) or moves(child, n - e - 1)
            stack.append((iter(child_moves), t_next, m, i, row))
            break
        else:
            if e == 0:
                return
            _, _, _, i, row = stack.pop()
            rows[i] = row


def _mask_members(n: int, mask: int) -> list[int]:
    """The descents, ascending, of the degree-``n`` bitmask ``mask``."""
    return [t + 1 for t in range(n - 1) if mask >> t & 1]


def _descent_set_of_mask(n: int, mask: int) -> DescentSet:
    """The descent set of degree ``n`` whose bitmask is ``mask``."""
    return DescentSet._trusted(n, _mask_members(n, mask))


def descent_set_of(alpha: Composition) -> DescentSet:
    """Partial sums of all but the last part, as a subset of [n-1].  A part
    below 1 raises :class:`ValueError`."""
    alpha = _composition(alpha)
    return _descent_set_of_mask(sum(alpha), _descent_mask(alpha))


def composition_of(descents: DescentSet) -> Composition:
    """Inverse of :func:`descent_set_of`.  Anything but a
    :class:`DescentSet` raises :class:`ValueError`."""
    descents = _instance(descents, DescentSet, "a descent set")
    mask = sum(1 << (m - 1) for m in descents.members)
    return _composition_of_mask(mask | 1 << descents.degree >> 1)


def reverse(alpha: Composition) -> Composition:
    """The parts of ``alpha`` in reverse order.  A part below 1 raises
    :class:`ValueError`."""
    return _composition(alpha)[::-1]


def complement(alpha: Composition) -> Composition:
    """Composition whose descent set is the complement of ``alpha``'s.  A
    part below 1 raises :class:`ValueError`."""
    alpha = _composition(alpha)
    if not alpha:
        # Degree 0 has no descent positions, and no top bit to carry.
        return ()
    top = 1 << sum(alpha) >> 1
    return _composition_of_mask((top - 1) ^ _descent_mask(alpha) | top)


def refinements(beta: Composition) -> Iterator[Composition]:
    """All compositions refining ``beta``, deterministically ordered.  A
    part below 1 raises :class:`ValueError` at the call, not at the first
    step of the iterator."""
    pools = [list(_compositions(part)) for part in _composition(beta)]
    return (
        tuple(itertools.chain.from_iterable(choice))
        for choice in itertools.product(*pools)
    )


def _rearranged(lam: Composition) -> Iterator[Composition]:
    """The distinct orderings of the parts of ``lam``, unchecked, one at a
    time in lexicographic order, so that a caller may stop at any of them.

    Knuth's Algorithm L (TAOCP 4A, 7.2.1.2) visits each multiset
    permutation once, in lexicographic order, starting from the sorted one.
    """
    a = sorted(lam)
    n = len(a)
    yield tuple(a)
    while True:
        j = n - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = n - 1
        while a[k] <= a[j]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1 :] = a[: j : -1]
        yield tuple(a)


def rearrangements(lam: Partition) -> list[Composition]:
    """All distinct orderings of the parts of ``lam``, sorted
    lexicographically: the list of :func:`_rearranged`.  A part below 1
    raises :class:`ValueError`."""
    return list(_rearranged(_composition(lam)))


# The input rules of every public callable: each helper returns the value it
# checked, and code past it trusts that value.  A part is a plain int, so a
# bool is none, nor is 2.0.
def _instance(obj, cls: type, what: str):
    """``obj``, checked to be a ``cls``, which ``what`` names."""
    if not isinstance(obj, cls):
        raise ValueError(f"not {what}: {obj!r}")
    return obj


def _composition(x: Iterable[int]) -> Composition:
    """``x`` as a tuple, checked to be a composition: ints of at least 1."""
    parts = x if type(x) is tuple else tuple(_instance(x, Iterable, "a composition"))
    if not all(type(p) is int and p >= 1 for p in parts):
        raise ValueError(f"not a composition: {parts}")
    return parts


def _partition(x: Iterable[int], what: str = "partition") -> Partition:
    """``x`` as a tuple, checked to be a partition: weakly decreasing ints
    of at least 1.  ``what`` names it in the error."""
    iterable = x if type(x) is tuple else _instance(x, Iterable, f"an iterable {what}")
    parts = tuple(iterable)
    if not all(type(p) is int for p in parts):
        raise ValueError(f"{what} has a part that is not an int: {parts}")
    if parts and min(parts) < 1:
        raise ValueError(f"{what} has a part < 1: {parts}")
    if parts != tuple(sorted(parts, reverse=True)):
        raise ValueError(f"{what} is not weakly decreasing: {parts}")
    return parts


def _row(x: Iterable[int], what: str = "a row of entries") -> tuple[int, ...]:
    """``x`` as a tuple, checked to be plain ints, of any sign: a row of
    tableau entries, since a semistandard test reads any filling, or the
    key of a term or a cell, which ``what`` names."""
    row = x if type(x) is tuple else tuple(_instance(x, Iterable, what))
    if not all(type(v) is int for v in row):
        raise ValueError(f"{what} has an entry that is not an int: {row}")
    return row


def _pair(x: Iterable, what: str) -> tuple:
    """``x`` as a tuple, checked to be a pair, which ``what`` names: a term
    of an expansion, or a cell."""
    pair = x if type(x) is tuple else tuple(_instance(x, Iterable, what))
    if len(pair) != 2:
        raise ValueError(f"{what} is not a pair: {pair}")
    return pair


def _cell(x: Iterable[int]) -> tuple[int, int]:
    """``x`` as a tuple, checked to be a cell: a pair of plain ints."""
    return _row(_pair(x, "a cell"), "a cell")


def _places(rows: tuple[tuple[int, ...], ...]) -> list:
    """Where each entry of ``rows`` sits, checked to be a standard filling:
    ``places[v]`` is (row, column) of entry v, from 0 and from 1 in its row,
    for v in 1..n.  Entries that are not 1..n, each once, raise
    :class:`ValueError`."""
    n = sum(map(len, rows))
    places: list = [None] * (n + 1)
    for r, row in enumerate(rows):
        for c, v in enumerate(row, start=1):
            if not 1 <= v <= n or places[v]:
                raise ValueError("entries must be 1..n, each once")
            places[v] = (r, c)
    return places


def conjugate(lam: Partition) -> Partition:
    """Column lengths of the diagram of ``lam``.  A part below 1 or an
    increasing pair of parts raises :class:`ValueError`."""
    lam = _partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def _check_degree(n: int) -> None:
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be a nonnegative integer: {n!r}")


def enumerate_compositions(n: int) -> Iterator[Composition]:
    """All compositions of ``n`` in lexicographic order: from (1, ..., 1),
    each is followed by its successor (..., x, y) -> (..., x + 1, 1, ..., 1),
    with y - 1 trailing 1s, until a single part is left.  ``n`` that is not
    a nonnegative int raises :class:`ValueError` at the call."""
    _check_degree(n)
    return _compositions(n)


def _compositions(n: int) -> Iterator[Composition]:
    alpha = [1] * n
    yield tuple(alpha)
    while len(alpha) > 1:
        y = alpha.pop()
        alpha[-1] += 1
        alpha += [1] * (y - 1)
        yield tuple(alpha)


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of ``n`` in lexicographic order.  ``n`` that is not a
    nonnegative int raises :class:`ValueError` at the call."""
    _check_degree(n)

    def parts(m: int, cap: int) -> Iterator[Partition]:
        if m == 0:
            yield ()
            return
        for first in range(1, min(m, cap) + 1):
            for rest in parts(m - first, first):
                yield (first,) + rest

    return parts(n, n)
