"""Compositions, partitions, and descent-set statistics.

A composition is a plain tuple of positive ints; the empty tuple is the
unique composition of 0.  Partitions are compositions with weakly
decreasing parts.  Nothing here is mutable.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

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
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        members = frozenset(members)
        for m in members:
            if not 1 <= m <= degree - 1:
                raise ValueError(f"descent {m} outside 1..{degree - 1}")
        self.degree = degree
        self.members = members

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

    def complement(self) -> "DescentSet":
        return DescentSet(self.degree, frozenset(range(1, self.degree)) - self.members)


def width(alpha: Composition) -> int:
    """Largest part of ``alpha`` (0 for the empty composition)."""
    return max(alpha, default=0)


def descent_set_of(alpha: Composition) -> DescentSet:
    """Partial sums of all but the last part, as a subset of [n-1]."""
    members = []
    total = 0
    for part in alpha[:-1]:
        total += part
        members.append(total)
    return DescentSet(sum(alpha), members)


def composition_of(descents: DescentSet) -> Composition:
    """Inverse of :func:`descent_set_of`."""
    cuts = sorted(descents.members)
    if descents.degree:
        cuts.append(descents.degree)
    parts = []
    prev = 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    return tuple(parts)


def reverse(alpha: Composition) -> Composition:
    return alpha[::-1]


def complement(alpha: Composition) -> Composition:
    """Composition whose descent set is the complement of ``alpha``'s."""
    return composition_of(descent_set_of(alpha).complement())


def refines(alpha: Composition, beta: Composition) -> bool:
    """True iff summing consecutive runs of ``alpha`` yields ``beta``."""
    i = 0
    for target in beta:
        acc = 0
        while acc < target and i < len(alpha):
            acc += alpha[i]
            i += 1
        if acc != target:
            return False
    return i == len(alpha)


def refinements(beta: Composition) -> Iterator[Composition]:
    """All compositions refining ``beta``, deterministically ordered."""
    pools = [list(enumerate_compositions(part)) for part in beta]
    for choice in itertools.product(*pools):
        yield tuple(itertools.chain.from_iterable(choice))


def concat(alpha: Composition, beta: Composition) -> Composition:
    return tuple(alpha) + tuple(beta)


def sort_to_partition(alpha: Composition) -> Partition:
    return tuple(sorted(alpha, reverse=True))


def rearrangements(lam: Partition) -> list[Composition]:
    """All distinct orderings of the parts of ``lam``, sorted lexicographically.

    Knuth's Algorithm L (TAOCP 4A, 7.2.1.2) visits each multiset
    permutation once, in lexicographic order, starting from the sorted one.
    """
    a = sorted(lam)
    n = len(a)
    out = [tuple(a)]
    while True:
        j = n - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return out
        k = n - 1
        while a[k] <= a[j]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1 :] = a[: j : -1]
        out.append(tuple(a))


def conjugate(lam: Partition) -> Partition:
    """Column lengths of the diagram of ``lam``."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def enumerate_compositions(n: int) -> Iterator[Composition]:
    """All compositions of ``n`` in lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in enumerate_compositions(n - first):
            yield (first,) + rest


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of ``n`` in lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def parts(m: int, cap: int) -> Iterator[Partition]:
        if m == 0:
            yield ()
            return
        for first in range(1, min(m, cap) + 1):
            for rest in parts(m - first, first):
                yield (first,) + rest

    yield from parts(n, n)
