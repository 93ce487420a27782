"""Skew diagram geometry.

A skew shape is the cell set of outer/inner in matrix coordinates (row 1 at
the top).  Shapes are stored in basic form, as their row intervals: row i
occupies the columns (a_i, b_i], top row first, with no empty rows or
columns and rows and columns numbered from 1.  Every computation reads a
shape this way: the expansion engine's states, the tableau walks, lattice
fillings, the skew predicate, transpose and rotation.  Construction
canonicalizes, so two presentations of the same cell set compare equal;
this matters because rotation and disjoint union do not preserve any single
(outer, inner) presentation, which ``outer`` and ``inner`` read back off the
intervals.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

from .compositions import Partition, _cell, _check_degree, _instance, _partition

Intervals = tuple[tuple[int, int], ...]
_Pairs = list[tuple[tuple[int, ...], Intervals]]  # (ends, rows), as sorted


def _basic(ivs: list[tuple[int, int]]) -> Intervals:
    """Basic form of nonempty rows (a, b], top row first, with a and b
    weakly decreasing.  The empty columns are those left of the last row and
    the columns (b_{i+1}, a_i] between two rows that share no column; each
    row moves left past the empty columns at or below it."""
    out = []
    shift = floor = 0  # floor: the end of the row below
    for a, b in reversed(ivs):
        if a > floor:
            shift += a - floor
        out.append((a - shift, b - shift))
        floor = b
    return tuple(reversed(out))


def _row_lengths(ivs: Intervals) -> Partition:
    return tuple(sorted((b - a for a, b in ivs), reverse=True))


class SkewShape:
    __slots__ = ("_ivs",)

    def __init__(self, outer: Iterable[int] = (), inner: Iterable[int] = ()) -> None:
        outer = _partition(outer, "outer")
        inner = _partition(inner, "inner")
        if len(inner) > len(outer) or any(
            inner[i] > outer[i] for i in range(len(inner))
        ):
            raise ValueError(f"inner {inner} not contained in outer {outer}")
        pad = inner + (0,) * (len(outer) - len(inner))
        self._ivs = _basic([(a, b) for a, b in zip(pad, outer) if a < b])

    @classmethod
    def from_cells(cls, cells: Iterable[tuple[int, int]]) -> "SkewShape":
        """Build a shape from raw cells, each a pair of ints (row, column),
        translating to basic form."""
        by_row: dict[int, list[int]] = {}
        for r, c in set(map(_cell, _instance(cells, Iterable, "an iterable of cells"))):
            by_row.setdefault(r, []).append(c)
        intervals = []
        for r in sorted(by_row):
            cols = sorted(by_row[r])
            if cols != list(range(cols[0], cols[-1] + 1)):
                raise ValueError(f"row {r} is not contiguous: {cols}")
            intervals.append((cols[0] - 1, cols[-1]))
        if any(a < c or b < d for (a, b), (c, d) in zip(intervals, intervals[1:])):
            raise ValueError("cells do not form a skew diagram")
        if intervals and intervals[-1][0] < 0:
            # A cell in column 0 or left of it: name the part below 1.
            _partition([b for _, b in intervals], "outer")
            _partition([a for a, _ in intervals], "inner")
        return _from_intervals(_basic(intervals))

    @property
    def outer(self) -> Partition:
        return tuple(b for _, b in self._ivs)

    @property
    def inner(self) -> Partition:
        # The last row starts in column 1, so the nonzero starts are a prefix.
        return tuple(a for a, _ in self._ivs if a)

    @property
    def size(self) -> int:
        return sum(b - a for a, b in self._ivs)

    @property
    def cells(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (i + 1, j)
            for i, (a, b) in enumerate(self._ivs)
            for j in range(a + 1, b + 1)
        )

    def row_intervals(self) -> Intervals:
        """Per-row occupied column interval (a, b], top row first."""
        return self._ivs

    def transpose(self) -> "SkewShape":
        # As a and b weakly decrease, the rows of column j form an interval:
        # below the rows with a >= j, down to the last row with b >= j.  Both
        # counts only grow as j falls, so two pointers find them all.
        ivs = self._ivs
        rows = len(ivs)
        above = last = 0
        cols = []
        for j in range(ivs[0][1] if ivs else 0, 0, -1):
            while above < rows and ivs[above][0] >= j:
                above += 1
            while last < rows and ivs[last][1] >= j:
                last += 1
            cols.append((above, last))
        return _from_intervals(tuple(reversed(cols)))

    def rotate180(self) -> "SkewShape":
        if not self._ivs:
            return self
        ncols = self._ivs[0][1]
        return _from_intervals(
            tuple((ncols - b, ncols - a) for a, b in reversed(self._ivs))
        )

    def row_column_partitions(self) -> tuple[Partition, Partition]:
        """Nonzero row lengths and column lengths, each sorted decreasingly."""
        return _row_lengths(self._ivs), _row_lengths(self.transpose()._ivs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SkewShape) and self._ivs == other._ivs

    def __hash__(self) -> int:
        return hash(self._ivs)

    def __repr__(self) -> str:
        return f"SkewShape({self.outer}, {self.inner})"

    def __str__(self) -> str:
        out = ",".join(map(str, self.outer))
        inner = self.inner
        if not inner:
            return out or "()"
        return f"{out}/{','.join(map(str, inner))}"


def _from_intervals(ivs: Intervals) -> SkewShape:
    """The shape with these row intervals (a, b], already in basic form."""
    shape = SkewShape.__new__(SkewShape)
    shape._ivs = ivs
    return shape


def disjoint_union(d1: SkewShape, d2: SkewShape) -> SkewShape:
    """Place ``d2`` strictly north-east of ``d1``, sharing no rows or columns.
    Anything but two :class:`SkewShape` objects raises :class:`ValueError`."""
    below = _instance(d1, SkewShape, "a skew shape").row_intervals()
    above = _instance(d2, SkewShape, "a skew shape").row_intervals()
    width = below[0][1] if below else 0
    return _from_intervals(tuple((a + width, b + width) for a, b in above) + below)


def enumerate_skew_shapes(n: int) -> Iterator[SkewShape]:
    """All basic-form skew shapes with ``n`` cells, ordered by (outer, inner).

    Shapes are generated as weakly decreasing row intervals (a_i, b_i] with
    no empty column between consecutive rows (a_i <= b_{i+1}) and column 1
    occupied by the last row (a_r = 0).  The rows from row i down cover
    columns 1..b_i, so b_i is at most the cells left for them, and a last
    row holds all the cells left, so it starts at 0.

    The rows under a row (a, b] with r cells left depend only on (a, b, r).
    So for each r <= n // 2 the (ends, rows) suffixes that fill r cells are
    built once per call, each from the lists of smaller r, and listed under
    every row (a, b] with a <= b <= r that they may follow (no row under it
    ends past r).  A prefix that leaves at most n // 2 cells is completed by
    concatenating it with each suffix of its list, with no recursion under
    it.  The cap is read off n, so the lists stay small next to the shapes
    they complete: at n = 12, 400 suffixes listed 2,548 times, where a cap
    of n would build every shape of at most 12 cells as a suffix and list
    them 4,552,796 times.

    The shapes are sorted as (ends, rows) pairs: the ends are the outer,
    and where the ends are equal, so is every b, so the rows compare as
    their starts, which are the inner padded with 0s.  So tuple order on
    the pairs is (outer, inner).  The end b_1 of the first row leads, so
    the pairs are built, sorted and yielded one b_1 at a time, b_1 = 1,
    ..., n; only the pairs of one b_1 are held at once.  Each suffix list
    is sorted, so a completed prefix adds a sorted run.  Each row is a
    shared ``(a, b)`` tuple from a table built once per call, and the pairs
    of one b_1 share their equal ends, so a shape holds only its tuple of
    rows.  ``n`` that is not a nonnegative int raises :class:`ValueError`
    at the call, not at the first step of the iterator.
    """
    _check_degree(n)
    return _skew_shapes(n)


def _skew_shapes(n: int) -> Iterator[SkewShape]:
    if n == 0:
        yield SkewShape()
        return
    ending = [[(a, b) for a in range(b)] for b in range(n + 1)]  # (a, b] at [b][a]
    cap = n // 2
    # below[r][b][a]: the sorted suffixes that put r <= cap cells under a
    # row (a, b], for a <= b <= r.  No cells are put by the empty suffix.
    below: list[list[list[_Pairs]]] = [[[[((), ())]]]]
    outers: dict[tuple[int, ...], tuple[int, ...]] = {}  # of one b_1
    shared = outers.setdefault

    def under(start: int, top: int, r: int) -> list[tuple[int, int]]:
        """The rows (a, b] that may follow a row (start, top] with r cells
        left: no empty column between the two (b >= start), a and b weakly
        decrease, and b <= r."""
        return [
            ending[b][a]
            for b in range(max(1, start), min(top, r) + 1)
            for a in range(min(b - 1, start) + 1)
        ]

    def place(
        out: _Pairs, ends: tuple[int, ...], rows: Intervals, left: int
    ) -> None:
        """Append to ``out`` each shape whose first rows are ``rows``,
        which leave ``left`` cells."""
        a, b = rows[-1]
        if left > cap:
            for row in under(a, b, left):
                place(out, ends + (row[1],), rows + (row,), left - row[1] + row[0])
            return
        # The rows so far took at most the cells they had, so a <= left.
        out += [
            (shared(outer, outer), rows + tail)
            for tail_ends, tail in below[left][min(b, left)][a]
            for outer in (ends + tail_ends,)
        ]

    for r in range(1, cap + 1):
        starting: dict[tuple[int, int], _Pairs] = {}  # by their first row
        for b in range(1, r + 1):
            for row in ending[b]:
                place(starting.setdefault(row, []), (b,), (row,), r - b + row[0])
        below.append(
            [
                [
                    sorted(chain.from_iterable(map(starting.get, under(a, b, r))))
                    for a in range(b + 1)
                ]
                for b in range(r + 1)
            ]
        )

    found: _Pairs = []
    for first in range(1, n + 1):
        outers.clear()
        for row in ending[first]:
            place(found, (first,), (row,), n - first + row[0])
        found.sort()
        for _, rows in found:
            yield _from_intervals(rows)
        found.clear()
