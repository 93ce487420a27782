"""Skew diagram geometry.

A skew shape is the cell set of outer/inner in matrix coordinates (row 1 at
the top).  Shapes are stored in basic form: no empty rows or columns, rows
and columns numbered from 1.  Construction canonicalizes, so two
presentations of the same cell set compare equal; this matters because
rotation and disjoint union do not preserve any single (outer, inner)
presentation.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator

from .compositions import Partition


def _check_partition(parts: tuple[int, ...], what: str) -> None:
    if any(p < 1 for p in parts):
        raise ValueError(f"{what} has a part < 1: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"{what} is not weakly decreasing: {parts}")


class SkewShape:
    __slots__ = ("outer", "inner")

    def __init__(self, outer: Iterable[int] = (), inner: Iterable[int] = ()) -> None:
        outer = tuple(outer)
        inner = tuple(inner)
        _check_partition(outer, "outer")
        _check_partition(inner, "inner")
        if len(inner) > len(outer) or any(
            inner[i] > outer[i] for i in range(len(inner))
        ):
            raise ValueError(f"inner {inner} not contained in outer {outer}")
        pad = inner + (0,) * (len(outer) - len(inner))
        # Row i occupies the column interval (a, b]; drop empty rows, then
        # repack the occupied columns densely.
        intervals = [(a, b) for a, b in zip(pad, outer) if a < b]
        occupied = sorted({c for a, b in intervals for c in range(a + 1, b + 1)})
        new_outer = []
        new_inner = []
        for a, b in intervals:
            new_inner.append(bisect_right(occupied, a))
            new_outer.append(bisect_right(occupied, b))
        while new_inner and new_inner[-1] == 0:
            new_inner.pop()
        self.outer = tuple(new_outer)
        self.inner = tuple(new_inner)

    @classmethod
    def from_cells(cls, cells: Iterable[tuple[int, int]]) -> "SkewShape":
        """Build a shape from raw cells, translating to basic form."""
        cells = set(cells)
        if not cells:
            return cls()
        by_row: dict[int, list[int]] = {}
        for r, c in cells:
            by_row.setdefault(r, []).append(c)
        intervals = []
        for r in sorted(by_row):
            cols = sorted(by_row[r])
            if cols != list(range(cols[0], cols[-1] + 1)):
                raise ValueError(f"row {r} is not contiguous: {cols}")
            intervals.append((cols[0] - 1, cols[-1]))
        a_seq = [a for a, _ in intervals]
        b_seq = [b for _, b in intervals]
        if any(a_seq[i] < a_seq[i + 1] for i in range(len(a_seq) - 1)) or any(
            b_seq[i] < b_seq[i + 1] for i in range(len(b_seq) - 1)
        ):
            raise ValueError("cells do not form a skew diagram")
        inner = tuple(a_seq)
        while inner and inner[-1] == 0:
            inner = inner[:-1]
        return cls(tuple(b_seq), inner)

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    @property
    def cells(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (i + 1, j)
            for i, (a, b) in enumerate(self.row_intervals())
            for j in range(a + 1, b + 1)
        )

    def row_intervals(self) -> list[tuple[int, int]]:
        """Per-row occupied column interval (a, b], inner padded with zeros."""
        pad = self.inner + (0,) * (len(self.outer) - len(self.inner))
        return list(zip(pad, self.outer))

    def transpose(self) -> "SkewShape":
        # As a and b weakly decrease, the rows of column j form an interval:
        # below the rows with a >= j, down to the last row with b >= j.  Both
        # counts only grow as j falls, so two pointers find them all.
        ivs = self.row_intervals()
        rows = len(ivs)
        above = last = 0
        cols = []
        for j in range(self.outer[0] if self.outer else 0, 0, -1):
            while above < rows and ivs[above][0] >= j:
                above += 1
            while last < rows and ivs[last][1] >= j:
                last += 1
            cols.append((above, last))
        cols.reverse()
        return _from_intervals(cols)

    def rotate180(self) -> "SkewShape":
        if not self.outer:
            return self
        ncols = self.outer[0]
        return _from_intervals(
            [(ncols - b, ncols - a) for a, b in reversed(self.row_intervals())]
        )

    def row_column_partitions(self) -> tuple[Partition, Partition]:
        """Nonzero row lengths and column lengths, each sorted decreasingly."""
        ivs = self.row_intervals()
        rows = tuple(sorted((b - a for a, b in ivs), reverse=True))
        ncols = self.outer[0] if self.outer else 0
        cols = tuple(
            sorted(
                (sum(1 for a, b in ivs if a < j <= b) for j in range(1, ncols + 1)),
                reverse=True,
            )
        )
        return rows, cols

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SkewShape)
            and self.outer == other.outer
            and self.inner == other.inner
        )

    def __hash__(self) -> int:
        return hash((self.outer, self.inner))

    def __repr__(self) -> str:
        return f"SkewShape({self.outer}, {self.inner})"

    def __str__(self) -> str:
        out = ",".join(map(str, self.outer))
        if not self.inner:
            return out or "()"
        return f"{out}/{','.join(map(str, self.inner))}"


def _from_intervals(ivs: list[tuple[int, int]]) -> SkewShape:
    """The shape with these row intervals (a, b], already in basic form."""
    shape = SkewShape.__new__(SkewShape)
    shape.outer = tuple(b for _, b in ivs)
    shape.inner = tuple(a for a, _ in ivs if a)
    return shape


def disjoint_union(d1: SkewShape, d2: SkewShape) -> SkewShape:
    """Place ``d2`` strictly north-east of ``d1``, sharing no rows or columns."""
    width = d1.outer[0] if d1.outer else 0
    return _from_intervals(
        [(a + width, b + width) for a, b in d2.row_intervals()] + d1.row_intervals()
    )


def enumerate_skew_shapes(n: int) -> Iterator[SkewShape]:
    """All basic-form skew shapes with ``n`` cells, ordered by (outer, inner).

    Shapes are generated as weakly decreasing row intervals (a_i, b_i] with
    no empty column between consecutive rows (a_i <= b_{i+1}) and column 1
    occupied by the last row (a_r = 0).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield SkewShape()
        return
    found: list[SkewShape] = []

    def rec(acc: list[tuple[int, int]], remaining: int) -> None:
        if remaining == 0:
            if acc[-1][0] == 0:
                found.append(_from_intervals(acc))
            return
        if acc:
            prev_a, prev_b = acc[-1]
            b_lo, b_hi = max(1, prev_a), prev_b
            a_cap = prev_a
        else:
            b_lo, b_hi = 1, n
            a_cap = n
        for b in range(b_lo, b_hi + 1):
            for a in range(max(0, b - remaining), min(b - 1, a_cap) + 1):
                acc.append((a, b))
                rec(acc, remaining - (b - a))
                acc.pop()

    rec([], n)
    yield from sorted(found, key=lambda s: (s.outer, s.inner))
