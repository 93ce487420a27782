"""Standard Young tableaux on skew shapes and the lattice-filling route to
the Schur-basis expansion of a skew shape."""

from __future__ import annotations

from typing import Iterable, Iterator

from .compositions import Composition, DescentSet, Partition, composition_of
from .errors import BudgetExceededError
from .expansion import Expansion
from .shapes import SkewShape


class SkewTableau:
    """Integer filling of a skew shape; ``rows[i]`` holds only the cells of
    row i+1, left to right."""

    __slots__ = ("shape", "rows")

    def __init__(self, shape: SkewShape, rows: Iterable[Iterable[int]]) -> None:
        rows = tuple(tuple(r) for r in rows)
        ivs = shape.row_intervals()
        if len(rows) != len(ivs) or any(
            len(row) != b - a for row, (a, b) in zip(rows, ivs)
        ):
            raise ValueError("rows do not match the shape")
        self.shape = shape
        self.rows = rows

    @classmethod
    def _trusted(cls, shape: SkewShape, rows: list[list[int]]) -> "SkewTableau":
        """Snapshot rows that already fit ``shape``, as the tableau walks
        produce them, without re-checking them."""
        obj = cls.__new__(cls)
        obj.shape = shape
        obj.rows = tuple(map(tuple, rows))
        return obj

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SkewTableau)
            and self.shape == other.shape
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.rows))

    def __repr__(self) -> str:
        return f"SkewTableau({self.shape!r}, {self.rows})"

    def to_text(self) -> str:
        ivs = self.shape.row_intervals()
        return "\n".join(
            " ".join(["·"] * a + [str(v) for v in row])
            for row, (a, _) in zip(self.rows, ivs)
        )

    def to_json_obj(self) -> list[list[int | None]]:
        ivs = self.shape.row_intervals()
        return [[None] * a + list(row) for row, (a, _) in zip(self.rows, ivs)]


def _cell_values(t: SkewTableau) -> dict[tuple[int, int], int]:
    out = {}
    for i, (row, (a, _)) in enumerate(zip(t.rows, t.shape.row_intervals()), start=1):
        for k, v in enumerate(row):
            out[(i, a + 1 + k)] = v
    return out


def is_semistandard(t: SkewTableau) -> bool:
    """Rows weakly increase left to right, columns strictly increase downward."""
    vals = _cell_values(t)
    for (i, j), v in vals.items():
        if v < 1:
            return False
        right = vals.get((i, j + 1))
        if right is not None and right < v:
            return False
        below = vals.get((i + 1, j))
        if below is not None and below <= v:
            return False
    return True


def is_standard(t: SkewTableau) -> bool:
    """Semistandard with entries exactly 1..n."""
    entries = [v for row in t.rows for v in row]
    return sorted(entries) == list(range(1, len(entries) + 1)) and is_semistandard(t)


def _syt_walk(shape: SkewShape) -> Iterator[tuple[int, list[list[int]]]]:
    """Depth-first walk over the standard fillings of ``shape``, in the
    order of :func:`enumerate_syt`.  Yields each filling's descent mask (bit
    t set = descent at t + 1) and the live rows, which the walk overwrites.
    Entry i is a descent when i + 1 is placed in a lower row.
    """
    ivs = shape.row_intervals()
    n = shape.size
    rows = [[0] * (b - a) for a, b in ivs]
    if n == 0:
        yield 0, rows
        return
    r = len(ivs)
    ptr = [a + 1 for a, _ in ivs]  # column of the next cell of each row
    ends = [b for _, b in ivs]
    # Row i's next cell is free of the row above when it lies right of that
    # row's last cell, or left of its next cell; the top row has none above.
    above = [-1] + ends[:-1]
    placed: list[int] = []  # row of each entry but the last
    masks = [0]  # descent mask of the first k entries
    i = 0
    while True:
        while i < r:
            p = ptr[i]
            if p <= ends[i] and (p > above[i] or p < ptr[i - 1]):
                break
            i += 1
        else:
            if not placed:
                return
            i = placed.pop()
            masks.pop()
            ptr[i] -= 1
            i += 1
            continue
        e = len(placed)  # entries placed so far
        rows[i][p - ivs[i][0] - 1] = e + 1
        m = masks[-1]
        if e and i > placed[-1]:
            m |= 1 << (e - 1)
        if e + 1 == n:
            yield m, rows
            i += 1
            continue
        ptr[i] = p + 1
        placed.append(i)
        masks.append(m)
        i = 0


def enumerate_syt(shape: SkewShape) -> Iterator[SkewTableau]:
    """All standard Young tableaux of ``shape``, deterministically ordered.

    Entries 1..n are placed in increasing order; the cells available for the
    next entry are those with no unfilled cell above or to the left, tried
    top row first.
    """
    for _, rows in _syt_walk(shape):
        yield SkewTableau._trusted(shape, rows)


def des_p(t: SkewTableau) -> DescentSet:
    """Entries i such that i+1 sits in a strictly lower row than i."""
    n = t.shape.size
    row_of = [0] * (n + 1)
    for i, row in enumerate(t.rows, start=1):
        for v in row:
            if not 1 <= v <= n or row_of[v]:
                raise ValueError("entries must be 1..n, each once")
            row_of[v] = i
    return DescentSet(n, [i for i in range(1, n) if row_of[i + 1] > row_of[i]])


def com_p(t: SkewTableau) -> Composition:
    return composition_of(des_p(t))


def lr_expansion(shape: SkewShape, max_fillings: int | None = None) -> Expansion:
    """Schur-basis expansion of the skew shape: the coefficient of a
    partition ``lam`` counts the lattice semistandard fillings of content
    ``lam``.  Fillings are enumerated cell by cell in reverse reading order
    with the lattice condition checked incrementally."""
    n = shape.size
    ivs = shape.row_intervals()
    order: list[tuple[int, int]] = []
    for i, (a, b) in enumerate(ivs, start=1):
        order.extend((i, j) for j in range(b, a, -1))
    vals: dict[tuple[int, int], int] = {}
    counts = [0] * (len(ivs) + 2)
    result: dict[Partition, int] = {}
    seen = 0

    def in_shape(i: int, j: int) -> bool:
        if not 1 <= i <= len(ivs):
            return False
        a, b = ivs[i - 1]
        return a < j <= b

    def rec(idx: int) -> None:
        nonlocal seen
        if idx == len(order):
            seen += 1
            if max_fillings is not None and seen > max_fillings:
                raise BudgetExceededError(
                    f"lattice fillings of shape {shape}", max_fillings
                )
            lam = []
            for v in range(1, len(ivs) + 1):
                if counts[v] == 0:
                    break
                lam.append(counts[v])
            key = tuple(lam)
            result[key] = result.get(key, 0) + 1
            return
        i, j = order[idx]
        hi = i
        if in_shape(i, j + 1):
            hi = min(hi, vals[(i, j + 1)])
        lo = vals[(i - 1, j)] + 1 if in_shape(i - 1, j) else 1
        for v in range(lo, hi + 1):
            if v == 1 or counts[v - 1] > counts[v]:
                vals[(i, j)] = v
                counts[v] += 1
                rec(idx + 1)
                counts[v] -= 1
        vals.pop((i, j), None)

    rec(0)
    return Expansion("schur", n, result)
