"""Standard Young tableaux on skew shapes and the lattice-filling route to
the Schur-basis expansion of a skew shape."""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .compositions import Composition, DescentSet, Partition, Rows, _instance, _places
from .compositions import _row, _walk, composition_of
from .errors import BudgetExceededError, _budget
from .expansion import Expansion
from .shapes import SkewShape


class SkewTableau:
    """Integer filling of a skew shape; ``rows[i]`` holds only the cells of
    row i+1, left to right."""

    __slots__ = ("shape", "rows")

    def __init__(self, shape: SkewShape, rows: Iterable[Iterable[int]]) -> None:
        ivs = _instance(shape, SkewShape, "a skew shape").row_intervals()
        rows = tuple(map(_row, _instance(rows, Iterable, "an iterable of rows")))
        if len(rows) != len(ivs) or any(
            len(row) != b - a for row, (a, b) in zip(rows, ivs)
        ):
            raise ValueError("rows do not match the shape")
        self.shape = shape
        self.rows = rows

    @classmethod
    def _trusted(cls, shape: SkewShape, rows: Rows) -> "SkewTableau":
        """Wrap rows that already fit ``shape``, a tuple of tuples as the
        tableau walk yields them, without copying or re-checking them."""
        obj = cls.__new__(cls)
        obj.shape = shape
        obj.rows = rows
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
        """Each row as a list, padded with one ``None`` per empty cell left
        of it.  The row starts weakly decrease, so when the top row starts
        in column 1 the shape is straight and no row is padded."""
        ivs = self.shape.row_intervals()
        if not ivs or not ivs[0][0]:
            return list(map(list, self.rows))
        return [[None] * a + list(row) for row, (a, _) in zip(self.rows, ivs)]


def _cell_values(t: SkewTableau) -> dict[tuple[int, int], int]:
    out = {}
    for i, (row, (a, _)) in enumerate(zip(t.rows, t.shape.row_intervals()), start=1):
        for k, v in enumerate(row):
            out[(i, a + 1 + k)] = v
    return out


def is_semistandard(t: SkewTableau) -> bool:
    """Rows weakly increase left to right, columns strictly increase downward.
    Anything but a :class:`SkewTableau` raises :class:`ValueError`."""
    vals = _cell_values(_instance(t, SkewTableau, "a skew tableau"))
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
    """Semistandard with entries exactly 1..n.  Anything but a
    :class:`SkewTableau` raises :class:`ValueError`."""
    rows = _instance(t, SkewTableau, "a skew tableau").rows
    try:
        _places(rows)
    except ValueError:  # the entries are not 1..n, each once
        return False
    return is_semistandard(t)


def _syt_walk(shape: SkewShape) -> Iterator[tuple[int, Rows]]:
    """Depth-first walk over the standard fillings of ``shape``, in the
    order of :func:`enumerate_syt`, through :func:`compositions._walk`:
    each filling's descent mask and its rows, which fill left to right.
    Entry i is a descent when i + 1 is placed in a lower row.

    A state is the column of the next cell of each row.  Its moves are the
    cells free for the next entry, top row first, keyed by their row.  Row
    i's next cell is free when it lies in the row, and right of the last
    cell of the row above or left of that row's next cell; the top row has
    none above.
    """
    ivs = shape.row_intervals()
    r = len(ivs)
    ends = [b for _, b in ivs]
    above = [-1] + ends[:-1]

    def moves_of(ptr: tuple[int, ...]) -> list:
        out = []
        for i in range(r):
            p = ptr[i]
            if p <= ends[i] and (p > above[i] or p < ptr[i - 1]):
                out.append((i, i, i + 1, ptr[:i] + (p + 1,) + ptr[i + 1 :]))
        return out

    start = tuple(a + 1 for a, _ in ivs)
    return _walk(start, shape.size, r, moves_of, right_to_left=False)


def enumerate_syt(shape: SkewShape) -> Iterator[SkewTableau]:
    """All standard Young tableaux of ``shape``, deterministically ordered.

    Entries 1..n are placed in increasing order; the cells available for the
    next entry are those with no unfilled cell above or to the left, tried
    top row first.  The tableaux share the walk's rows, which never change.
    Anything but a :class:`SkewShape` raises :class:`ValueError` at the
    call, not at the first step of the iterator.
    """
    shape = _instance(shape, SkewShape, "a skew shape")
    trusted = SkewTableau._trusted
    return (trusted(shape, rows) for _, rows in _syt_walk(shape))


def des_p(t: SkewTableau) -> DescentSet:
    """Entries i such that i+1 sits in a strictly lower row than i.  Anything
    but a :class:`SkewTableau`, or entries that are not 1..n, each once,
    raise :class:`ValueError`."""
    places = _places(_instance(t, SkewTableau, "a skew tableau").rows)
    n = len(places) - 1
    return DescentSet(n, [i for i in range(1, n) if places[i + 1][0] > places[i][0]])


def com_p(t: SkewTableau) -> Composition:
    return composition_of(des_p(t))


def lr_expansion(shape: SkewShape, max_fillings: int | None = None) -> Expansion:
    """Schur-basis expansion of the skew shape: the coefficient of a
    partition ``lam`` counts the lattice semistandard fillings of content
    ``lam``.  Fillings are enumerated cell by cell in reverse reading order
    with the lattice condition checked incrementally.  Anything but a
    :class:`SkewShape`, or a budget that is not None or an int of at least
    1, raises :class:`ValueError`."""
    ivs = _instance(shape, SkewShape, "a skew shape").row_intervals()
    max_fillings = _budget(max_fillings)
    n = shape.size
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

    # One frame per cell opened, in order, on a stack of its own, so that a
    # row of 3,000 cells needs no recursion: the cell and the values left to
    # try there.  The value in place is in ``vals``.
    stack: list = []
    while True:
        if len(stack) == len(order):
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
        else:
            i, j = cell = order[len(stack)]
            hi = min(i, vals[(i, j + 1)]) if in_shape(i, j + 1) else i
            lo = vals[(i - 1, j)] + 1 if in_shape(i - 1, j) else 1
            stack.append((cell, iter(range(lo, hi + 1))))
        # Move the last cell opened to its next value that keeps the filling
        # a lattice word, closing each cell that has none left.
        while stack:
            cell, values = stack[-1]
            if cell in vals:
                counts[vals.pop(cell)] -= 1
            for v in values:
                if v == 1 or counts[v - 1] > counts[v]:
                    vals[cell] = v
                    counts[v] += 1
                    break
            else:
                stack.pop()
                continue
            break
        else:
            return Expansion("schur", n, result)
