"""Standard composition tableaux via cover chains on compositions.

The partial order on compositions is generated by two cover moves: prepend
a new part of size 1, or add 1 to the first (topmost) part of a given size.
A standard composition tableau (SCT) of shape alpha records a saturated
chain from the empty composition up to alpha: walking the chain downward
from alpha removes the cells containing 1, 2, ..., n in that order.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .compositions import Composition, DescentSet, Rows, _composition, _instance
from .compositions import _places, _row, _walk, composition_of


class CompositionTableau:
    """Left-justified rows of integer entries on a composition diagram."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]) -> None:
        rows = tuple(map(_row, _instance(rows, Iterable, "an iterable of rows")))
        if any(not r for r in rows):
            raise ValueError("rows must be nonempty")
        self.rows = rows

    @classmethod
    def _trusted(cls, rows: Rows) -> "CompositionTableau":
        """Wrap nonempty rows, a tuple of tuples as the tableau walk yields
        them, without copying or re-checking them."""
        obj = cls.__new__(cls)
        obj.rows = rows
        return obj

    @property
    def shape(self) -> Composition:
        return tuple(len(r) for r in self.rows)

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CompositionTableau) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"CompositionTableau({self.rows})"

    def to_text(self) -> str:
        return "\n".join(" ".join(map(str, row)) for row in self.rows)

    def to_json_obj(self) -> list[list[int]]:
        return list(map(list, self.rows))


def _covers_up(beta: Composition) -> list[Composition]:
    """:func:`covers_up` on a composition, unchecked."""
    out = [(1,) + beta]
    seen: set[int] = set()
    for i, part in enumerate(beta):
        if part not in seen:
            seen.add(part)
            out.append(beta[:i] + (part + 1,) + beta[i + 1 :])
    return out


def covers_up(beta: Composition) -> list[Composition]:
    """All compositions covering ``beta``: the prepend, then one increment
    per distinct part value (applied to its first occurrence).  A part
    below 1 raises :class:`ValueError`."""
    return _covers_up(_composition(beta))


def _down_moves(alpha: Composition) -> list[tuple[int, Composition, int]]:
    """Inverse cover moves of the nonempty composition ``alpha``, as the
    qsym engine takes them: (column, child, column), where the column is
    that of the removed cell and the child the smaller shape.  Entry 1 is a
    descent when entry 2 sits weakly right of it, in a column at least the
    first one's, which is the engine's threshold.

    Deleting the leading part needs that part to be 1; decrementing part i
    needs no earlier part of size alpha_i - 1, otherwise the inverse of the
    "first part of its size" rule would pick the earlier position.  The
    sizes of the earlier parts are kept in a set as the parts are read.
    """
    moves = [(1, alpha[1:], 1)] if alpha[0] == 1 else []
    seen: set[int] = set()
    for i, part in enumerate(alpha):
        if part >= 2 and part - 1 not in seen:
            moves.append((part, alpha[:i] + (part - 1,) + alpha[i + 1 :], part))
        seen.add(part)
    return moves


def covers_down(alpha: Composition) -> list[Composition]:
    """All compositions covered by ``alpha`` (delete-leading-1 first, then
    decrements by ascending row index).  A part below 1 raises
    :class:`ValueError`."""
    alpha = _composition(alpha)
    if not alpha:
        raise ValueError("the empty composition covers nothing")
    return [child for _, child, _ in _down_moves(alpha)]


def _sct_walk(alpha: Composition) -> Iterator[tuple[int, Rows]]:
    """Depth-first walk over the standard composition tableaux of ``alpha``,
    in the order of :func:`enumerate_sct`, through
    :func:`compositions._walk`: each tableau's descent mask and its rows,
    which fill right to left.  A state is the composition left, and its
    moves are :func:`_down_moves`, keyed by the column of the removed cell:
    entry i is a descent when i + 1 sits in a weakly later column.

    Only a leading part can be deleted, so the deleted rows are always a
    prefix, and a state's row i is row i + r - len(state) of ``alpha``.
    The moves come in row order, so each move's row is the first after the
    last move's row whose part is the removed cell's column.
    """
    r = len(alpha)

    def moves_of(parts: Composition) -> list:
        out = []
        i = -1
        for col, child, t in _down_moves(parts):
            i = parts.index(col, i + 1)
            out.append((i + r - len(parts), col, t, child))
        return out

    return _walk(alpha, sum(alpha), r, moves_of, right_to_left=True)


def enumerate_sct(alpha: Composition) -> Iterator[CompositionTableau]:
    """All standard composition tableaux of shape ``alpha``.

    Chains are walked downward, one inverse cover move per entry: deleting
    a leading 1 first, then decrementing rows from the top.  Entries are
    written at final-shape coordinates, and the tableaux share the walk's
    rows, which never change.  A part below 1 raises :class:`ValueError` at
    the call, not at the first step of the iterator.
    """
    trusted = CompositionTableau._trusted
    return (trusted(rows) for _, rows in _sct_walk(_composition(alpha)))


def des_c(t: CompositionTableau) -> DescentSet:
    """Entries i such that i+1 sits weakly to the right of i.  Anything but
    a :class:`CompositionTableau`, or entries that are not 1..n, each once,
    raise :class:`ValueError`."""
    places = _places(_instance(t, CompositionTableau, "a composition tableau").rows)
    n = len(places) - 1
    return DescentSet(n, [i for i in range(1, n) if places[i + 1][1] >= places[i][1]])


def com_c(t: CompositionTableau) -> Composition:
    return composition_of(des_c(t))


def canonical_filling(alpha: Composition) -> CompositionTableau:
    """Row i holds its consecutive block of entries, decreasing to the right.
    A part that is not an int of at least 1 raises :class:`ValueError`."""
    rows = []
    total = 0
    for part in _composition(alpha):
        rows.append(tuple(range(total + part, total, -1)))
        total += part
    return CompositionTableau(rows)


def is_valid_sct(t: CompositionTableau) -> bool:
    """True iff deleting the cells 1, 2, ..., n in order realizes a chain of
    inverse cover moves down to the empty composition.  Anything but a
    :class:`CompositionTableau`, or entries that are not 1..n, each once,
    raise :class:`ValueError`."""
    places = _places(_instance(t, CompositionTableau, "a composition tableau").rows)
    # Only a leading part can be deleted, so the deleted rows are the first
    # ``lead``; a row emptied below them leaves a 0, which no move leaves.
    sizes = list(t.shape)
    lead = 0
    for r, c in places[1:]:
        alpha = tuple(sizes[lead:])
        sizes[r] -= 1
        if not sizes[lead]:
            lead += 1
        if (c, tuple(sizes[lead:]), c) not in _down_moves(alpha):
            return False
    return True
