import hashlib
import itertools
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    rotate180_by_cells,
    skew_shapes_by_pairs,
    skew_shapes_by_sort,
    transpose_by_cells,
)
from qschur import SkewShape, disjoint_union, enumerate_skew_shapes

# Shape counts of sizes 0..8, cross-checked against the pair oracle below
# for the sizes where that oracle is cheap.
SHAPE_COUNTS = [1, 1, 3, 9, 28, 87, 272, 850, 2659]


@st.composite
def shapes(draw):
    outer = tuple(
        sorted(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)), reverse=True)
    )
    inner = tuple(
        sorted(
            (draw(st.integers(0, outer[i])) for i in range(len(outer))), reverse=True
        )
    )
    inner = tuple(p for p in inner if p)
    return SkewShape(outer, inner)


def splits(shape):
    """True iff some row (a_i, b_i] starts at or right of the end of the row
    below it, a_i >= b_{i+1}: the rows above and below share no column."""
    ivs = shape.row_intervals()
    return any(a >= b for (a, _), (_, b) in zip(ivs, ivs[1:]))


def test_containment_is_checked():
    with pytest.raises(ValueError):
        SkewShape((2, 1), (3,))
    with pytest.raises(ValueError):
        SkewShape((2, 1), (1, 1, 1))
    with pytest.raises(ValueError):
        SkewShape((1, 2))
    with pytest.raises(ValueError, match=r"outer has a part < 1: \(2, 0\)"):
        SkewShape((2, 0))
    with pytest.raises(ValueError, match=r"inner has a part < 1: \(0,\)"):
        SkewShape((2,), (0,))
    with pytest.raises(ValueError, match=r"row 1 is not contiguous: \[1, 3\]"):
        SkewShape.from_cells({(1, 1), (1, 3)})
    # A row that starts right of the row above it but ends left of it.
    with pytest.raises(ValueError, match="cells do not form a skew diagram"):
        SkewShape.from_cells({(1, 1), (1, 2), (1, 3), (2, 2)})
    # Translation never moves a cell in column 0 or left of it into place.
    with pytest.raises(ValueError, match=r"outer has a part < 1: \(0,\)"):
        SkewShape.from_cells({(1, 0)})
    with pytest.raises(ValueError, match=r"inner has a part < 1: \(0, -1\)"):
        SkewShape.from_cells({(1, 1), (1, 2), (2, 0), (2, 1)})
    with pytest.raises(ValueError, match="not an iterable of cells: 5"):
        SkewShape.from_cells(5)
    # A cell is a pair of plain ints, so not a float, a string or a bool.
    for cell in [(1.5, 1), ("a", 1), (True, 1)]:
        with pytest.raises(ValueError, match="a cell has an entry that is not an int"):
            SkewShape.from_cells([cell])
    with pytest.raises(ValueError, match="not a cell: 5"):
        SkewShape.from_cells([5])
    with pytest.raises(ValueError, match=r"a cell is not a pair: \(1, 1, 1\)"):
        SkewShape.from_cells([(1, 1, 1)])


def test_canonicalization_drops_empty_rows_and_columns():
    assert SkewShape((2, 2, 1), (2,)) == SkewShape((2, 1), ())
    # (3,1)/(2): column 2 is empty, so the two cells pack together
    assert SkewShape((3, 1), (2,)) == SkewShape((2, 1), (1,))
    assert SkewShape() == SkewShape((), ())
    assert SkewShape((1, 1), (1,)).cells == frozenset({(1, 1)})
    # Rows 3 and 5 of raw cells, sharing no column: both move left.
    assert SkewShape.from_cells({(3, 5), (3, 6), (5, 2)}) == SkewShape((3, 1), (1,))


def test_size_and_cells():
    d = SkewShape((3, 2, 2, 1), (1, 1))
    assert d.size == 6
    assert d.cells == frozenset(
        {(1, 2), (1, 3), (2, 2), (3, 1), (3, 2), (4, 1)}
    )


def test_transpose():
    d = SkewShape((3, 2, 2, 1), (1, 1))
    t = d.transpose()
    assert t == SkewShape((4, 3, 1), (2,))
    assert t.transpose() == d
    assert SkewShape((2, 2)).transpose() == SkewShape((2, 2))
    assert SkewShape((4,)).transpose() == SkewShape((1, 1, 1, 1))


def test_rotate180():
    assert SkewShape((2, 1)).rotate180() == SkewShape((2, 2), (1,))
    assert SkewShape((2, 2)).rotate180() == SkewShape((2, 2))
    assert SkewShape((1,)).rotate180() == SkewShape((1,))


def test_interval_symmetries_match_cell_sets():
    for n in range(0, 10):
        for shape in enumerate_skew_shapes(n):
            assert shape.transpose() == transpose_by_cells(shape)
            assert shape.rotate180() == rotate180_by_cells(shape)


def test_disjoint_union():
    u = disjoint_union(SkewShape((2,)), SkewShape((1,)))
    assert u == SkewShape((3, 2), (2,))
    assert u.size == 3
    assert splits(u)
    d = SkewShape((2, 1))
    assert disjoint_union(d, SkewShape()) == d
    assert disjoint_union(SkewShape(), d) == d
    pair = disjoint_union(SkewShape((1,)), SkewShape((1,)))
    assert pair.cells == frozenset({(1, 2), (2, 1)})


def test_row_column_partitions():
    d = SkewShape((3, 2, 2, 1), (1, 1))
    rows, cols = d.row_column_partitions()
    assert rows == (2, 2, 1, 1)
    assert cols == (3, 2, 1)
    lam = (4, 2, 1)
    assert SkewShape(lam).row_column_partitions() == (lam, (3, 2, 1, 1))
    u = disjoint_union(SkewShape((2,)), SkewShape((1,)))
    assert u.row_column_partitions() == ((2, 1), (1, 1, 1))


def test_enumerate_skew_shapes_counts():
    for n, count in enumerate(SHAPE_COUNTS):
        assert len(list(enumerate_skew_shapes(n))) == count


def test_enumerate_skew_shapes_matches_pair_oracle():
    for n in range(0, 9):
        expected = skew_shapes_by_pairs(n) | ({SkewShape()} if n == 0 else set())
        assert list(enumerate_skew_shapes(n)) == sorted(
            expected, key=lambda s: (s.outer, s.inner)
        )


def test_enumerate_skew_shapes_streams_the_sorted_degree():
    # The 81,427 shapes of n = 11 are compared one at a time as they stream,
    # with tracing on; the oracle's list is built before, so the peak traced
    # is the generator's own.  list(...) would hold the shapes that list
    # holds: each with its row intervals, and its rows, which the recursion
    # shares between shapes, once each.
    for n in range(0, 11):
        assert list(enumerate_skew_shapes(n)) == skew_shapes_by_sort(n), n
    expected = skew_shapes_by_sort(11)
    tracemalloc.start()
    try:
        pairs = itertools.zip_longest(enumerate_skew_shapes(11), expected)
        assert all(got == want for got, want in pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = {id(row): row for s in expected for row in s.row_intervals()}
    held = sum(sys.getsizeof(s) + sys.getsizeof(s.row_intervals()) for s in expected)
    held += sys.getsizeof(expected) + sum(map(sys.getsizeof, rows.values()))
    assert 2 * peak < held


def test_enumeration_order_is_pinned_past_the_oracles():
    # The sha256 of the row intervals of the 254,777 shapes of 12 cells, in
    # the order they stream, taken from the plain recursion before suffix
    # lists were kept; here those lists complete every prefix that leaves
    # at most 6 cells.  Each shape is its rows' (a, b) as bytes, then a "/",
    # which no part of 12 or less can be.
    digest = hashlib.sha256()
    count = 0
    for shape in enumerate_skew_shapes(12):
        digest.update(bytes(itertools.chain.from_iterable(shape.row_intervals())))
        digest.update(b"/")
        count += 1
    assert count == 254777
    assert digest.hexdigest() == (
        "2438358483330f9a41e8da6bf54e55c04605cf6b1ab49f0e1dbc2d9b00b02c83"
    )


def test_enumerate_skew_shapes_shares_rows():
    # Within a degree, equal row intervals are one object, so the shapes
    # held at once share their rows.
    for n in range(0, 10):
        first = {}
        for s in enumerate_skew_shapes(n):
            for row in s.row_intervals():
                assert first.setdefault(row, row) is row, (n, s, row)


def test_enumeration_is_deduplicated_and_sorted():
    for n in range(0, 9):
        shapes_n = list(enumerate_skew_shapes(n))
        assert len(shapes_n) == len(set(shapes_n))
        keys = [(s.outer, s.inner) for s in shapes_n]
        assert keys == sorted(keys)
        assert all(s.size == n for s in shapes_n)


def test_enumeration_yields_basic_forms():
    # The generator skips the validating constructor; it must agree with it.
    for n in range(0, 10):
        for s in enumerate_skew_shapes(n):
            assert s == SkewShape(s.outer, s.inner)


def test_enumeration_closed_under_symmetries():
    for n in range(0, 7):
        shapes_n = set(enumerate_skew_shapes(n))
        for s in shapes_n:
            assert s.transpose() in shapes_n
            assert s.rotate180() in shapes_n


@given(shapes())
def test_symmetry_involutions(d):
    assert d.transpose().transpose() == d
    assert d.rotate180().rotate180() == d
    assert d.transpose().size == d.size
    assert d.rotate180().size == d.size


@given(shapes(), shapes())
def test_disjoint_union_properties(d1, d2):
    u = disjoint_union(d1, d2)
    width = d1.outer[0] if d1.outer else 0
    cells = {(i + len(d2.outer), j) for i, j in d1.cells}
    cells.update((i, j + width) for i, j in d2.cells)
    assert u == SkewShape.from_cells(cells)
    assert u.size == d1.size + d2.size
    if d1.size and d2.size:
        assert splits(u)


def test_str_forms():
    assert str(SkewShape((3, 2), (1,))) == "3,2/1"
    assert str(SkewShape((3, 2))) == "3,2"
    assert str(SkewShape()) == "()"
