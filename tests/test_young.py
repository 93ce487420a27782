from collections import Counter

import pytest

from oracles import hook_length_count
from qschur import (
    BudgetExceededError,
    DescentSet,
    Expansion,
    SkewShape,
    SkewTableau,
    com_p,
    des_p,
    disjoint_union,
    enumerate_partitions,
    enumerate_skew_shapes,
    enumerate_syt,
    is_semistandard,
    is_standard,
    lr_expansion,
)


def syt_list(*outer_inner):
    return list(enumerate_syt(SkewShape(*outer_inner)))


def test_enumerate_syt_small_counts():
    assert len(syt_list((2, 2))) == 2
    assert len(syt_list((6,))) == 1
    assert len(syt_list((3, 2, 1))) == 16
    assert len(syt_list(())) == 1


def test_enumerate_syt_two_by_two_fillings():
    assert {t.rows for t in syt_list((2, 2))} == {
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
    }


def test_syt_validity_and_dedup():
    for n in range(0, 7):
        for shape in enumerate_skew_shapes(n):
            seen = set()
            for t in enumerate_syt(shape):
                assert is_standard(t)
                assert t.rows not in seen
                seen.add(t.rows)


def test_hook_length_oracle():
    for n in range(0, 9):
        for lam in enumerate_partitions(n):
            assert len(syt_list(lam)) == hook_length_count(lam)


def test_des_p_worked_example():
    t = SkewTableau(SkewShape((3, 2, 2, 1), (1, 1)), ((2, 3), (4,), (1, 6), (5,)))
    assert des_p(t) == DescentSet(6, {3, 4})
    assert com_p(t) == (3, 1, 2)
    # An entry out of 1..n, or one met twice, is no standard filling.
    for rows in (((1, 4), (2,)), ((1, 1), (2,))):
        with pytest.raises(ValueError, match="entries must be 1..n, each once"):
            des_p(SkewTableau(SkewShape((2, 1)), rows))
        assert not is_standard(SkewTableau(SkewShape((2, 1)), rows))
    # An entry is a plain int, so True is no 1; rows must be iterable.
    for rows in ([[True]], [["a"]], [[1.0]], 5, [5]):
        with pytest.raises(ValueError):
            SkewTableau(SkewShape((1,)), rows)


def test_des_p_trivial_shapes():
    (row,) = syt_list((5,))
    assert des_p(row) == DescentSet(5)
    assert com_p(row) == (5,)
    (col,) = syt_list((1, 1, 1, 1))
    assert des_p(col) == DescentSet(4, {1, 2, 3})


def test_com_p_two_by_two():
    t = SkewTableau(SkewShape((2, 2)), ((1, 3), (2, 4)))
    assert com_p(t) == (1, 2, 1)


def test_is_lattice():
    shape = SkewShape((3, 2, 2, 1), (1, 1))
    t = SkewTableau(shape, ((1, 1), (2,), (1, 3), (2,)))
    assert is_semistandard(t)
    # A lattice filling of content (3, 2, 1), so lr_expansion counts it.
    assert lr_expansion(shape).coefficient((3, 2, 1)) >= 1
    assert dict(lr_expansion(SkewShape((3,))).terms) == {(3,): 1}
    # A lone 2 reads 2 before any 1: content (0, 1) is no partition.
    assert dict(lr_expansion(SkewShape((1,))).terms) == {(1,): 1}


def test_lattice_needs_prefix_dominance():
    # reading word 1,2,2 fails at the second 2
    t = SkewTableau(SkewShape((2, 1)), ((1, 2), (2,)))
    assert is_semistandard(t)
    # Each rule rejects: an entry below 1, a row that falls, a column that
    # does not rise.
    for rows in (((0, 1), (2,)), ((2, 1), (3,)), ((1, 2), (1,))):
        assert not is_semistandard(SkewTableau(SkewShape((2, 1)), rows))
    # So of the semistandard fillings of (2, 1) with entries in {1, 2},
    # only 1,1 over 2 is lattice.
    assert dict(lr_expansion(SkewShape((2, 1))).terms) == {(2, 1): 1}


def test_lr_expansion_disjoint_union():
    u = disjoint_union(SkewShape((2,)), SkewShape((1,)))
    assert dict(lr_expansion(u).terms) == {(3,): 1, (2, 1): 1}


def test_lr_invariants_up_to_size_8():
    from qschur import conjugate

    for n in range(0, 9):
        table = {shape: lr_expansion(shape) for shape in enumerate_skew_shapes(n)}
        for shape, lr in table.items():
            assert table[shape.rotate180()] == lr
            rows, cols = shape.row_column_partitions()
            assert lr.coefficient(rows) >= 1
            assert lr.coefficient(conjugate(cols)) >= 1
            if not shape.inner:
                assert dict(lr.terms) == {shape.outer: 1}


def test_lr_expansion_basis_and_degree():
    e = lr_expansion(SkewShape((2, 1), (1,)))
    assert e.basis == "schur"
    assert e.degree == 2
    assert dict(e.terms) == {(2,): 1, (1, 1): 1}
    assert lr_expansion(SkewShape()) == Expansion("schur", 0, {(): 1})
    # Two lattice fillings: the budget passes at 2, not at 1.
    assert lr_expansion(SkewShape((2, 1), (1,)), 2) == e
    message = "lattice fillings of shape 2,1/1 exceeded the tableau budget of 1"
    with pytest.raises(BudgetExceededError, match=message):
        lr_expansion(SkewShape((2, 1), (1,)), 1)


def test_lr_counts_match_syt_totals():
    # the Schur expansion refines the tableau count: sum over lam of
    # c_{D lam} * f^lam equals the number of standard tableaux of D
    for n in range(0, 7):
        for shape in enumerate_skew_shapes(n):
            total = sum(
                c * hook_length_count(lam)
                for lam, c in lr_expansion(shape).terms.items()
            )
            assert total == len(list(enumerate_syt(shape)))


def test_tableau_text_and_json():
    t = SkewTableau(SkewShape((2, 1), (1,)), ((2,), (1,)))
    assert t.to_text() == "· 2\n1"
    assert t.to_json_obj() == [[None, 2], [1]]
    assert Counter(v for row in t.rows for v in row) == Counter({1: 1, 2: 1})


def test_skew_tableau_shape_mismatch():
    with pytest.raises(ValueError):
        SkewTableau(SkewShape((2, 1)), ((1, 2),))


def test_expansion_arithmetic_guards():
    a = Expansion("F", 2, {(2,): 1})
    b = Expansion("F", 3, {(3,): 1})
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        Expansion("F", 2, {(3,): 1})
    with pytest.raises(ValueError):
        Expansion("schur", 3, {(1, 2): 1})
    with pytest.raises(ValueError):
        Expansion("F", 2, {(2,): -1})
    with pytest.raises(ValueError, match="unknown basis 'Q'"):
        Expansion("Q", 2, {(2,): 1})
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        Expansion("F", -1, {})
    with pytest.raises(ValueError, match="not an integer: 1.5"):
        Expansion("F", 2, {(2,): 1.5})
    assert (a + a) == 2 * a
