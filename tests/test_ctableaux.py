import pytest

from oracles import chain_counts_by_level
from qschur import (
    CompositionTableau,
    DescentSet,
    canonical_filling,
    com_c,
    covers_down,
    covers_up,
    des_c,
    descent_set_of,
    enumerate_compositions,
    enumerate_sct,
    is_valid_sct,
)
from qschur.ctableaux import _down_moves

T_PRIME = CompositionTableau(((3, 1), (5, 4, 2), (7, 6), (8,)))


def test_covers_up_worked_example():
    assert covers_up((2, 2, 1, 3, 2, 3)) == [
        (1, 2, 2, 1, 3, 2, 3),
        (3, 2, 1, 3, 2, 3),
        (2, 2, 2, 3, 2, 3),
        (2, 2, 1, 4, 2, 3),
    ]
    assert covers_up(()) == [(1,)]
    assert sorted(covers_up((1,))) == [(1, 1), (2,)]


def test_covers_down_examples():
    assert covers_down((1, 2)) == [(2,)]
    assert covers_down((1,)) == [()]
    with pytest.raises(ValueError):
        covers_down(())


def test_covers_down_matches_brute_inversion():
    for n in range(1, 9):
        ups: dict[tuple, list] = {}
        for beta in enumerate_compositions(n - 1):
            for gamma in covers_up(beta):
                ups.setdefault(gamma, []).append(beta)
        for alpha in enumerate_compositions(n):
            assert sorted(covers_down(alpha)) == sorted(ups.get(alpha, []))


def test_down_moves_list_the_inverse_covers_in_order():
    # The inverse cover moves of every composition of n <= 10 (1,023 of
    # them, about 0.01 s): deleting a leading 1 first, then decrementing
    # part i >= 2, for ascending i, wherever the smaller shape has alpha
    # among its covers.  Each move is (column, child, column), the removed
    # cell's column doubling as the engine's threshold.
    for n in range(1, 11):
        for alpha in enumerate_compositions(n):
            expected = []
            for i, part in enumerate(alpha):
                if part == 1 and i:  # a 1 below the first row stays
                    continue
                child = alpha[:i] + ((part - 1,) if part > 1 else ()) + alpha[i + 1 :]
                if alpha in covers_up(child):
                    expected.append((part, child, part))
            assert _down_moves(alpha) == expected


def test_enumerate_sct_worked_examples():
    assert [t.rows for t in enumerate_sct((1, 3))] == [
        ((1,), (4, 3, 2)),
        ((2,), (4, 3, 1)),
    ]
    (row,) = enumerate_sct((6,))
    assert row.rows == ((6, 5, 4, 3, 2, 1),)
    tableaux = set(enumerate_sct((2, 3, 2, 1)))
    assert T_PRIME in tableaux
    assert canonical_filling((2, 3, 2, 1)) in tableaux
    assert [t.rows for t in enumerate_sct(())] == [()]


def test_sct_counts_match_chain_dp():
    levels = chain_counts_by_level(8)
    for n in range(0, 9):
        for alpha in enumerate_compositions(n):
            count = sum(1 for _ in enumerate_sct(alpha))
            assert count == levels[n].get(alpha, 1 if alpha == () else 0)


def test_sct_validity_and_dedup():
    for n in range(1, 8):
        for alpha in enumerate_compositions(n):
            seen = set()
            for t in enumerate_sct(alpha):
                assert t.shape == alpha
                assert is_valid_sct(t)
                assert t.rows not in seen
                seen.add(t.rows)


def test_des_c_worked_examples():
    assert des_c(T_PRIME) == DescentSet(8, {1, 3, 5, 7})
    assert com_c(T_PRIME) == (1, 2, 2, 2, 1)
    canonical = canonical_filling((2, 3, 2, 1))
    assert des_c(canonical) == descent_set_of((2, 3, 2, 1))
    assert com_c(canonical) == (2, 3, 2, 1)
    t = CompositionTableau(((1,), (3, 2)))
    assert des_c(t) == DescentSet(3, {1})
    # An entry out of 1..n, or one met twice, is no standard filling.
    for rows in (((1,), (4, 2)), ((1,), (2, 2))):
        with pytest.raises(ValueError, match="entries must be 1..n, each once"):
            des_c(CompositionTableau(rows))
        with pytest.raises(ValueError, match="entries must be 1..n, each once"):
            is_valid_sct(CompositionTableau(rows))
    # An entry is a plain int, so True is no 1; rows must be iterable.
    for rows in ([[True]], [["a"]], [[1.0]], 5, [5]):
        with pytest.raises(ValueError):
            CompositionTableau(rows)


def test_canonical_filling():
    assert canonical_filling((2, 3, 2, 1)).rows == (
        (2, 1),
        (5, 4, 3),
        (7, 6),
        (8,),
    )
    assert canonical_filling((5,)).rows == ((5, 4, 3, 2, 1),)
    assert canonical_filling((1, 1, 1)).rows == ((1,), (2,), (3,))


def test_unique_sct_with_descent_composition_equal_to_shape():
    for n in range(1, 8):
        for alpha in enumerate_compositions(n):
            hits = [t for t in enumerate_sct(alpha) if com_c(t) == alpha]
            assert hits == [canonical_filling(alpha)]


def test_is_valid_sct():
    assert is_valid_sct(T_PRIME)
    assert is_valid_sct(canonical_filling((4, 1, 2)))
    assert not is_valid_sct(CompositionTableau(((1, 2), (4, 3))))
    with pytest.raises(ValueError):
        is_valid_sct(CompositionTableau(((1, 1),)))


def test_is_valid_sct_matches_enumeration():
    import itertools

    for alpha in [(2, 2), (1, 3), (3, 1), (2, 1, 1)]:
        n = sum(alpha)
        valid = {t.rows for t in enumerate_sct(alpha)}
        for perm in itertools.permutations(range(1, n + 1)):
            rows = []
            k = 0
            for part in alpha:
                rows.append(tuple(perm[k : k + part]))
                k += part
            t = CompositionTableau(rows)
            assert is_valid_sct(t) == (t.rows in valid)


def test_first_entries_fill_top_rows_of_one_two_shapes():
    # shapes (1^f, 2^e): entries 1..f always sit in the top f rows
    for f in range(0, 5):
        for e in range(1, (10 - f) // 2 + 1):
            if f + 2 * e > 10:
                continue
            alpha = (1,) * f + (2,) * e
            for t in enumerate_sct(alpha):
                top = {v for row in t.rows[:f] for v in row}
                assert top == set(range(1, f + 1))


def test_tableau_helpers():
    t = CompositionTableau(((2, 1), (3,)))
    assert t.shape == (2, 1)
    assert t.size == 3
    assert t.to_text() == "2 1\n3"
    assert t.to_json_obj() == [[2, 1], [3]]
    with pytest.raises(ValueError):
        CompositionTableau(((1,), ()))
