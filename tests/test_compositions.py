import itertools
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import compositions_by_cuts
from qschur import (
    DescentSet,
    complement,
    composition_of,
    conjugate,
    descent_set_of,
    enumerate_compositions,
    enumerate_partitions,
    rearrangements,
    refinements,
    reverse,
)
from qschur.compositions import _composition_of_mask, _descent_mask, _rearranged

compositions = st.lists(st.integers(1, 5), max_size=5).map(tuple)
partitions = compositions.map(lambda a: tuple(sorted(a, reverse=True)))


def test_descent_set_of_worked_example():
    d = descent_set_of((2, 1, 2, 2))
    assert d.degree == 7
    assert d.members == frozenset({2, 3, 5})


def test_descent_set_of_trivial():
    assert descent_set_of((6,)) == DescentSet(6)
    assert descent_set_of((1, 1, 1)) == DescentSet(3, {1, 2})
    assert descent_set_of(()) == DescentSet(0)


def test_composition_of():
    assert composition_of(DescentSet(7, {2, 3, 5})) == (2, 1, 2, 2)
    assert composition_of(DescentSet(5)) == (5,)
    assert composition_of(DescentSet(4, {1, 2, 3})) == (1, 1, 1, 1)
    assert composition_of(DescentSet(0)) == ()


def test_descent_set_rejects_out_of_range():
    with pytest.raises(ValueError):
        DescentSet(3, {3})
    with pytest.raises(ValueError):
        DescentSet(3, {0})


def test_reverse_and_complement_worked_example():
    assert reverse((2, 1, 2, 2)) == (2, 2, 1, 2)
    assert complement((2, 1, 2, 2)) == (1, 3, 2, 1)
    assert complement((5,)) == (1, 1, 1, 1, 1)
    assert complement((1, 2)) == (2, 1)


def test_rearrangements():
    assert rearrangements((2, 2, 2, 1)) == [
        (1, 2, 2, 2),
        (2, 1, 2, 2),
        (2, 2, 1, 2),
        (2, 2, 2, 1),
    ]
    assert rearrangements((4,)) == [(4,)]
    assert len(rearrangements((2, 1, 1))) == 3


def test_rearrangements_match_distinct_permutations():
    for n in range(0, 9):
        for lam in enumerate_partitions(n):
            assert rearrangements(lam) == sorted(set(itertools.permutations(lam)))


def test_rearrangements_list_the_lazy_walk():
    # Every partition of n <= 10 (138 of them, about 0.01 s): the public
    # list is the private generator's output, which yields one ordering at
    # a time, the sorted one first.
    for n in range(0, 11):
        for lam in enumerate_partitions(n):
            walk = _rearranged(lam)
            assert next(walk) == tuple(sorted(lam))
            assert rearrangements(lam) == [tuple(sorted(lam))] + list(walk)


def test_rearrangements_never_visit_repeated_orderings():
    # Both inputs have astronomically many permutations but few distinct ones.
    assert rearrangements((1,) * 20) == [(1,) * 20]
    multinomial = factorial(13) // (factorial(2) * factorial(10))
    assert len(rearrangements((3, 2, 2) + (1,) * 10)) == multinomial


def test_conjugate():
    assert conjugate((3, 2, 2, 1)) == (4, 3, 1)
    assert conjugate((5,)) == (1, 1, 1, 1, 1)
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate(()) == ()
    # An increasing pair of parts, and a part below 1, are no partition.
    for bad in [(1, 2), (0,)]:
        with pytest.raises(ValueError):
            conjugate(bad)


def test_enumeration_counts_and_order():
    comps = list(enumerate_compositions(4))
    assert len(comps) == 8
    assert comps == sorted(comps)
    assert list(enumerate_compositions(0)) == [()]
    parts = list(enumerate_partitions(4))
    assert len(parts) == 5
    assert parts == sorted(parts)
    assert list(enumerate_partitions(0)) == [()]


def test_enumerate_compositions_matches_cut_oracle():
    # 65,536 compositions in all; the successor rule must list each of
    # degree n once, in lexicographic order.
    with pytest.raises(ValueError):
        list(enumerate_compositions(-1))
    for n in range(0, 17):
        assert list(enumerate_compositions(n)) == compositions_by_cuts(n), n


def test_bijection_exhaustive():
    for n in range(0, 13):
        top = 1 << n >> 1
        for alpha in enumerate_compositions(n):
            assert composition_of(descent_set_of(alpha)) == alpha
            # The bitmask codec that the engine uses, with n carried by the
            # top bit.
            mask = _descent_mask(alpha)
            assert 0 <= mask < max(top, 1)
            assert _composition_of_mask(mask | top) == alpha
            flipped = set(range(1, n)) - descent_set_of(alpha).members
            assert descent_set_of(complement(alpha)).members == flipped
    for n in range(0, 9):
        seen = {descent_set_of(a) for a in enumerate_compositions(n)}
        assert len(seen) == 2 ** max(n - 1, 0)


def test_reverse_complement_commute_exhaustive():
    for n in range(0, 13):
        for alpha in enumerate_compositions(n):
            assert complement(reverse(alpha)) == reverse(complement(alpha))


@given(compositions)
def test_involutions(alpha):
    assert reverse(reverse(alpha)) == alpha
    assert complement(complement(alpha)) == alpha


@given(partitions)
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam


def test_refinements_are_exactly_the_refining_compositions():
    for n in range(0, 8):
        for beta in enumerate_compositions(n):
            got = sorted(refinements(beta))
            # alpha refines beta iff beta's descent set lies inside alpha's.
            cuts = descent_set_of(beta).members
            want = sorted(
                a
                for a in enumerate_compositions(n)
                if cuts <= descent_set_of(a).members
            )
            assert got == want
            assert len(got) == len(set(got))
