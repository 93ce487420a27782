import random
from collections import Counter

import pytest

import qschur.qsym
from oracles import compositions_with_parts_12, qs_f_fast_12, skew_schur_f_pointer
from qschur import (
    CompositionTableau,
    DescentSet,
    Expansion,
    SkewShape,
    SkewTableau,
    com_c,
    com_p,
    conjugate,
    disjoint_union,
    enumerate_compositions,
    enumerate_partitions,
    enumerate_sct,
    enumerate_skew_shapes,
    enumerate_syt,
    f_component_count,
    f_to_m,
    in_c2,
    is_fmf,
    multiplicity_witnesses,
    omega_f,
    qs_f,
    schur_f,
    schur_via_qs,
    skew_schur_f,
)


def F(n, terms):
    return Expansion("F", n, terms)


def test_qs_f_worked_examples():
    assert qs_f((1, 3)) == F(4, {(1, 3): 1, (2, 2): 1})
    assert qs_f((4, 1)) == F(5, {(4, 1): 1})
    assert qs_f((2, 3)) == F(5, {(2, 3): 1, (1, 2, 2): 1})
    assert qs_f(()) == F(0, {(): 1})


def test_skew_schur_f_anchors():
    assert schur_f((3, 2, 1)).coefficient((2, 2, 2)) == 2
    assert schur_f((4, 3)).coefficient((2, 3, 2)) == 2
    assert skew_schur_f(SkewShape((6,))) == F(6, {(6,): 1})


def test_schur_f_small():
    assert schur_f((2, 2)) == F(4, {(2, 2): 1, (1, 2, 1): 1})
    assert schur_f((2, 1)) == F(3, {(2, 1): 1, (1, 2): 1})
    assert schur_f(()) == F(0, {(): 1})


def test_schur_f_matches_tableau_tally():
    for n in range(0, 8):
        for shape in enumerate_skew_shapes(n):
            tally = Counter(com_p(t) for t in enumerate_syt(shape))
            assert skew_schur_f(shape) == F(n, tally)
    for n in range(0, 11):
        for lam in enumerate_partitions(n):
            tally = Counter(com_p(t) for t in enumerate_syt(SkewShape(lam)))
            assert schur_f(lam) == F(n, tally)


def test_shared_engine_matches_per_shape_memo():
    for shape in enumerate_skew_shapes(8):
        assert skew_schur_f(shape) == skew_schur_f_pointer(shape)
    for n in range(0, 14):
        for lam in enumerate_partitions(n):
            assert schur_f(lam, 10**7) == skew_schur_f_pointer(SkewShape(lam))


def test_shared_memo_is_order_independent():
    shapes = [s for n in range(0, 8) for s in enumerate_skew_shapes(n)]
    ascending = list(range(len(shapes)))
    shuffled = ascending[:]
    random.Random(7).shuffle(shuffled)
    memo = qschur.qsym._PROFILES
    results = []
    for order in (ascending, ascending[::-1], shuffled):
        memo.clear()
        got = {}
        for k in order:
            got[k] = skew_schur_f(shapes[k])
            assert all(level >= shapes[k].size - 1 for level in memo)
        results.append(got)
    assert results[0] == results[1] == results[2]


def test_shared_memo_drops_stale_levels_before_building(monkeypatch):
    memo = qschur.qsym._PROFILES
    memo.clear()
    for n in range(0, 7):
        for shape in enumerate_skew_shapes(n):
            skew_schur_f(shape)
    # While a row of 9 cells is built, the levels below 8 hold only rows.
    stale = []
    profile_of = qschur.qsym._profile_of

    def watched(ivs, below):
        stale.extend(
            s for m, level in memo.items() if m < 8 for s in level if len(s) > 1
        )
        return profile_of(ivs, below)

    monkeypatch.setattr(qschur.qsym, "_profile_of", watched)
    assert skew_schur_f(SkewShape((9,))) == F(9, {(9,): 1})
    assert stale == []


def test_qs_f_matches_tableau_tally():
    for n in range(0, 11):
        for alpha in enumerate_compositions(n):
            tally = Counter(com_c(t) for t in enumerate_sct(alpha))
            assert qs_f(alpha) == F(n, tally)
            total = sum(tally.values())
            assert qs_f(alpha, max_tableaux=total) == F(n, tally)


def test_coefficient_totals_count_tableaux():
    for n in range(0, 7):
        for alpha in enumerate_compositions(n):
            assert qs_f(alpha).total() == sum(1 for _ in enumerate_sct(alpha))
        for shape in enumerate_skew_shapes(n):
            assert skew_schur_f(shape).total() == sum(
                1 for _ in enumerate_syt(shape)
            )


def test_schur_via_qs():
    assert schur_via_qs((2, 2)) == qs_f((2, 2)) == schur_f((2, 2))
    assert schur_via_qs((2, 1)) == F(3, {(2, 1): 1, (1, 2): 1})
    assert schur_via_qs((3, 2, 1)) == schur_f((3, 2, 1))
    for n in range(0, 9):
        for lam in enumerate_partitions(n):
            assert schur_via_qs(lam) == schur_f(lam)


def test_unit_coefficient_at_own_shape():
    for n in range(0, 10):
        for alpha in enumerate_compositions(n):
            assert qs_f(alpha).coefficient(alpha) == 1


def test_f_to_m():
    assert f_to_m(F(4, {(1, 3): 1})) == Expansion(
        "M", 4, {(1, 3): 1, (1, 2, 1): 1, (1, 1, 2): 1, (1, 1, 1, 1): 1}
    )
    assert f_to_m(F(4, {(1, 1, 1, 1): 1})) == Expansion("M", 4, {(1, 1, 1, 1): 1})
    full = f_to_m(F(5, {(5,): 1}))
    assert len(full.terms) == 16
    assert all(c == 1 for c in full.terms.values())
    with pytest.raises(ValueError):
        f_to_m(Expansion("M", 2, {(2,): 1}))


def test_omega_f():
    assert omega_f(F(3, {(3,): 1})) == F(3, {(1, 1, 1): 1})
    e = schur_f((3, 1))
    assert omega_f(omega_f(e)) == e
    assert omega_f(schur_f((2, 1))) == schur_f((2, 1))
    for n in range(0, 9):
        for lam in enumerate_partitions(n):
            assert omega_f(schur_f(lam)) == schur_f(conjugate(lam))


def test_omega_on_skew_shapes_is_transpose():
    # standard identity, not load-bearing for the classifications
    for n in range(0, 7):
        for shape in enumerate_skew_shapes(n):
            assert omega_f(skew_schur_f(shape)) == skew_schur_f(shape.transpose())


def test_rotation_invariance():
    for n in range(0, 7):
        for shape in enumerate_skew_shapes(n):
            assert skew_schur_f(shape) == skew_schur_f(shape.rotate180())


def test_is_fmf():
    assert is_fmf(qs_f((2, 3, 3)))
    assert not is_fmf(qs_f((3, 3, 2)))
    assert not is_fmf(schur_f((3, 2, 1)))
    assert is_fmf(F(0, {(): 1}))


def test_f_component_count():
    assert f_component_count(qs_f((1, 3))) == 2
    assert f_component_count(qs_f((3, 1, 2, 1))) == 1
    assert f_component_count(qs_f((7,))) == 1


def test_multiplicity_witnesses_shapes():
    found = multiplicity_witnesses(SkewShape((3, 2, 1)))
    descents = {tuple(d) for d, _, _ in found}
    assert (2, 4) in descents
    pair = next((a, b) for d, a, b in found if tuple(d) == (2, 4))
    assert {t.rows for t in pair} == {
        ((1, 2, 4), (3, 6), (5,)),
        ((1, 2, 6), (3, 4), (5,)),
    }
    for d, a, b in found:
        assert a != b
        assert com_p(a) == com_p(b)


def test_multiplicity_witnesses_compositions():
    assert multiplicity_witnesses((1, 3)) == []
    found = multiplicity_witnesses((2, 2, 4))
    assert found
    for d, a, b in found:
        assert isinstance(a, CompositionTableau)
        assert com_c(a) == com_c(b)
        assert a != b


def test_witnesses_empty_iff_fmf():
    for n in range(1, 8):
        for alpha in enumerate_compositions(n):
            assert (multiplicity_witnesses(alpha) == []) == is_fmf(qs_f(alpha))


def test_qs_f_fast_12_examples():
    assert qs_f_fast_12((1, 2, 2, 1)) == F(6, {(1, 2, 2, 1): 1, (1, 1, 2, 1, 1): 1})
    assert qs_f_fast_12((1, 1, 1)) == F(3, {(1, 1, 1): 1})
    assert qs_f_fast_12((1, 2)) == F(3, {(1, 2): 1})
    assert qs_f_fast_12(()) == F(0, {(): 1})
    with pytest.raises(ValueError):
        qs_f_fast_12((1, 3))


def test_qs_f_fast_12_matches_enumeration():
    for n in range(0, 11):
        for alpha in compositions_with_parts_12(n):
            assert qs_f_fast_12(alpha) == qs_f(alpha)


def test_appending_one_or_one_two_preserves_distribution():
    tails = [(1,), (1, 2)]
    for n in range(0, 6):
        for alpha in enumerate_compositions(n):
            base = qs_f(alpha)
            for tail in tails:
                extended = qs_f(alpha + tail)
                assert extended == F(
                    n + sum(tail),
                    {key + tail: c for key, c in base.terms.items()},
                )


def test_appending_c2_preserves_distribution():
    gammas = [g for m in range(0, 5) for g in enumerate_compositions(m) if in_c2(g)]
    for n in range(0, 8):
        for alpha in enumerate_compositions(n):
            base = qs_f(alpha)
            for gamma in gammas:
                extended = qs_f(alpha + gamma)
                assert extended == F(
                    n + sum(gamma),
                    {key + gamma: c for key, c in base.terms.items()},
                )


def test_monotonicity_small():
    comps = [c for m in range(0, 5) for c in enumerate_compositions(m)]
    for alpha in comps:
        base = qs_f(alpha)
        for gamma in comps:
            suffixed = qs_f(alpha + gamma)
            prefixed = qs_f(gamma + alpha)
            for beta, c in base.terms.items():
                assert c <= suffixed.coefficient(beta + gamma)
                assert c <= prefixed.coefficient(gamma + beta)


def test_budget_paths():
    from qschur import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        qs_f((2, 2), max_tableaux=1)
    with pytest.raises(BudgetExceededError):
        skew_schur_f(SkewShape((2, 2)), max_tableaux=1)
    with pytest.raises(BudgetExceededError):
        multiplicity_witnesses((2, 2), max_tableaux=1)
    assert qs_f((2, 2), max_tableaux=10) == qs_f((2, 2))
    assert skew_schur_f(SkewShape((2, 2)), max_tableaux=10) == schur_f((2, 2))


def test_qs_f_budget_aborts_early():
    from qschur import BudgetExceededError

    # 87,516 tableaux; the frontier passes 10 partial chains within a few
    # levels, so the full profile is never built.
    with pytest.raises(BudgetExceededError, match="tableau budget of 10"):
        qs_f((6, 6, 6), max_tableaux=10)


def test_skew_budget_aborts_early(monkeypatch):
    from qschur import BudgetExceededError

    # The profile of (20, 19) has 2^38 possible masks; its small remaining
    # shapes pass 10 tableaux after a few profiles, so it is never built.
    built = []
    profile_of = qschur.qsym._profile_of
    monkeypatch.setattr(
        qschur.qsym, "_profile_of", lambda *a: built.append(1) or profile_of(*a)
    )
    message = "tableaux of shape 20,19 exceeded the tableau budget of 10"
    with pytest.raises(BudgetExceededError, match=message):
        skew_schur_f(SkewShape((20, 19)), max_tableaux=10)
    assert len(built) < 100
    # A memo hit at the root still meets the budget.
    skew_schur_f(SkewShape((3, 2)))
    with pytest.raises(BudgetExceededError):
        skew_schur_f(SkewShape((3, 2)), max_tableaux=4)


def test_expansion_serialization_roundtrip():
    e = qs_f((2, 1, 2))
    assert Expansion.from_json_obj(e.to_json_obj()) == e
    assert e.to_json_obj()["terms"] == sorted(
        e.to_json_obj()["terms"], key=lambda t: t["index"]
    )
    text = schur_f((2, 1)).to_text()
    assert text == "1 · F[1,2]\n1 · F[2,1]"


def test_lr_consistency_small():
    from qschur import lr_expansion

    for n in range(0, 7):
        for shape in enumerate_skew_shapes(n):
            total = F(n, {})
            for lam, c in lr_expansion(shape).terms.items():
                total = total + c * schur_f(lam)
            assert total == skew_schur_f(shape)
