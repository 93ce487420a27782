import json

import pytest

from qschur import (
    BudgetExceededError,
    SkewShape,
    brute_family_fmf,
    disjoint_union,
    enumerate_compositions,
    enumerate_skew_shapes,
    f_component_count,
    in_c2,
    in_c2_prime,
    is_fmf,
    predict_family,
    predict_qs_components,
    predict_schur,
    predict_skew,
    predict_two_part,
    qs_f,
    verify,
)
from qschur.classify import _row_below_left_of_column


def test_in_c2():
    assert in_c2((1, 2, 1))
    assert in_c2(())
    assert in_c2((1, 1, 1))
    assert in_c2((1, 2, 1, 2))
    assert not in_c2((2, 1))
    assert not in_c2((1, 2, 2))
    assert not in_c2((1, 3))


def test_in_c2_prime():
    assert in_c2_prime((1, 2))
    assert in_c2_prime((1, 1, 2, 1, 2))
    assert not in_c2_prime((1, 2, 1))
    assert not in_c2_prime((2,))
    assert not in_c2_prime(())
    # contained in the larger family
    assert all(in_c2(a) for a in [(1, 2), (1, 1, 2, 1, 2)])


def test_predict_schur_examples():
    assert predict_schur((4, 4))
    assert predict_schur((3, 3))
    assert predict_schur((1, 1, 1, 1, 1))
    assert predict_schur((6, 2))
    assert predict_schur((2, 2, 1, 1))  # conjugate of (4, 2)
    assert not predict_schur((3, 2, 1))
    assert not predict_schur((4, 3))


def test_predict_skew_examples():
    assert predict_skew(disjoint_union(SkewShape((2,)), SkewShape((1,))))
    assert not predict_skew(SkewShape((3, 2, 2, 1), (1, 1)))
    assert predict_skew(SkewShape((3, 2)).rotate180())
    assert predict_skew(SkewShape((3, 3), (1,)))  # rotation of (3, 2)
    assert not predict_skew(disjoint_union(SkewShape((2,)), SkewShape((2,))))


def test_row_below_left_of_column_matches_disjoint_unions():
    for n in range(0, 10):
        unions = {
            disjoint_union(SkewShape((n - k,)), SkewShape((1,) * k))
            for k in range(1, n)
        }
        for shape in enumerate_skew_shapes(n):
            assert _row_below_left_of_column(shape) == (shape in unions)


def test_predict_qs_components_examples():
    assert predict_qs_components((3, 1, 2, 1)) == "one"
    assert predict_qs_components((7,)) == "one"
    assert predict_qs_components(()) == "one"
    assert predict_qs_components((1, 3, 1, 2)) == "two"
    assert predict_qs_components((1, 3)) == "two"
    assert predict_qs_components((2, 2)) == "two"
    assert predict_qs_components((2, 3, 1)) == "two"
    assert predict_qs_components((3, 3)) == "more"
    assert predict_qs_components((1, 4)) == "more"
    assert predict_qs_components((2, 2, 2)) == "more"


def test_predict_two_part_examples():
    assert predict_two_part((4, 5))
    assert predict_two_part((1, 8))
    assert predict_two_part((2, 2))
    assert predict_two_part((4, 3))
    assert not predict_two_part((3, 6))
    assert not predict_two_part((5, 4))
    with pytest.raises(ValueError):
        predict_two_part((1, 1, 1))


def test_predict_family_examples():
    assert predict_family((3, 2, 2))
    assert predict_family((4, 3))
    assert predict_family((5, 1, 1))
    assert predict_family((2, 2, 2, 1))
    assert not predict_family((2, 2, 2, 2, 2))
    assert not predict_family((3, 3, 2))
    assert not predict_family((5, 3))


def test_brute_family_fmf():
    assert not brute_family_fmf((3, 3, 2))
    assert brute_family_fmf((6,))
    assert brute_family_fmf((2, 2, 1))


def test_theorem_refinement_one_and_two():
    # "one" means the expansion is exactly its own F-term; "two" keeps the
    # own term plus one other
    for n in range(0, 10):
        for alpha in enumerate_compositions(n):
            e = qs_f(alpha)
            cls = predict_qs_components(alpha)
            if cls == "one":
                assert dict(e.terms) == {alpha: 1}
            elif cls == "two":
                assert f_component_count(e) == 2
                assert e.coefficient(alpha) == 1
                assert is_fmf(e)
            else:
                assert f_component_count(e) >= 3


def test_verify_small_all_theorems():
    for theorem, max_n in [
        ("schur", 8),
        ("skew", 6),
        ("qs-components", 7),
        ("two-part", 10),
        ("families", 8),
    ]:
        report = verify(theorem, max_n)
        assert report.verified
        assert report.checked > 0
        assert report.disagreements == ()


def test_verify_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify("nope", 5)
    with pytest.raises(ValueError):
        verify("schur", 0)


def test_verify_budget_aborts_loudly():
    with pytest.raises(BudgetExceededError):
        verify("schur", 6, max_tableaux=1)


def test_verify_deterministic_across_runs():
    one = verify("schur", 7)
    again = verify("schur", 7)
    assert json.dumps(one.to_json_obj()) == json.dumps(again.to_json_obj())


def test_report_serialization():
    report = verify("two-part", 6)
    obj = report.to_json_obj()
    assert obj["theorem"] == "two-part"
    assert obj["max_n"] == 6
    assert obj["checked"] == 15
    assert obj["disagreements"] == []
    text = report.to_text()
    assert "disagreements: 0" in text
    assert "verdict: verified" in text
