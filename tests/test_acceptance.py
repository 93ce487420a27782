"""Acceptance suite: every classification and identity is checked
exhaustively at its full stated degree bound, exact integer agreement, zero
tolerance.  Each test prints one pass/fail line (visible with pytest -s)."""

import itertools
import time
from math import comb

from oracles import (
    chain_counts_by_level,
    compositions_with_parts_12,
    hook_length_count,
    qs_f_fast_12,
    schur_hook_form,
    two_part_closed_form,
)
from qschur import (
    Expansion,
    SkewShape,
    brute_family_fmf,
    conjugate,
    covers_down,
    covers_up,
    disjoint_union,
    enumerate_compositions,
    enumerate_partitions,
    enumerate_skew_shapes,
    enumerate_sct,
    enumerate_syt,
    is_fmf,
    lr_expansion,
    omega_f,
    predict_family,
    qs_f,
    schur_f,
    schur_via_qs,
    skew_schur_f,
    verify,
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_c1_schur_classification_n_le_12():
    start = time.time()
    result = verify("schur", 12)
    elapsed = time.time() - start
    report(
        "1 schur classification n<=12",
        result.verified and result.checked == 271 and elapsed < 120,
        f"{result.checked} partitions, {elapsed:.1f}s",
    )


def test_c2_skew_classification_size_le_9():
    start = time.time()
    result = verify("skew", 9)
    elapsed = time.time() - start
    report(
        "2 skew classification |D|<=9",
        result.verified and elapsed < 600,
        f"{result.checked} shapes, {elapsed:.1f}s",
    )


def test_c3_two_part_classification_n_le_14():
    result = verify("two-part", 14)
    formulas_ok = True
    checked = 0
    for n in range(3, 15):
        for a in range(1, n):
            closed = two_part_closed_form(a, n - a)
            if closed is None:
                continue
            checked += 1
            if Expansion("F", n, closed) != qs_f((a, n - a)):
                formulas_ok = False
    report(
        "3 two-part classification n<=14 + closed forms",
        result.verified and formulas_ok,
        f"{result.checked} compositions, {checked} closed forms",
    )


def test_c4_component_count_classification_n_le_9():
    result = verify("qs-components", 9)
    report(
        "4 one/two F-component classification n<=9",
        result.verified and result.checked == 511,
        f"{result.checked} compositions",
    )


def test_c5_family_classification_n_le_10():
    result = verify("families", 10)
    anchors = is_fmf(qs_f((2, 3, 3))) and not is_fmf(qs_f((3, 3, 2)))
    report(
        "5 family classification n<=10",
        result.verified and anchors,
        f"{result.checked} partitions",
    )


def test_c6_structural_identities():
    ok = True
    for n in range(0, 10):
        for lam in enumerate_partitions(n):
            ok = ok and schur_via_qs(lam) == schur_f(lam)
            ok = ok and omega_f(schur_f(lam)) == schur_f(conjugate(lam))
    shapes = 0
    for n in range(0, 9):
        for shape in enumerate_skew_shapes(n):
            shapes += 1
            e = skew_schur_f(shape)
            ok = ok and e == skew_schur_f(shape.rotate180())
            total = Expansion("F", n, {})
            for lam, c in lr_expansion(shape).terms.items():
                total = total + c * schur_f(lam)
            ok = ok and total == e
    report("6 structural identities", ok, f"{shapes} shapes at |D|<=8")


def test_c7_point_anchors():
    ok = schur_f((3, 2, 1)).coefficient((2, 2, 2)) == 2
    ok = ok and schur_f((4, 3)).coefficient((2, 3, 2)) == 2
    ok = ok and qs_f((1, 3)) == Expansion("F", 4, {(1, 3): 1, (2, 2): 1})
    union = disjoint_union(SkewShape((2,)), SkewShape((1,)))
    ok = ok and dict(lr_expansion(union).terms) == {(3,): 1, (2, 1): 1}
    for n in range(1, 13):
        for k in range(0, n):
            e = schur_f((n - k,) + (1,) * k)
            ok = ok and len(e.terms) == comb(n - 1, k) and is_fmf(e)
            ok = ok and e == Expansion("F", n, schur_hook_form(n, k))
    report("7 point anchors", ok)


def test_c8_oracle_suites():
    inversion_ok = True
    for n in range(1, 11):
        ups: dict[tuple, list] = {}
        for beta in enumerate_compositions(n - 1):
            for gamma in covers_up(beta):
                ups.setdefault(gamma, []).append(beta)
        for alpha in enumerate_compositions(n):
            if sorted(covers_down(alpha)) != sorted(ups.get(alpha, [])):
                inversion_ok = False

    levels = chain_counts_by_level(9)
    counts_ok = all(
        sum(1 for _ in enumerate_sct(alpha)) == levels[n].get(alpha, 0)
        for n in range(1, 10)
        for alpha in enumerate_compositions(n)
    )

    hooks_ok = all(
        sum(1 for _ in enumerate_syt(SkewShape(lam))) == hook_length_count(lam)
        for n in range(0, 11)
        for lam in enumerate_partitions(n)
    )

    fast_ok = True
    runs_ok = True
    for n in range(0, 13):
        for alpha in compositions_with_parts_12(n):
            if qs_f_fast_12(alpha) != qs_f(alpha):
                fast_ok = False
            two_runs = [
                len(list(g)) for v, g in itertools.groupby(alpha) if v == 2
            ]
            if is_fmf(qs_f(alpha)) != all(e <= 4 for e in two_runs):
                runs_ok = False

    report(
        "8 oracle suites",
        inversion_ok and counts_ok and hooks_ok and fast_ok and runs_ok,
        f"inversion={inversion_ok} counts={counts_ok} hooks={hooks_ok} "
        f"fast12={fast_ok} runs<=4={runs_ok}",
    )


def test_c9_monotonicity_under_concatenation():
    comps = [c for m in range(0, 6) for c in enumerate_compositions(m)]
    violations = 0
    for alpha in comps:
        base = qs_f(alpha)
        for gamma in comps:
            suffixed = qs_f(alpha + gamma)
            prefixed = qs_f(gamma + alpha)
            for beta, c in base.terms.items():
                if c > suffixed.coefficient(beta + gamma):
                    violations += 1
                if c > prefixed.coefficient(gamma + beta):
                    violations += 1
    report(
        "9 coefficient monotonicity |alpha|,|gamma|<=5",
        violations == 0,
        f"{len(comps)}^2 concatenation pairs",
    )


def test_c5_corollary_two_rows_families_n_le_12():
    # the (2^a, 1^(n-2a)) families stay multiplicity-free exactly for a <= 4
    ok = True
    for n in range(1, 13):
        for a in range(0, n // 2 + 1):
            lam = (2,) * a + (1,) * (n - 2 * a)
            if brute_family_fmf(lam) != (a <= 4):
                ok = False
    report("5b two-row family corollary n<=12", ok)


def test_c4_family_anchor_agreement():
    # spot agreement between the family predicate and its ground truth on
    # the boundary cases called out explicitly
    cases = {
        (3, 2, 2): True,
        (2, 2, 2, 2, 2): False,
        (4, 3): True,
        (3, 3, 2): False,
        (2, 2, 1): True,
    }
    ok = all(
        predict_family(lam) == want and brute_family_fmf(lam) == want
        for lam, want in cases.items()
    )
    report("5c family anchor cases", ok)
