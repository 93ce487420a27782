"""Expansions in the fundamental quasisymmetric basis.

Three generators feed everything else: the quasisymmetric expansion of a
composition shape (by a level-by-level distribution of descent sets over the
cover chains that define composition tableaux), the expansion of a skew
shape (by a memoized distribution over standard-tableau descent sets), and
the Schur case as the straight-shape specialization.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Union

from .compositions import (
    Composition,
    DescentSet,
    Partition,
    complement,
    rearrangements,
    refinements,
    reverse,
)
from .ctableaux import _down_moves, des_c, enumerate_sct
from .errors import BudgetExceededError, capped
from .expansion import Expansion
from .shapes import SkewShape
from .young import des_p, enumerate_syt

TableauSource = Union[Composition, SkewShape]


def _qs_f_profile(alpha: Composition, max_tableaux: int | None) -> Expansion:
    """Count standard composition tableaux of shape ``alpha`` by descent set,
    one level of the cover chain at a time.

    Removing the cells 1, 2, ..., n in order walks an inverse cover chain
    down to the empty composition.  After removing cell i, a frontier state
    is the remaining composition with the column of cell i, and its value
    maps the descent bitmask of entries 1..i-1 to the number of chains that
    reach the state with it; entry i-1 is a descent when cell i sits weakly
    right of cell i-1.  Every nonempty composition has a down move, so the
    frontier's count never drops and ends at the number of tableaux.
    """
    n = sum(alpha)
    if n == 0:
        return Expansion("F", 0, {(): 1})
    # No column exceeds n, so the first removal never records a descent.
    frontier: dict[tuple[Composition, int], dict[int, int]] = {(alpha, n + 1): {0: 1}}
    for entry in range(1, n + 1):
        bit = 1 << (entry - 2) if entry > 1 else 0
        nxt: dict[tuple[Composition, int], dict[int, int]] = {}
        for (shape, last), masks in frontier.items():
            for col, child in _down_moves(shape):
                descent = bit if col >= last else 0
                into = nxt.setdefault((child, col), {})
                for mask, cnt in masks.items():
                    mask |= descent
                    into[mask] = into.get(mask, 0) + cnt
        frontier = nxt
        if max_tableaux is not None and (
            sum(sum(masks.values()) for masks in frontier.values()) > max_tableaux
        ):
            raise BudgetExceededError(
                f"composition tableaux of shape {alpha}", max_tableaux
            )
    by_mask: dict[int, int] = {}
    for masks in frontier.values():
        for mask, cnt in masks.items():
            by_mask[mask] = by_mask.get(mask, 0) + cnt
    terms = {_mask_to_composition(mask, n): cnt for mask, cnt in by_mask.items()}
    return Expansion("F", n, terms)


@lru_cache(maxsize=None)
def _qs_f_cached(alpha: Composition) -> Expansion:
    return _qs_f_profile(alpha, None)


def qs_f(alpha: Composition, max_tableaux: int | None = None) -> Expansion:
    """Fundamental expansion of the quasisymmetric Schur function of shape
    ``alpha``: the coefficient of a composition beta counts the standard
    composition tableaux of shape alpha with descent composition beta."""
    alpha = tuple(alpha)
    if any(p < 1 for p in alpha):
        raise ValueError(f"not a composition: {alpha}")
    if max_tableaux is None:
        return _qs_f_cached(alpha)
    return _qs_f_profile(alpha, max_tableaux)


def _mask_to_composition(mask: int, n: int) -> Composition:
    """Decode a descent bitmask (bit t set = descent at t+1) of degree n."""
    parts = []
    prev = 0
    pos = 1
    while mask:
        if mask & 1:
            parts.append(pos - prev)
            prev = pos
        mask >>= 1
        pos += 1
    parts.append(n - prev)
    return tuple(parts)


def skew_schur_f(shape: SkewShape, max_tableaux: int | None = None) -> Expansion:
    """Fundamental expansion of the skew Schur function of ``shape``.

    The coefficient of beta counts standard Young tableaux whose descent
    composition is beta.  Rather than materializing tableaux, this shares
    fill states: a state is the per-row frontier of filled cells, and its
    value is the distribution of (row of next entry, descent pattern of the
    remaining entries) over all completions.
    """
    n = shape.size
    if n == 0:
        return Expansion("F", 0, {(): 1})
    ivs = shape.row_intervals()
    r = len(ivs)
    ends = tuple(b for _, b in ivs)
    memo: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}

    def moves(ptr: tuple[int, ...]) -> list[int]:
        out = []
        for i in range(r):
            p = ptr[i]
            if p > ends[i]:
                continue
            if i:
                a_up, b_up = ivs[i - 1]
                if a_up < p <= b_up and ptr[i - 1] <= p:
                    continue
            out.append(i)
        return out

    def profiles(ptr: tuple[int, ...], remaining: int) -> dict[tuple[int, int], int]:
        cached = memo.get(ptr)
        if cached is not None:
            return cached
        out: dict[tuple[int, int], int] = {}
        for i in moves(ptr):
            if remaining == 1:
                key = (i, 0)
                out[key] = out.get(key, 0) + 1
                continue
            child = ptr[:i] + (ptr[i] + 1,) + ptr[i + 1 :]
            for (first, mask), cnt in profiles(child, remaining - 1).items():
                key = (i, (mask << 1) | (first > i))
                out[key] = out.get(key, 0) + cnt
        memo[ptr] = out
        return out

    top = profiles(tuple(a + 1 for a, _ in ivs), n)
    by_mask: dict[int, int] = {}
    for (_, mask), cnt in top.items():
        by_mask[mask] = by_mask.get(mask, 0) + cnt
    if max_tableaux is not None and sum(by_mask.values()) > max_tableaux:
        raise BudgetExceededError(f"tableaux of shape {shape}", max_tableaux)
    terms = {_mask_to_composition(mask, n): cnt for mask, cnt in by_mask.items()}
    return Expansion("F", n, terms)


@lru_cache(maxsize=None)
def _schur_f_cached(lam: Partition) -> Expansion:
    return skew_schur_f(SkewShape(lam))


def schur_f(lam: Partition, max_tableaux: int | None = None) -> Expansion:
    """Fundamental expansion of the Schur function of the partition ``lam``."""
    lam = tuple(lam)
    if max_tableaux is None:
        return _schur_f_cached(lam)
    return skew_schur_f(SkewShape(lam), max_tableaux)


def schur_via_qs(lam: Partition) -> Expansion:
    """Schur function assembled as the sum of the quasisymmetric Schur
    functions over all rearrangements of ``lam``; must agree with
    :func:`schur_f`."""
    lam = tuple(lam)
    total = Expansion("F", sum(lam), {})
    for alpha in rearrangements(lam):
        total = total + qs_f(alpha)
    return total


def f_to_m(e: Expansion) -> Expansion:
    """Change of basis: each F-term contributes to every refinement of its key."""
    if e.basis != "F":
        raise ValueError("f_to_m expects an F-expansion")
    terms: dict[Composition, int] = {}
    for key, coeff in e.terms.items():
        for beta in refinements(key):
            terms[beta] = terms.get(beta, 0) + coeff
    return Expansion("M", e.degree, terms)


def omega_f(e: Expansion) -> Expansion:
    """The involution sending the F-term at alpha to the F-term at the
    complement of the reverse of alpha."""
    if e.basis != "F":
        raise ValueError("omega_f expects an F-expansion")
    return Expansion(
        "F", e.degree, {complement(reverse(key)): c for key, c in e.terms.items()}
    )


def is_fmf(e: Expansion) -> bool:
    """True iff every coefficient is 0 or 1."""
    return all(c == 1 for c in e.terms.values())


def f_component_count(e: Expansion) -> int:
    """Number of keys with nonzero coefficient."""
    return len(e.terms)


def multiplicity_witnesses(
    source: TableauSource, max_tableaux: int | None = None
) -> list[tuple[DescentSet, object, object]]:
    """One witness pair of tableaux for every descent set hit at least
    twice; the empty list is equivalent to the expansion being
    multiplicity-free."""
    if isinstance(source, SkewShape):
        stream = enumerate_syt(source)
        stat = des_p
        what = f"tableaux of shape {source}"
    else:
        source = tuple(source)
        stream = enumerate_sct(source)
        stat = des_c
        what = f"composition tableaux of shape {source}"
    first: dict[DescentSet, object] = {}
    pairs: dict[DescentSet, tuple[object, object]] = {}
    for t in capped(stream, max_tableaux, what):
        d = stat(t)
        if d in pairs:
            continue
        if d in first:
            pairs[d] = (first[d], t)
        else:
            first[d] = t
    return [
        (d, a, b)
        for d, (a, b) in sorted(pairs.items(), key=lambda kv: tuple(kv[0]))
    ]
