"""Independent oracles used by the tests.

Everything here is deliberately written from first principles, without
going through the code paths it is used to check.
"""

import itertools
from math import factorial
from typing import Iterator

from qschur import (
    CompositionTableau,
    DescentSet,
    Expansion,
    SkewShape,
    SkewTableau,
    composition_of,
    conjugate,
    covers_down,
    covers_up,
    des_c,
    des_p,
    enumerate_sct,
    enumerate_syt,
    in_c2,
    in_c2_prime,
    qs_f,
    refinements,
)
from qschur.classify import _row_below_left_of_column
from qschur.errors import capped
from qschur.shapes import _from_intervals


def hook_length_count(lam: tuple[int, ...]) -> int:
    """Number of standard fillings of a straight shape, by the product
    formula over hook lengths."""
    if not lam:
        return 1
    conj = conjugate(lam)
    prod = 1
    for i, p in enumerate(lam):
        for j in range(p):
            prod *= p - j + conj[j] - i - 1
    return factorial(sum(lam)) // prod


def chain_counts_by_level(max_n: int) -> list[dict[tuple[int, ...], int]]:
    """Number of saturated chains from the empty composition to each
    composition, level by level, using only the upward cover relation."""
    levels = [{(): 1}]
    for _ in range(max_n):
        nxt: dict[tuple[int, ...], int] = {}
        for beta, c in levels[-1].items():
            for gamma in covers_up(beta):
                nxt[gamma] = nxt.get(gamma, 0) + c
        levels.append(nxt)
    return levels


def box_partitions(max_len: int, max_part: int) -> list[tuple[int, ...]]:
    out = [()]

    def rec(prefix: tuple[int, ...], slots: int, cap: int) -> None:
        for p in range(1, cap + 1):
            cur = prefix + (p,)
            out.append(cur)
            if slots > 1:
                rec(cur, slots - 1, p)

    if max_len and max_part:
        rec((), max_len, max_part)
    return out


def skew_shapes_by_pairs(n: int) -> set[SkewShape]:
    """Every size-n shape presented by some (outer, inner) pair inside an
    n-by-n box, deduplicated by canonical form.  A pair with an empty row
    presents the shape of the pair without that row, so only pairs whose
    rows are all nonempty are built."""
    found = set()
    # The partitions in each box, by size: an inner partition has n cells
    # fewer than its outer one.
    by_size: dict[tuple[int, int], dict[int, list]] = {}
    for outer in box_partitions(n, n):
        if not outer or sum(outer) < n:
            continue
        box = (len(outer), outer[0])
        if box not in by_size:
            by_size[box] = {}
            for inner in box_partitions(*box):
                by_size[box].setdefault(sum(inner), []).append(inner)
        for inner in by_size[box].get(sum(outer) - n, []):
            if all(map(int.__lt__, inner, outer)):  # rows all nonempty
                found.add(SkewShape(outer, inner))
    return found


def skew_shapes_by_sort(n: int) -> list[SkewShape]:
    """Every basic-form skew shape with ``n`` cells, ordered by (outer,
    inner): the rows are built by one recursion over the whole degree, which
    is then sorted at once."""
    if n == 0:
        return [SkewShape()]
    found: list[SkewShape] = []

    def rec(acc: list[tuple[int, int]], remaining: int) -> None:
        if remaining == 0:
            found.append(_from_intervals(tuple(acc)))
            return
        if acc:
            prev_a, prev_b = acc[-1]
            b_lo, b_hi = max(1, prev_a), min(prev_b, remaining)
            a_cap = prev_a
        else:
            b_lo, b_hi = 1, n
            a_cap = n
        for b in range(b_lo, b_hi + 1):
            for a in range(min(b - 1, a_cap) + 1):
                acc.append((a, b))
                rec(acc, remaining - (b - a))
                acc.pop()

    rec([], n)
    found.sort(key=lambda s: (s.outer, s.inner))
    return found


def compositions_by_cuts(n: int) -> list[tuple[int, ...]]:
    """Every composition of ``n``, one per choice of cuts among the n - 1
    gaps between n cells, sorted."""
    out = []
    for cuts in itertools.product((False, True), repeat=max(n - 1, 0)):
        parts, run = [], 1
        for cut in cuts:
            if cut:
                parts.append(run)
                run = 0
            run += 1
        out.append(tuple(parts + [run]) if n else ())
    return sorted(out)


def schur_listed(lam: tuple[int, ...]) -> bool:
    """True iff the partition ``lam`` itself, not its conjugate, is (3,3),
    (4,4), a two-row shape (n-2,2), or a hook."""
    if lam in ((3, 3), (4, 4)):
        return True
    if len(lam) == 2 and lam[1] == 2 and sum(lam) >= 4:
        return True
    return all(p == 1 for p in lam[1:])


def predict_family_by_counts(lam: tuple[int, ...]) -> bool:
    """The families of partitions whose rearrangements are all
    multiplicity-free, read off the parts one family at a time."""
    if lam in ((3, 3), (4, 3), (4, 4)):
        return True
    if all(p == 1 for p in lam[1:]):  # hooks
        return True
    if len(lam) >= 2 and lam[0] >= 3 and lam[1] == 2:
        if all(p == 1 for p in lam[2:]):
            return True
    if lam and lam[0] == 2:
        twos = sum(1 for p in lam if p == 2)
        if all(p == 1 for p in lam[twos:]) and 2 <= twos <= 4:
            return True
    return lam[:3] == (3, 2, 2) and all(p == 1 for p in lam[3:])


def predict_qs_components_by_slices(alpha: tuple[int, ...]) -> str:
    """Whether the quasisymmetric Schur function of ``alpha`` has "one",
    "two" or "more" F-terms, by testing every slice against :func:`in_c2`
    and :func:`in_c2_prime`."""
    tails = [alpha, alpha[1:]] if alpha else [alpha]
    if any(in_c2(tail) for tail in tails):
        return "one"
    # The defect is (1,3) or (2,2)/(2,3) at the very front, or (2,2)/(2,3)
    # reached through a 1-led run ending in 2, optionally preceded by one
    # part of any size.
    if alpha[:2] in ((1, 3), (2, 2), (2, 3)) and in_c2(alpha[2:]):
        return "two"
    for tail in tails:
        for i, part in enumerate(tail):
            if part in (2, 3) and in_c2_prime(tail[:i]) and in_c2(tail[i + 1 :]):
                return "two"
    return "more"


def transpose_by_cells(shape: SkewShape) -> SkewShape:
    """Transpose by reflecting every cell in the main diagonal."""
    return SkewShape.from_cells((j, i) for i, j in shape.cells)


def rotate180_by_cells(shape: SkewShape) -> SkewShape:
    """Rotate by a half turn of every cell inside the bounding box."""
    if not shape.outer:
        return shape
    nrows = len(shape.outer)
    ncols = shape.outer[0]
    return SkewShape.from_cells(
        (nrows + 1 - i, ncols + 1 - j) for i, j in shape.cells
    )


def predict_skew_by_variants(shape: SkewShape) -> bool:
    """Multiplicity-freeness of the skew Schur function of ``shape``: some
    variant under transpose and rotation is a listed straight shape or a
    row placed disjointly below-left of a column."""
    transposed = shape.transpose()
    variants = {shape, transposed, shape.rotate180(), transposed.rotate180()}
    for v in variants:
        if not v.inner:
            if schur_listed(v.outer):
                return True
        elif _row_below_left_of_column(v):
            return True
    return False


def skew_schur_f_pointer(shape: SkewShape) -> Expansion:
    """F-expansion of a skew shape by a memo private to the shape.

    A state is the per-row pointer to the next cell to fill, and its value
    maps (row of the next entry, descent mask of the remaining entries) to
    the number of completions.  Bit t of a mask is a descent at t + 1.
    """
    n = shape.size
    if n == 0:
        return Expansion("F", 0, {(): 1})
    ivs = shape.row_intervals()
    r = len(ivs)
    memo: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}

    def moves(ptr: tuple[int, ...]) -> list[int]:
        out = []
        for i in range(r):
            p = ptr[i]
            if p > ivs[i][1]:
                continue
            if i:
                a_up, b_up = ivs[i - 1]
                if a_up < p <= b_up and ptr[i - 1] <= p:
                    continue
            out.append(i)
        return out

    def profiles(ptr: tuple[int, ...], remaining: int) -> dict[tuple[int, int], int]:
        if ptr in memo:
            return memo[ptr]
        out: dict[tuple[int, int], int] = {}
        for i in moves(ptr):
            if remaining == 1:
                out[(i, 0)] = out.get((i, 0), 0) + 1
                continue
            child = ptr[:i] + (ptr[i] + 1,) + ptr[i + 1 :]
            for (first, mask), cnt in profiles(child, remaining - 1).items():
                key = (i, (mask << 1) | (first > i))
                out[key] = out.get(key, 0) + cnt
        memo[ptr] = out
        return out

    terms: dict[tuple[int, ...], int] = {}
    for (_, mask), cnt in profiles(tuple(a + 1 for a, _ in ivs), n).items():
        cuts = [0] + [t + 1 for t in range(n - 1) if mask >> t & 1] + [n]
        key = tuple(cuts[k + 1] - cuts[k] for k in range(len(cuts) - 1))
        terms[key] = terms.get(key, 0) + cnt
    return Expansion("F", n, terms)


def qs_f_frontier(alpha: tuple[int, ...]) -> Expansion:
    """F-expansion of a composition shape by a forward frontier over its
    inverse cover chains, private to the shape.

    Removing the cells 1, 2, ..., n in order walks a chain down to the empty
    composition.  After removing cell i, a frontier state is the remaining
    composition with the column of cell i, and its value maps the descent
    mask of entries 1..i-1 to the number of chains that reach the state with
    it; entry i-1 is a descent when cell i sits weakly right of cell i-1.
    """
    n = sum(alpha)
    if n == 0:
        return Expansion("F", 0, {(): 1})

    def removed_column(shape, child):
        if len(child) < len(shape):
            return 1
        return next(p for p, q in zip(shape, child) if p != q)

    # No column exceeds n, so the first removal never records a descent.
    frontier = {(alpha, n + 1): {0: 1}}
    for entry in range(1, n + 1):
        nxt: dict[tuple[tuple[int, ...], int], dict[int, int]] = {}
        for (shape, last), masks in frontier.items():
            for child in covers_down(shape):
                col = removed_column(shape, child)
                descent = 1 << (entry - 2) if entry > 1 and col >= last else 0
                into = nxt.setdefault((child, col), {})
                for mask, cnt in masks.items():
                    into[mask | descent] = into.get(mask | descent, 0) + cnt
        frontier = nxt
    terms: dict[tuple[int, ...], int] = {}
    for masks in frontier.values():
        for mask, cnt in masks.items():
            cuts = [0] + [t + 1 for t in range(n - 1) if mask >> t & 1] + [n]
            key = tuple(cuts[k + 1] - cuts[k] for k in range(len(cuts) - 1))
            terms[key] = terms.get(key, 0) + cnt
    return Expansion("F", n, terms)


def syt_by_recursion(shape: SkewShape) -> Iterator[SkewTableau]:
    """Standard Young tableaux of ``shape``: entries 1..n are placed in
    increasing order, each in every row whose next cell has no unfilled cell
    above it, top row first."""
    n = shape.size
    ivs = shape.row_intervals()
    rows = [[0] * (b - a) for a, b in ivs]
    ptr = [a + 1 for a, _ in ivs]

    def available(i: int) -> bool:
        p = ptr[i]
        if p > ivs[i][1]:
            return False
        if i == 0:
            return True
        a_up, b_up = ivs[i - 1]
        return not (a_up < p <= b_up and ptr[i - 1] <= p)

    def rec(entry: int) -> Iterator[SkewTableau]:
        if entry > n:
            yield SkewTableau(shape, rows)
            return
        for i in range(len(ivs)):
            if available(i):
                rows[i][ptr[i] - ivs[i][0] - 1] = entry
                ptr[i] += 1
                yield from rec(entry + 1)
                ptr[i] -= 1

    yield from rec(1)


def sct_by_recursion(alpha: tuple[int, ...]) -> Iterator[CompositionTableau]:
    """Standard composition tableaux of ``alpha``: cover chains walked
    downward, deleting a leading 1 before decrementing rows top to bottom.
    Each row carries its index in ``alpha``, so entries land at final-shape
    coordinates."""
    grid = [[0] * p for p in alpha]

    def rec(entry: int, state: tuple) -> Iterator[CompositionTableau]:
        if not state:
            yield CompositionTableau(grid)
            return
        if state[0][1] == 1:
            grid[state[0][0]][0] = entry
            yield from rec(entry + 1, state[1:])
        for idx, (orig, s) in enumerate(state):
            if s >= 2 and all(t[1] != s - 1 for t in state[:idx]):
                grid[orig][s - 1] = entry
                child = state[:idx] + ((orig, s - 1),) + state[idx + 1 :]
                yield from rec(entry + 1, child)

    yield from rec(1, tuple(enumerate(alpha)))


def multiplicity_witnesses_by_enumeration(source, max_tableaux=None) -> list:
    """Witness pairs by listing every tableau and tallying ``des_p`` or
    ``des_c``: for each descent set hit at least twice, the first two
    tableaux that hit it, in ascending order of descent set."""
    if isinstance(source, SkewShape):
        stream, stat = syt_by_recursion(source), des_p
        what = f"tableaux of shape {source}"
    else:
        source = tuple(source)
        stream, stat = sct_by_recursion(source), des_c
        what = f"composition tableaux of shape {source}"
    first: dict = {}
    pairs: dict = {}
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


def descent_tally(source) -> tuple[int, int]:
    """Number of tableaux of a skew shape or composition, listed one by
    one, and the number of distinct descent sets among them."""
    if isinstance(source, SkewShape):
        descents = [des_p(t) for t in enumerate_syt(source)]
    else:
        descents = [des_c(t) for t in enumerate_sct(tuple(source))]
    return len(descents), len(set(descents))


def f_to_m_by_refinements(e: Expansion) -> Expansion:
    """M-expansion of an F-expansion: each F-term adds its coefficient to
    every refinement of its key."""
    terms: dict[tuple[int, ...], int] = {}
    for key, coeff in e.terms.items():
        for beta in refinements(key):
            terms[beta] = terms.get(beta, 0) + coeff
    return Expansion("M", e.degree, terms)


def compositions_with_parts_12(n: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in (1, 2):
        if first <= n:
            for rest in compositions_with_parts_12(n - first):
                yield (first,) + rest


def _key(n: int, members: set[int]) -> tuple[int, ...]:
    return composition_of(DescentSet(n, members))


def two_part_closed_form(a: int, b: int) -> dict[tuple[int, ...], int] | None:
    """Closed-form F-expansions for two-part composition shapes, stated
    directly in terms of descent sets; None outside the covered ranges."""
    n = a + b
    if b == 1 and n >= 3:
        return {_key(n, {n - 1}): 1}
    if a == 1 and n >= 3:
        return {_key(n, {i}): 1 for i in range(1, n - 1)}
    if b == 2 and n >= 5:
        terms = {_key(n, {n - 2}): 1}
        terms.update({_key(n, {i, n - 1}): 1 for i in range(1, n - 2)})
        return terms
    if a == 2 and n >= 5:
        terms = {_key(n, {i}): 1 for i in range(2, n - 2)}
        terms.update(
            {_key(n, {i, j}): 1 for j in range(3, n - 1) for i in range(1, j - 1)}
        )
        return terms
    if b == 3 and n >= 7:
        terms = {_key(n, {n - 3}): 1, _key(n, {n - 4, n - 2}): 1}
        terms.update({_key(n, {i, n - 2}): 1 for i in range(1, n - 4)})
        terms.update({_key(n, {i, n - 1}): 1 for i in range(2, n - 3)})
        terms.update(
            {
                _key(n, {i, j, n - 1}): 1
                for j in range(3, n - 2)
                for i in range(1, j - 1)
            }
        )
        return terms
    return None


def schur_hook_form(n: int, k: int) -> dict[tuple[int, ...], int]:
    """F-expansion of the hook (n-k, 1^k): one term per k-subset of [n-1]."""
    return {
        _key(n, set(R)): 1 for R in itertools.combinations(range(1, n), k)
    }


def schur_two_row_form(n: int) -> dict[tuple[int, ...], int]:
    """F-expansion of (n-2, 2) for n >= 4."""
    terms = {_key(n, {i}): 1 for i in range(2, n - 1)}
    terms.update(
        {_key(n, {i, j}): 1 for j in range(3, n) for i in range(1, j - 1)}
    )
    return terms


def qs_f_fast_12(alpha: tuple[int, ...]) -> Expansion:
    """Product-formula fast path for compositions with all parts in {1, 2}.

    Runs of 1s pass through unchanged; each run of e twos contributes the
    distribution of qs_f((2,)*e), and keys concatenate blockwise.
    """
    alpha = tuple(alpha)
    if any(p not in (1, 2) for p in alpha):
        raise ValueError(f"parts must all be 1 or 2: {alpha}")
    terms: dict[tuple[int, ...], int] = {(): 1}
    for value, block in itertools.groupby(alpha):
        run = len(list(block))
        if value == 1:
            tail = (1,) * run
            terms = {key + tail: c for key, c in terms.items()}
        else:
            factor = qs_f((2,) * run)
            merged: dict[tuple[int, ...], int] = {}
            for key, c in terms.items():
                for gamma, d in factor.terms.items():
                    joined = key + gamma
                    merged[joined] = merged.get(joined, 0) + c * d
            terms = merged
    return Expansion("F", sum(alpha), terms)
