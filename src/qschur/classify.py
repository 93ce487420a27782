"""Closed-form classification predicates and the brute-force verification
harness that checks them exhaustively up to a degree bound.

One table, ``_THEOREMS``, holds what ``verify`` needs of each theorem: its
instances of each degree, the label key of an instance, and its check.
``THEOREMS`` lists its names in order."""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple, Union

from .compositions import (
    Composition,
    Partition,
    _composition,
    _descent_mask,
    _instance,
    _partition,
    _rearranged,
    enumerate_compositions,
    enumerate_partitions,
    rearrangements,
)
from .ctableaux import _covers_up
from .errors import _budget
from .qsym import _EMPTY_LEVEL, _clean_profile_of, _clean_root, _closure_counts
from .qsym import _closure_step, _counts, _evict, _f_expansion, _narrow_profile_of
from .qsym import _narrow_root, _qs_moves, _rotated_parents, _rotated_rows, _skew_moves
from .qsym import _skew_parents, _sweep_counts, _two_part_parents
from .qsym import multiplicity_witnesses
from .shapes import SkewShape, _from_intervals, enumerate_skew_shapes

DEFAULT_MAX_TABLEAUX = 10_000_000

Instance = Union[Composition, Partition, SkewShape]


def in_c2(alpha: Composition) -> bool:
    """Interleaved runs of 1s separated by single 2s: all parts in {1, 2},
    no leading 2, no two adjacent 2s.  Contains the empty composition.  A
    part below 1 raises :class:`ValueError`."""
    alpha = _composition(alpha)
    # Each part is a 1, or a 2 after a 1; a 0 stands before the first part.
    return all(p == 1 or p == 2 and q == 1 for q, p in zip((0,) + alpha, alpha))


def in_c2_prime(alpha: Composition) -> bool:
    """The members of :func:`in_c2` that start with a 1 and end with a 2.
    A part below 1 raises :class:`ValueError`."""
    alpha = _composition(alpha)
    return in_c2(alpha) and bool(alpha) and alpha[-1] == 2 and alpha[0] == 1


def _schur_listed(lam: Partition) -> bool:
    """:func:`predict_schur` on a partition, unchecked.  A later part is at
    most ``lam[1]``, so ``lam[1] == 1`` makes a hook; the others listed are
    (m, 2), (3, 3) and (4, 4), and their conjugates (2, 2, 1, ..., 1),
    (2, 2, 2) and (2, 2, 2, 2)."""
    if len(lam) < 3:
        return len(lam) < 2 or lam[1] <= 2 or lam in ((3, 3), (4, 4))
    return lam[1] == 1 or lam[:3] == (2, 2, 1) or lam in ((2, 2, 2), (2, 2, 2, 2))


def predict_schur(lam: Partition) -> bool:
    """Multiplicity-freeness of the Schur function of ``lam``: the partition
    or its conjugate is (3,3), (4,4), a two-row shape (n-2,2), or a hook.
    A part below 1 or an increasing pair of parts raises
    :class:`ValueError`."""
    return _schur_listed(_partition(lam))


def _row_below_left_of_column(shape: SkewShape) -> bool:
    """True iff ``shape`` is a row of m >= 1 cells with a column of k >= 1
    cells placed disjointly above-right of it: k rows (m, m+1] over a last
    row (0, m].  In basic form the last row always starts in column 1, and
    as the starts and ends weakly decrease, the rows above it are (m, m+1]
    when the first and the last of them are."""
    ivs = shape.row_intervals()
    return len(ivs) > 1 and ivs[0] == ivs[-2] == (ivs[-1][1], ivs[-1][1] + 1)


def predict_skew(shape: SkewShape) -> bool:
    """Multiplicity-freeness of the skew Schur function of ``shape``: up to
    transpose and rotation by 180 degrees, a listed straight shape or a row
    placed disjointly below-left of a column.  Read on the row intervals,
    that is one of four families:

    - the shape is straight and :func:`predict_schur` holds;
    - every row ends in the last column, so the rotation is straight, and
      :func:`predict_schur` holds for it;
    - a row lies below-left of a column (:func:`_row_below_left_of_column`);
    - a column lies below-left of a row: a row (1, m + 1] over rows (0, 1].

    Transposing maps each family to itself, since :func:`predict_schur`
    also checks the conjugate, so no transpose is checked.  Rotating swaps
    the first two families and the last two, so no rotation is built.  The
    starts and the ends of the rows weakly decrease, so every row ends in
    the last column when the last row does, and the rows below the first
    are (0, 1] when the second and the last are.  Anything but a
    :class:`SkewShape` raises :class:`ValueError`.
    """
    ivs = _instance(shape, SkewShape, "a skew shape").row_intervals()
    if not ivs or not ivs[0][0]:
        return _schur_listed(shape.outer)
    width = ivs[0][1]
    if ivs[-1][1] == width:
        return _schur_listed(tuple(width - a for a, _ in reversed(ivs)))
    return _row_below_left_of_column(shape) or (
        ivs[0][0] == 1 and ivs[1] == ivs[-1] == (0, 1)
    )


def predict_qs_components(alpha: Composition) -> str:
    """Number of F-terms of the quasisymmetric Schur function of ``alpha``,
    classified as "one", "two", or "more".

    "one": ``alpha`` lies in C2 (:func:`in_c2`) after at most one free
    leading part.  "two": it is (1, 3), (2, 2) or (2, 3) followed by a
    member of C2; or, after at most one free leading part, a member of C2'
    (:func:`in_c2_prime`), then a 2 or a 3, then a member of C2.

    One right-to-left pass finds ``start``, where the longest suffix of 1s
    and 2s with no two adjacent 2s begins, and checks every part; the
    suffix from i lies in C2 iff i >= start and it is empty or led by a 1.
    Then one left-to-right pass from each of positions 0 and 1 extends a
    C2' prefix as far as it goes.  A part that is not an int of at least 1
    raises :class:`ValueError`.
    """
    if type(alpha) is not tuple:
        alpha = tuple(_instance(alpha, Iterable, "a composition"))
    n = start = len(alpha)
    padded = alpha + (1,)  # the empty suffix lies in C2
    for i in range(n - 1, -1, -1):
        part = alpha[i]
        if type(part) is not int or part < 1:
            raise ValueError(f"not a composition: {alpha}")
        if start == i + 1 and (part == 1 or part == 2 and padded[i + 1] == 1):
            start = i
    # The suffix from i lies in C2 iff start <= i and padded[i] == 1.
    if start == 0 and padded[0] == 1 or start <= 1 and padded[1] == 1:
        return "one"
    if alpha[:2] in ((1, 3), (2, 2), (2, 3)) and start <= 2 and padded[2] == 1:
        return "two"
    for s in (0, 1):
        if padded[s] != 1:  # a C2' prefix starts with a 1
            continue
        prev = 1
        for j in range(s + 1, n):
            part = alpha[j]
            if prev == 2 and part in (2, 3) and start <= j + 1 and padded[j + 1] == 1:
                return "two"
            if part > 2 or part == prev == 2:
                break
            prev = part
    return "more"


def predict_two_part(alpha: Composition) -> bool:
    """Multiplicity-freeness for two-part composition shapes.  Another
    number of parts, or a part that is not an int of at least 1, raises
    :class:`ValueError`."""
    alpha = _composition(alpha)
    if len(alpha) != 2:
        raise ValueError(f"expected a two-part composition: {alpha}")
    a, b = alpha
    return a <= 2 or b <= 3 or alpha in ((3, 4), (4, 4), (4, 5))


def predict_family(lam: Partition) -> bool:
    """True iff every rearrangement of ``lam`` indexes a multiplicity-free
    quasisymmetric Schur function.  A part below 1 or an increasing pair of
    parts raises :class:`ValueError`."""
    lam = _partition(lam)
    # A part is at most the one before it, so lam[i] == 1 makes every part
    # from i on a 1, and lam[i : i + 1] in ((), (1,)) says they all are.
    if len(lam) < 2 or lam[1] == 1 or lam in ((3, 3), (4, 3), (4, 4)):
        return True  # hooks, and three more
    if lam[1] != 2:
        return False
    if lam[0] == 2:  # two to four 2s, then 1s
        return lam[4:5] != (2,)
    # (m, 2, 1, ..., 1) with m >= 3, and (3, 2, 2, 1, ..., 1)
    return lam[2:3] in ((), (1,)) or lam[:3] == (3, 2, 2) and lam[3:4] in ((), (1,))


def _family_kept(lam: Partition, kept) -> bool:
    """Whether ``kept`` passes every rearrangement of the checked partition
    ``lam``, in the order of :func:`rearrangements`; the rearrangements are
    made one at a time, and none after the first that fails."""
    return all(kept(alpha) is not None for alpha in _rearranged(lam))


def brute_family_fmf(lam: Partition, max_tableaux: int | None = None) -> bool:
    """Ground truth for :func:`predict_family`: whether every rearrangement
    of ``lam`` is multiplicity-free, read off clean levels of the qsym
    engine that this call builds and holds for itself.  Those levels store
    only masks, one per tableau, and a rearrangement is multiplicity-free
    iff it is clean and no mask repeats across its entries.
    ``max_tableaux`` caps the tableaux of each rearrangement read with a
    clean profile, and nothing else, so a rearrangement that is not clean
    answers False where :func:`qsym.qs_f` may raise
    :class:`BudgetExceededError`.  A part
    below 1 or an increasing pair of parts raises :class:`ValueError`; that
    check is the only one, since the engine reads the rearrangements of a
    checked partition unchecked, one at a time, up to the first that is
    not multiplicity-free.  A budget that is not None or an int of at least
    1 raises :class:`ValueError` too."""
    return _family_kept(_partition(lam), _sweep_counts({}, 0, _budget(max_tableaux)))


class Disagreement(NamedTuple):
    """One instance on which a predicate and the brute-force truth differ,
    as an immutable named tuple.

    ``instance`` labels the instance by its JSON-ready parts, such as
    ``{"partition": [2, 2]}`` or ``{"outer": [...], "inner": [...]}``.
    ``predicted`` is the predicate's answer and ``truth`` the brute-force
    one.  ``witnesses`` holds JSON objects of tableau pairs sharing a
    descent set, or of the F-terms when no such pair exists; it may be
    empty."""

    instance: dict
    predicted: object
    truth: object
    witnesses: tuple

    def to_json_obj(self) -> dict:
        return {
            "instance": self.instance,
            "predicted": self.predicted,
            "truth": self.truth,
            "witnesses": list(self.witnesses),
        }


class VerificationReport(NamedTuple):
    """The result of :func:`verify`, as an immutable named tuple.

    ``theorem`` names the theorem checked and ``max_n`` the degree bound.
    ``checked`` counts the instances compared, and ``disagreements`` holds
    a :class:`Disagreement` for each instance where the predicate and the
    truth differ, in canonical instance order."""

    theorem: str
    max_n: int
    checked: int
    disagreements: tuple[Disagreement, ...]

    @property
    def verified(self) -> bool:
        return not self.disagreements

    def to_json_obj(self) -> dict:
        return {
            "theorem": self.theorem,
            "max_n": self.max_n,
            "checked": self.checked,
            "disagreements": [d.to_json_obj() for d in self.disagreements],
        }

    def to_text(self) -> str:
        lines = [
            f"theorem: {self.theorem}",
            f"max-n: {self.max_n}",
            f"checked: {self.checked}",
            f"disagreements: {len(self.disagreements)}",
        ]
        for d in self.disagreements:
            lines.append(
                f"  {d.instance} predicted={d.predicted} truth={d.truth} "
                f"witnesses={len(d.witnesses)}"
            )
        lines.append(f"verdict: {'verified' if self.verified else 'refuted'}")
        return "\n".join(lines)


def _witness_json(witness: tuple) -> dict:
    """JSON object of one witness from :func:`multiplicity_witnesses`."""
    d, first, second = witness
    return {
        "degree": d.degree,
        "descents": sorted(d.members),
        "first": first.to_json_obj(),
        "second": second.to_json_obj(),
    }


def _witnesses_json(source, max_tableaux: int | None) -> tuple:
    return tuple(map(_witness_json, multiplicity_witnesses(source, max_tableaux)))


def _fmf_check(
    predicted: bool, truth: bool, witness_source: Instance, budget: int | None
) -> tuple | None:
    """``(predicted, truth, witnesses)`` when ``predicted`` is not the
    multiplicity-freeness ``truth``, else None.  The witnesses are searched
    in ``witness_source``, and only for a disagreement."""
    if predicted == truth:
        return None
    return predicted, truth, _witnesses_json(witness_source, budget)


def _schur_check(lam: Partition, budget: int | None, kept) -> tuple | None:
    # The rotation has the same expansion; see the qsym docstring.  The
    # shape of lam itself is built only for a disagreement's witnesses.
    truth = kept(_from_intervals(_rotated_rows(lam))) is not None
    predicted = predict_schur(lam)
    if predicted == truth:
        return None
    return _fmf_check(predicted, truth, SkewShape(lam), budget)


def _skew_check(shape: SkewShape, budget: int | None, kept) -> tuple | None:
    return _fmf_check(predict_skew(shape), kept(shape) is not None, shape, budget)


def _two_part_check(alpha: Composition, budget: int | None, kept) -> tuple | None:
    truth = kept(alpha) is not None
    return _fmf_check(predict_two_part(alpha), truth, alpha, budget)


def _components_check(alpha: Composition, budget: int | None, kept) -> tuple | None:
    predicted = predict_qs_components(alpha)
    # The narrow counts are those of shapes with at most two terms.
    counts = kept(alpha)
    truth = "more" if counts is None else "one" if len(counts) == 1 else "two"
    # The one- and two-term statements also pin the terms themselves: the
    # own mask is a term, once.  With one term it is then the only one.
    pinned = counts is None or counts.get(_descent_mask(alpha)) == 1
    if predicted == truth and pinned:
        return None
    expansion = _f_expansion(*_counts(alpha, budget))
    if not pinned:
        truth = f"{truth} (terms: {sorted(expansion.terms)})"
    witnesses = _witnesses_json(alpha, budget) or (
        {"terms": [list(k) for k in expansion.terms]},
    )
    return predicted, truth, witnesses


def _families_check(lam: Partition, budget: int | None, kept) -> tuple | None:
    predicted = predict_family(lam)
    truth = _family_kept(lam, kept)
    if predicted == truth:
        return None
    found = (_witnesses_json(alpha, budget) for alpha in rearrangements(lam))
    return predicted, truth, next(filter(None, found), ())


# Each theorem's instances of degree n, the label key of an instance that is
# a tuple (a skew shape is labelled by its outer and inner partitions), and
# its check: ``(predicted, truth, witnesses)`` for a disagreement, else None.
# A check reads its truth through ``kept``: what the level's reader finds of
# a source off the closure level of its degree, for a theorem in
# ``_CLOSURES``, or else its masks off the clean levels of ``verify``'s
# bottom-up sweep; None where the source fails.  The instances and the
# checks call the module's enumerators, predicates and engine by name at
# call time, so that patching one of them on this module, as a tracer does,
# reaches ``verify``.
_THEOREMS = {
    "schur": (lambda n: enumerate_partitions(n), "partition", _schur_check),
    "skew": (lambda n: enumerate_skew_shapes(n), None, _skew_check),
    "qs-components": (
        lambda n: enumerate_compositions(n), "composition", _components_check
    ),
    "two-part": (
        lambda n: ((a, n - a) for a in range(1, n)), "composition", _two_part_check
    ),
    "families": (lambda n: enumerate_partitions(n), "partition", _families_check),
}
# The closure levels the truth of a theorem is read off: the parents and the
# moves of its states, and the level's builder and reader, which say what it
# stores (qsym's ``Build`` and ``Read``).  Families sweeps the clean levels
# bottom-up instead, as a multiplicity-free theorem left out of this table
# would: a family stops at its first rearrangement that fails.
_CLOSURES = {
    "schur": (_rotated_parents, _skew_moves, _clean_profile_of, _clean_root),
    "skew": (_skew_parents, _skew_moves, _clean_profile_of, _clean_root),
    "qs-components": (_covers_up, _qs_moves, _narrow_profile_of, _narrow_root),
    "two-part": (_two_part_parents, _qs_moves, _clean_profile_of, _clean_root),
}
THEOREMS = tuple(_THEOREMS)


def verify(
    theorem: str,
    max_n: int,
    max_tableaux: int | None = DEFAULT_MAX_TABLEAUX,
) -> VerificationReport:
    """Compare a classification predicate against brute-force truth on every
    instance of degree at most ``max_n``, in canonical instance order.

    The truth is read off pruned states of the qsym engine that the call
    builds and holds for itself, and a disagreement is reported through the
    counting engine.  Either way ``max_tableaux`` caps tableaux: the truth
    checks it on every instance whose truth it reads off a clean or narrow
    profile, in instance order.  A theorem in ``_CLOSURES`` builds one
    closure level per degree; families sweeps bottom-up, holding levels
    n - 2 to n, and stores each instance below ``max_n`` in level n for the
    degree above (see the qsym docstring).  A bad theorem, ``max_n`` or
    budget raises :class:`ValueError`."""
    if type(max_n) is not int or max_n < 1:
        raise ValueError(f"max_n must be an int of at least 1: {max_n!r}")
    max_tableaux = _budget(max_tableaux)
    if _instance(theorem, str, "a theorem name") not in _THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}; expected one of {THEOREMS}")
    (instances_of, key, check), closure = _THEOREMS[theorem], _CLOSURES.get(theorem)
    checked = 0
    disagreements = []
    levels: dict = {}  # the sweep's clean levels
    level, kept = _EMPTY_LEVEL, _sweep_counts(levels, max_n, max_tableaux)
    for n in range(1, max_n + 1):
        _evict(levels, n)
        if closure:
            level = _closure_step(level, *closure[:3])
            kept = _closure_counts(level, closure[3], max_tableaux)
        # Counted as they go, so no list of a degree's instances is held.
        for inst in instances_of(n):
            checked += 1
            found = check(inst, max_tableaux, kept)
            if found is None:
                continue
            named = {key: inst} if key else {"outer": inst.outer, "inner": inst.inner}
            label = {k: list(parts) for k, parts in named.items()}
            disagreements.append(Disagreement(label, *found))
    return VerificationReport(theorem, max_n, checked, tuple(disagreements))
