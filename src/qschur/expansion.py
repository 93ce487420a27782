"""Sparse graded expansions over an indexed basis.

An Expansion is a degree-n linear combination with nonnegative integer
coefficients, keyed by compositions (F and M bases) or partitions (schur
basis).  Terms iterate in lexicographic key order, which is also the
serialization order, so output is deterministic everywhere.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .compositions import Composition, _instance

BASES = ("F", "M", "schur")
_SYMBOL = {"F": "F", "M": "M", "schur": "s"}


class Expansion:
    __slots__ = ("basis", "degree", "_terms")

    def __init__(
        self,
        basis: str,
        degree: int,
        terms: Mapping[Composition, int] | Iterable[tuple[Composition, int]],
    ) -> None:
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        if type(degree) is not int or degree < 0:
            raise ValueError(f"degree must be nonnegative, and an int: {degree!r}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Composition, int] = {}
        for key, coeff in items:
            key = tuple(_instance(key, Iterable, "a key"))
            if type(coeff) is not int:
                raise ValueError(f"coefficient of {key} is not an integer: {coeff!r}")
            if coeff == 0:
                continue
            if coeff < 0:
                raise ValueError(f"negative coefficient for {key}: {coeff}")
            positive = all(type(p) is int and p >= 1 for p in key)
            if not positive or sum(key) != degree:
                raise ValueError(f"key {key} is not a composition of {degree}")
            if basis == "schur" and any(
                key[i] < key[i + 1] for i in range(len(key) - 1)
            ):
                raise ValueError(f"schur key {key} is not a partition")
            clean[key] = clean.get(key, 0) + coeff
        self.basis = basis
        self.degree = degree
        self._terms = dict(sorted(clean.items()))

    @classmethod
    def _trusted(
        cls, basis: str, degree: int, terms: dict[Composition, int], ordered=False
    ) -> "Expansion":
        """Wrap terms that are already valid, with positive coefficients (as
        the expansion engines produce them), skipping the checks of
        ``__init__``; the keys are ordered unless ``ordered`` says they are."""
        obj = cls.__new__(cls)
        obj.basis = basis
        obj.degree = degree
        obj._terms = terms if ordered else dict(sorted(terms.items()))
        return obj

    @property
    def terms(self) -> Mapping[Composition, int]:
        return MappingProxyType(self._terms)

    def coefficient(self, key: Composition) -> int:
        return self._terms.get(tuple(_instance(key, Iterable, "a key")), 0)

    def total(self) -> int:
        """Sum of all coefficients (the number of underlying tableaux)."""
        return sum(self._terms.values())

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[Composition, int]]:
        return iter(self._terms.items())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Expansion)
            and self.basis == other.basis
            and self.degree == other.degree
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.basis, self.degree, tuple(self._terms.items())))

    def __add__(self, other: "Expansion") -> "Expansion":
        if not isinstance(other, Expansion):
            return NotImplemented
        if self.basis != other.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        # Both sides hold valid keys and positive coefficients already.
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            terms[key] = terms.get(key, 0) + coeff
        return Expansion._trusted(self.basis, self.degree, terms)

    def __mul__(self, scalar: int) -> "Expansion":
        if type(scalar) is not int:  # nor a bool
            return NotImplemented
        if scalar < 0:
            raise ValueError("scalar must be nonnegative")
        # A multiple keeps the key order of ``self``.
        terms = {k: scalar * c for k, c in self._terms.items()} if scalar else {}
        return Expansion._trusted(self.basis, self.degree, terms, ordered=True)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Expansion({self.basis!r}, {self.degree}, {self._terms})"

    def to_text(self) -> str:
        sym = _SYMBOL[self.basis]
        lines = [
            f"{c} · {sym}[{','.join(map(str, key))}]" for key, c in self._terms.items()
        ]
        return "\n".join(lines) if lines else "0"

    def to_json_obj(self) -> dict:
        return {
            "basis": self.basis,
            "degree": self.degree,
            "terms": [
                {"index": list(key), "coefficient": c}
                for key, c in self._terms.items()
            ],
        }
