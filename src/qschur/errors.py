"""Shared error types and budget plumbing."""

from __future__ import annotations

from typing import Iterable, Iterator, TypeVar

T = TypeVar("T")


class BudgetExceededError(RuntimeError):
    """An enumeration grew past its configured tableau budget."""

    def __init__(self, what: str, budget: int) -> None:
        super().__init__(f"{what} exceeded the tableau budget of {budget}")
        self.what = what
        self.budget = budget


def _budget(budget: int | None) -> int | None:
    """``budget``, checked to be None, for no cap, or an int of at least 1."""
    if budget is not None and (type(budget) is not int or budget < 1):
        raise ValueError(f"a budget must be None or an int of at least 1: {budget!r}")
    return budget


def capped(items: Iterable[T], budget: int | None, what: str) -> Iterator[T]:
    """Re-yield ``items``, raising loudly after ``budget`` of them."""
    if budget is None:
        yield from items
        return
    for count, item in enumerate(items, start=1):
        if count > budget:
            raise BudgetExceededError(what, budget)
        yield item
