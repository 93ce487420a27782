"""Command-line surface: expand, tableaux, check, witnesses, verify.

Exit codes: 0 success/verified, 1 multiplicity found or predicate refuted,
2 usage error, 3 budget exceeded.  ``--budget`` caps the tableaux of one
instance.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from . import classify
from .classify import DEFAULT_MAX_TABLEAUX, THEOREMS
from .compositions import _composition, _partition
from .errors import BudgetExceededError, capped
from .ctableaux import enumerate_sct
from .qsym import _counts, _f_expansion, _label
from .qsym import f_to_m, multiplicity_witnesses
from .shapes import SkewShape
from .young import enumerate_syt, lr_expansion


def _parse_parts(text: str | None, what: str) -> tuple[int, ...]:
    if not text:
        raise click.UsageError(f"missing or empty {what}")
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise click.UsageError(f"malformed {what}: {text!r}")


# The index flags each --kind reads, in order, and what it makes of their
# parts, which the library checks; an index flag that its --kind does not
# read is a usage error.
_KINDS = {
    "qs": (("composition",), _composition),
    "schur": (("partition",), lambda parts: SkewShape(_partition(parts))),
    "skew": (("outer", "inner"), SkewShape),
}


def _source(kind: str, flags: dict):
    """Resolve --kind plus the index flags into a composition or shape; an
    input the library rejects is a usage error."""
    names, make = _KINDS[kind]
    for name, value in flags.items():
        if value is not None and name not in names:
            raise click.UsageError(f"--{name} does not apply to --kind {kind}")
    # An omitted or empty --inner is the empty partition.
    given = [name for name in names if flags[name] or name != "inner"]
    try:
        return make(*(_parse_parts(flags[name], name) for name in given))
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _emit_json(obj) -> None:
    click.echo(json.dumps(obj, indent=2))


def _budget_guarded(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except BudgetExceededError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)

    return wrapper


_kind_option = click.option(
    "--kind", type=click.Choice(["qs", "schur", "skew"]), required=True
)
_index_options = [
    click.option("--composition", default=None, help="comma-separated parts"),
    click.option("--partition", default=None, help="comma-separated parts"),
    click.option("--outer", default=None, help="outer partition of a skew shape"),
    click.option("--inner", default=None, help="inner partition (default: empty)"),
]
_format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text"
)
_budget_option = click.option(
    "--budget",
    type=click.IntRange(min=1),
    default=DEFAULT_MAX_TABLEAUX,
    show_default=True,
)


@click.group()
def main() -> None:
    """Expansions of Schur-like functions in the fundamental quasisymmetric
    basis, and exhaustive verification of their classification predicates."""


def _source_command(*own_options):
    """Register the decorated function as a command on one composition or
    shape, with the options ``--kind``, the index flags, ``own_options``,
    ``--format`` and ``--budget`` in that order.  The function receives the
    resolved source and the kind first; a budget abort exits 3."""

    def register(f):
        @functools.wraps(f)
        def command(kind, composition, partition, outer, inner, **kwargs):
            flags = dict(
                composition=composition, partition=partition, outer=outer, inner=inner
            )
            return f(_source(kind, flags), kind, **kwargs)

        options = [_kind_option, *_index_options, *own_options]
        for option in reversed([*options, _format_option, _budget_option]):
            command = option(command)
        return main.command()(_budget_guarded(command))

    return register


@_source_command(
    click.option(
        "--basis", type=click.Choice(["f", "m", "schur"]), default="f", show_default=True
    )
)
def expand(source, kind, basis, fmt, budget) -> None:
    """Print a basis expansion for the requested index object."""
    if basis == "schur":
        if kind != "skew":
            raise click.UsageError("--basis schur requires --kind skew")
        result = lr_expansion(source, budget)
    else:
        result = _f_expansion(*_counts(source, budget))
        if basis == "m":
            result = f_to_m(result, budget)
    if fmt == "json":
        _emit_json(result.to_json_obj())
    else:
        click.echo(result.to_text())


@_source_command()
def tableaux(source, kind, fmt, budget) -> None:
    """Stream the standard tableaux of the requested shape."""
    listing = enumerate_sct(source) if kind == "qs" else enumerate_syt(source)
    stream = capped(listing, budget, _label(source))
    if fmt == "json":
        _emit_json([t.to_json_obj() for t in stream])
    else:
        blocks = [t.to_text() for t in stream]
        click.echo("\n\n".join(blocks) if blocks else "(no tableaux)")


@_source_command()
def check(source, kind, fmt, budget) -> None:
    """Report multiplicity-freeness and the number of F-components."""
    # One F-component per distinct descent set, each met by a tableau.
    _, by_mask = _counts(source, budget)
    components = len(by_mask)
    free = sum(by_mask.values()) == components
    if fmt == "json":
        _emit_json({"fmf": free, "components": components})
    else:
        click.echo(f"fmf: {'true' if free else 'false'}")
        click.echo(f"components: {components}")
    sys.exit(0 if free else 1)


@_source_command()
def witnesses(source, kind, fmt, budget) -> None:
    """Print a colliding pair of tableaux for every repeated descent set."""
    found = multiplicity_witnesses(source, budget)
    if fmt == "json":
        _emit_json([classify._witness_json(w) for w in found])
    else:
        if not found:
            click.echo("no repeated descent sets")
        for d, a, b in found:
            click.echo(f"descents {sorted(d.members)}:")
            click.echo(a.to_text())
            click.echo("--")
            click.echo(b.to_text())
    sys.exit(1 if found else 0)


@main.command()
@click.option("--theorem", type=click.Choice(list(THEOREMS)), required=True)
@click.option("--max-n", "max_n", type=click.IntRange(min=1), required=True)
@_budget_option
@_format_option
@_budget_guarded
def verify(theorem, max_n, budget, fmt) -> None:
    """Exhaustively compare a classification predicate with brute force."""
    report = classify.verify(theorem, max_n, budget)
    if fmt == "json":
        _emit_json(report.to_json_obj())
    else:
        click.echo(report.to_text())
    sys.exit(0 if report.verified else 1)


if __name__ == "__main__":
    main()
