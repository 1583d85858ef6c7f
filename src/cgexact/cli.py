"""Command-line front end: single coefficients, tables and verification.

Exit codes are uniform across subcommands: 0 success, 1 input error
(including malformed quantum numbers and unwritable paths), 2 verification
or cross-route agreement failure.  Data output is deterministic; only the
elapsed times that `verify` reports vary between runs.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Callable, Iterable, Sequence
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

import click

from . import __version__
from .formulas import (
    CouplingSpec,
    MalformedCouplingError,
    cg_alternative,
    cg_racah,
)
from .ladder import CoefficientRecord, TableRoute, build_full_table, cg_ladder
from .ladder import _new_record, _set_exact, _set_J, _set_M, _set_m1, _set_m2
from .numerics import HalfInt, RadicalSum, _CollectorPaused, to_decimal
from .verification import CHECKS, run_checks

__all__ = [
    "cli",
    "main",
    "parse_table_csv",
    "parse_table_json",
    "records_to_csv",
    "records_to_json",
    "records_to_pretty",
]

#: the columns of a table row, in every format
_FIELDS = ("J", "M", "m1", "m2", "exact", "value")

CSV_HEADER = ",".join(_FIELDS)

#: the fields of a row that parse back to a record, in record order; the
#: value column is rendered from the exact one and is not read
_PARSED_FIELDS = _FIELDS[:5]

#: the `_PARSED_FIELDS` of a json row, looked up once each
_parsed_fields = itemgetter(*_PARSED_FIELDS)

_COEFF_ROUTES = {
    "alternative": cg_alternative,
    "racah": cg_racah,
    "ladder": cg_ladder,
}


def _halfint(label: str, text: str) -> HalfInt:
    """Parse a CLI half-integer ('2', '3/2', '1.5', '-1/2') or exit 1."""
    try:
        return HalfInt(text)
    except ValueError:
        click.echo(f"error: invalid half-integer for {label}: {text!r}", err=True)
        sys.exit(1)


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        click.echo(f"error: cannot write {out!r}: {exc}", err=True)
        sys.exit(1)


# ---------------------------------------------------------------------------
# Table rendering and parsing
# ---------------------------------------------------------------------------


class _Memo(dict):
    """A dict whose missing key gets the entry ``make(key)`` on its first
    lookup, stored unless ``make`` raises: a hit is one dict lookup, with
    no Python-level call.  Each table call makes its own memos, so none
    outlives the call."""

    __slots__ = ("make",)

    def __init__(self, make: Callable) -> None:
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _text_rows(
    records: list[CoefficientRecord], quote: Callable[[str], str] = str
) -> list[tuple[str, ...]]:
    """The texts of every record in `_FIELDS` order, the value's as
    `CoefficientRecord.exact_text` and `value_text` render it, each passed
    through ``quote``.  The rows of one table repeat their quantum numbers
    and often their values, so each distinct quantum number (keyed by its
    doubled value) and each distinct value (keyed by its canonical terms)
    is rendered and quoted once per call.  The row loop runs with the
    cyclic collector paused."""
    number = _Memo(lambda twice: quote(str(HalfInt.from_twice(twice))))
    exact: dict[tuple, tuple[str, str]] = {}
    rows = []
    append = rows.append
    with _CollectorPaused():
        for r in records:
            value = r.exact
            if (texts := exact.get(value._terms)) is None:
                texts = exact[value._terms] = (quote(str(value)), quote(to_decimal(value, 5)))
            exact_text, value_text = texts
            append((
                number[r.J.twice], number[r.M.twice], number[r.m1.twice], number[r.m2.twice],
                exact_text, value_text,
            ))
    return rows


def records_to_csv(records: list[CoefficientRecord]) -> str:
    lines = [CSV_HEADER, *map(",".join, _text_rows(records))]
    return "\n".join(lines) + "\n"


#: one row of `records_to_json`, a %-template of its six quoted texts
_JSON_ROW = "  {\n" + ",\n".join(f"    {_quote(key)}: %s" for key in _FIELDS) + "\n  }"


def records_to_json(records: list[CoefficientRecord]) -> str:
    """The bytes of ``json.dumps(rows, indent=2) + "\\n"`` for rows of
    `_FIELDS` objects, written directly: each text quoted and escaped as
    `json` escapes it, in `_JSON_ROW`'s layout."""
    if not records:
        return "[]\n"
    rows = [_JSON_ROW % row for row in _text_rows(records, _quote)]
    return "[\n" + ",\n".join(rows) + "\n]\n"


def records_to_pretty(records: list[CoefficientRecord]) -> str:
    rows = [_FIELDS, *_text_rows(records)]
    widths = [max(len(row[i]) for row in rows) for i in range(6)]
    lines = []
    for row in rows:
        cells = [row[i].rjust(widths[i]) for i in range(4)]
        cells.append(row[4].ljust(widths[4]))
        cells.append(row[5].rjust(widths[5]))
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def _nonzero_value(text: str) -> RadicalSum:
    """The value of a row's exact text, by `RadicalSum.parse` as bound when
    called; a table holds only nonzero coefficients, so 0 raises."""
    if value := RadicalSum.parse(text):
        return value
    raise ValueError(f"exact value {text!r} is 0; a table holds only nonzero coefficients")


def _read_rows(
    place: str, first: int, rows: Iterable[Sequence[str]], width: int
) -> list[CoefficientRecord]:
    """The record of each row of ``rows``, a sequence of ``width`` texts
    whose first five are its `_PARSED_FIELDS`, numbered from ``first``.

    The rows of one table repeat their quantum numbers and often their
    values, so each distinct half-integer text and each distinct exact
    text is parsed once, on its first lookup in a `_Memo`, and rows with
    equal texts share one HalfInt or one RadicalSum, both immutable; a row
    whose texts were all seen before makes no Python-level call.  A row of
    another width, a text that is not a half-integer or an exact value, or
    a row that no table holds (M other than m1 + m2, |M| above J, J + M not
    an integer, or an exact value of 0) raises ValueError naming ``place``
    ("line" or "row") and the number.
    """
    half = _Memo(HalfInt)
    exact = _Memo(_nonzero_value)
    records = []
    append = records.append
    for number, fields in enumerate(rows, first):
        try:
            if len(fields) != width:
                raise ValueError(f"expected {width} fields, got {len(fields)}")
            J, M, m1, m2, text = fields[:5]
            J, M, m1, m2 = half[J], half[M], half[m1], half[m2]
            tJ, tM = J.twice, M.twice
            if tM != m1.twice + m2.twice:
                raise ValueError(f"M={M} is not m1 + m2 = {m1} + {m2}")
            if abs(tM) > tJ:
                raise ValueError(f"|M|={abs(M)} exceeds J={J}")
            if (tJ + tM) & 1:
                raise ValueError(f"J + M = {J + M} is not an integer")
            value = exact[text]
        except ValueError as exc:
            raise ValueError(f"{place} {number}: {exc}") from None
        record = _new_record(CoefficientRecord)
        _set_J(record, J)
        _set_M(record, M)
        _set_m1(record, m1)
        _set_m2(record, m2)
        _set_exact(record, value)
        append(record)
    return records


def parse_table_csv(text: str) -> list[CoefficientRecord]:
    """Inverse of records_to_csv; the value column is not read, since it is
    rendered from the exact one.  Text whose first nonblank line is not
    the header, a line without six fields, a bad half-integer, bad exact
    text or a row that no table holds raises ValueError naming the 1-based
    line, the header being line 1.  The rows are read with the cyclic
    collector paused.
    """
    body = text.lstrip("\n")
    first = len(text) - len(body) + 1  # the header's line number
    lines = body.rstrip("\n").split("\n")
    if lines[0] != CSV_HEADER:
        raise ValueError(f"missing csv header {CSV_HEADER!r}: line {first} is {lines[0]!r}")
    with _CollectorPaused():
        rows = map(str.split, islice(lines, 1, None), repeat(","))
        return _read_rows("line", first + 1, rows, len(_FIELDS))


def parse_table_json(text: str) -> list[CoefficientRecord]:
    """Inverse of records_to_json.  A document that is not an array, a row
    that is not an object or lacks a field, a field that is not a string,
    a bad half-integer, bad exact text or a row that no table holds raises
    ValueError naming the 0-based row index.  The document is loaded and
    read with the cyclic collector paused.
    """
    with _CollectorPaused():
        document = json.loads(text)
        if not isinstance(document, list):
            raise ValueError("a json table must be an array of rows")
        rows = []
        append = rows.append
        problem = None
        for index, row in enumerate(document):
            if not isinstance(row, dict):
                problem = "not an object"
                break
            try:
                fields = J, M, m1, m2, exact = _parsed_fields(row)
            except KeyError:
                problem = f"missing {', '.join(key for key in _PARSED_FIELDS if key not in row)}"
                break
            if not (
                isinstance(J, str) and isinstance(M, str) and isinstance(m1, str)
                and isinstance(m2, str) and isinstance(exact, str)
            ):
                problem = "fields must be strings"
                break
            append(fields)
        # the rows before the first one of the wrong shape are read first,
        # so that the error named is that of the first malformed row
        records = _read_rows("row", 0, rows, len(_PARSED_FIELDS))
        if problem is not None:
            raise ValueError(f"row {index}: {problem}")
        return records


_FORMATTERS = {
    "pretty": records_to_pretty,
    "csv": records_to_csv,
    "json": records_to_json,
}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@click.group()
@click.version_option(version=__version__, prog_name="cgexact")
def cli() -> None:
    """Exact Clebsch-Gordan coefficients, cross-checked three ways.

    All values are exact radicals; decimals are correctly rounded
    renderings at five places.
    """


@cli.command()
@click.option("--j1", required=True, help="First angular momentum j1.")
@click.option("--j2", required=True, help="Second angular momentum j2.")
@click.option("--m1", required=True, help="Projection m1.")
@click.option("--m2", required=True, help="Projection m2.")
@click.option("--J", "big_j", required=True, help="Total angular momentum J.")
@click.option("--M", "big_m", required=True, help="Total projection M.")
@click.option(
    "--formula",
    type=click.Choice([*_COEFF_ROUTES, "both"]),
    default="alternative",
    show_default=True,
    help="Computation route; 'both' compares every route.",
)
def coeff(j1, j2, m1, m2, big_j, big_m, formula) -> None:
    """Print one coefficient as an exact radical and a 5-place decimal."""
    spec = CouplingSpec(
        _halfint("--j1", j1),
        _halfint("--j2", j2),
        _halfint("--m1", m1),
        _halfint("--m2", m2),
        _halfint("--J", big_j),
        _halfint("--M", big_m),
    )
    routes = _COEFF_ROUTES if formula == "both" else {formula: _COEFF_ROUTES[formula]}
    values = {}
    for name, compute in routes.items():
        try:
            values[name] = compute(spec)
        except MalformedCouplingError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
    if formula != "both":
        value = values[formula]
        click.echo(f"{value} = {to_decimal(value, 5)}")
        return
    width = max(len(name) for name in values)
    for name, value in values.items():
        click.echo(f"{name.ljust(width)}  {value} = {to_decimal(value, 5)}")
    if len(set(values.values())) == 1:
        click.echo("AGREE")
    else:
        click.echo("DISAGREE")
        sys.exit(2)


@cli.command()
@click.option("--j1", required=True, help="First angular momentum j1.")
@click.option("--j2", required=True, help="Second angular momentum j2.")
@click.option("--J", "big_j", default=None, help="Only rows with this J.")
@click.option(
    "--route",
    type=click.Choice([route.value for route in TableRoute]),
    default=TableRoute.CLOSED_FORM.value,
    show_default=True,
    help="Table construction route; 'beta' is a second name for 'closed-form'.",
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["pretty", "csv", "json"]),
    default="pretty",
    show_default=True,
)
@click.option("--out", default=None, help="Write to a file instead of stdout.")
def table(j1, j2, big_j, route, fmt, out) -> None:
    """Emit all nonzero coefficients for (j1, j2), sorted by (J, M, m1)."""
    j1, j2 = _halfint("--j1", j1), _halfint("--j2", j2)
    if j1 < 0 or j2 < 0:
        click.echo("error: j1 and j2 must be nonnegative", err=True)
        sys.exit(1)
    wanted = None if big_j is None else _halfint("--J", big_j)
    if wanted is not None and (wanted < 0 or not (j1 + j2 + wanted).is_integer):
        click.echo("error: J must be nonnegative with j1 + j2 + J an integer", err=True)
        sys.exit(1)
    records = build_full_table(j1, j2, TableRoute(route))
    if wanted is not None:
        records = [r for r in records if r.J == wanted]
    _write_output(_FORMATTERS[fmt](records), out)


@cli.command()
@click.option(
    "--max-2j",
    "max_twice_j",
    type=int,
    default=6,
    show_default=True,
    help="Sweep bound on doubled angular momenta.",
)
@click.option(
    "--checks",
    "check_names",
    default=",".join(CHECKS),
    show_default=True,
    help="Comma-separated subset of checks to run.",
)
@click.option(
    "--jobs",
    type=int,
    default=1,
    show_default=True,
    help="Worker processes for the sweeps (results merge in sweep order).",
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["pretty", "json"]),
    default="pretty",
    show_default=True,
)
def verify(max_twice_j, check_names, jobs, fmt) -> None:
    """Run the exact cross-route verification suite; exit 2 on any failure."""
    if max_twice_j < 0 or jobs < 1:
        click.echo("error: --max-2j must be >= 0 and --jobs >= 1", err=True)
        sys.exit(1)
    names = [name.strip() for name in check_names.split(",") if name.strip()]
    unknown = [name for name in names if name not in CHECKS]
    if unknown or not names:
        what = f"unknown checks {', '.join(unknown)}" if unknown else "no checks selected"
        click.echo(f"error: {what} (available: {', '.join(CHECKS)})", err=True)
        sys.exit(1)
    reports = run_checks(names, max_twice_j, jobs)
    if fmt == "json":
        click.echo(json.dumps([report.to_dict() for report in reports], indent=2))
    else:
        name_width = max(len(report.name) for report in reports)
        scope_width = max(len(report.scope) for report in reports)
        for report in reports:
            status = "PASS" if report.passed else "FAIL"
            click.echo(
                f"{report.name.ljust(name_width)}  {report.scope.ljust(scope_width)}"
                f"  {status}  {report.elapsed:8.3f}s"
            )
            if not report.passed:
                click.echo(f"  counterexample: {report.counterexample.description}")
                for label, value in report.counterexample.values.items():
                    click.echo(f"    {label}: {value}")
    if not all(report.passed for report in reports):
        sys.exit(2)


def main(argv: list[str] | None = None) -> None:
    """Entry point enforcing the exit-code contract (usage errors exit 1)."""
    no_args_help = getattr(click.exceptions, "NoArgsIsHelpError", ())
    try:
        value = cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        if no_args_help and isinstance(exc, no_args_help):
            click.echo(exc.format_message())
            raise SystemExit(0) from None
        click.echo(f"error: {exc.format_message()}", err=True)
        raise SystemExit(1) from None
    except click.ClickException as exc:
        exc.show()
        raise SystemExit(1) from None
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        raise SystemExit(1) from None
    raise SystemExit(value if isinstance(value, int) else 0)


if __name__ == "__main__":
    main()
