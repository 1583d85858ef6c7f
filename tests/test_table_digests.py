"""Byte identity of every table and `verify` report, against a manifest.

`table_digests.json` holds the SHA-256 of the CSV of each cell with
2j1, 2j2 <= 10, one digest per cell, which every `TableRoute` member must
render, and the SHA-256 of the JSON of the six checks' reports at
2j <= 8 with their times removed.  The manifest was generated from the
code before the change that added it, and its values were compared once
with `sympy.physics.wigner.clebsch_gordan`, by sign and square.

A change that alters these bytes on purpose regenerates the manifest in
the same change, with ``PYTHONPATH=src python tests/test_table_digests.py``,
and says why.  Never regenerate it to make a failing change pass: a
mismatch here means that a table or a report changed.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cgexact.cli import records_to_csv
from cgexact.ladder import TableRoute, build_full_table
from cgexact.numerics import HalfInt
from cgexact.verification import CHECKS, run_checks

MANIFEST = Path(__file__).with_name("table_digests.json")
TABLE_MAX_TWICE_J = 10
VERIFY_MAX_TWICE_J = 8


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cell(tj1: int, tj2: int) -> str:
    return f"{HalfInt.from_twice(tj1)} {HalfInt.from_twice(tj2)}"


def _table_digest(tj1: int, tj2: int, route: TableRoute) -> str:
    j1, j2 = HalfInt.from_twice(tj1), HalfInt.from_twice(tj2)
    return _sha256(records_to_csv(build_full_table(j1, j2, route)))


def _verify_digest() -> str:
    reports = [report.to_dict() for report in run_checks(list(CHECKS), VERIFY_MAX_TWICE_J)]
    for report in reports:
        del report["elapsed_seconds"]
    return _sha256(json.dumps(reports, indent=2))


def _manifest() -> dict:
    """The manifest of the code under test; every route must give the
    closed form's digest of each cell."""
    cells = range(TABLE_MAX_TWICE_J + 1)
    return {
        "tables": {
            _cell(tj1, tj2): _table_digest(tj1, tj2, TableRoute.CLOSED_FORM)
            for tj1 in cells
            for tj2 in cells
        },
        "verify": _verify_digest(),
    }


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_every_route_renders_the_manifest_table_of_every_cell(manifest):
    cells = range(TABLE_MAX_TWICE_J + 1)
    assert list(manifest["tables"]) == [_cell(tj1, tj2) for tj1 in cells for tj2 in cells]
    for tj1 in cells:
        for tj2 in cells:
            expected = manifest["tables"][_cell(tj1, tj2)]
            for route in TableRoute:
                assert _table_digest(tj1, tj2, route) == expected, (_cell(tj1, tj2), route)


def test_the_six_checks_report_the_manifest_bytes(manifest):
    assert _verify_digest() == manifest["verify"]


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(_manifest(), indent=2) + "\n", encoding="utf-8")
