"""Acceptance suite: every release criterion at its stated bound.

Each test prints one pass/fail line.  All numeric comparisons are exact
(string equality of 5-place renderings for the golden tables, exact radical
equality everywhere else); no tolerances appear anywhere.

The 2j <= 40 agreement sweep took 3.4-4.6 minutes with 2 jobs on a shared
2-CPU Intel Xeon VM (Python 3.11.7) and is marked `extended` (deselected by
default; run with `pytest -m extended`), as are the unitarity and ladder
sweeps at 2j <= 20, which took 5.5 s and 3.8 s there with 2 jobs.
"""

import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

from cgexact.cli import CSV_HEADER, cli
from cgexact.ladder import TableRoute, build_full_table
from cgexact.numerics import HalfInt, RadicalSum
from cgexact.verification import (
    check_condon_shortley,
    check_formula_agreement,
    check_ladder_consistency,
    check_radical_collapse,
    check_threej_symmetries,
    check_unitarity_sweep,
)
from reference_tables import TABLE_J1_1_J2_1, TABLE_J1_2_J2_1

SQRT_HALF = RadicalSum.sqrt(Fraction(1, 2))


def _passline(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{name}]: PASS{suffix}")


def _table_rows_via_cli(j1, j2):
    runner = CliRunner()
    started = time.perf_counter()
    result = runner.invoke(
        cli, ["table", "--j1", j1, "--j2", j2, "--format", "csv"],
        catch_exceptions=False,
    )
    elapsed = time.perf_counter() - started
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    return [(int(r[0]), int(r[1]), int(r[2]), int(r[3]), r[5]) for r in rows], elapsed


def test_criterion_1_table_j1_2_j2_1():
    rows, elapsed = _table_rows_via_cli("2", "1")
    assert len(rows) == 36
    assert rows == TABLE_J1_2_J2_1
    assert elapsed < 1.0
    _passline(1, "table j1=2 j2=1", f"36 rows exact, {elapsed:.3f}s")


def test_criterion_2_table_j1_1_j2_1():
    rows, elapsed = _table_rows_via_cli("1", "1")
    assert len(rows) == 18
    assert rows == TABLE_J1_1_J2_1
    assert elapsed < 1.0
    _passline(2, "table j1=1 j2=1", f"18 rows exact, {elapsed:.3f}s")


def test_criterion_3_formula_agreement_fast():
    report = check_formula_agreement(12)
    assert report.passed, report.counterexample
    assert report.elapsed < 60.0
    _passline(3, "formula agreement 2j<=12", f"{report.scope}, {report.elapsed:.1f}s")


@pytest.mark.extended
def test_criterion_3_formula_agreement_extended():
    report = check_formula_agreement(40, jobs=2)
    assert report.passed, report.counterexample
    _passline(
        3, "formula agreement 2j<=40 (extended)",
        f"{report.scope}, {report.elapsed / 60:.1f} min (target < 30 min)",
    )


def test_criterion_4_unitarity():
    report = check_unitarity_sweep(12)
    assert report.passed, report.counterexample
    _passline(4, "unitarity 2j<=12", report.scope)


@pytest.mark.extended
def test_criterion_4_unitarity_extended():
    # long one-class inner products of large integers, summed in pool workers
    report = check_unitarity_sweep(20, jobs=2)
    assert report.passed, report.counterexample
    assert report.scope == "2j <= 20, 513590 cases"
    _passline(4, "unitarity 2j<=20 (extended)", f"{report.scope}, {report.elapsed:.1f}s")


def test_criterion_5_radical_collapse():
    report = check_radical_collapse(12)
    assert report.passed, report.counterexample
    _passline(5, "radical collapse 2j<=12", report.scope)


def test_criterion_6_highest_weight_certificate():
    report = check_ladder_consistency(16)
    assert report.passed, report.counterexample
    _passline(6, "highest-weight and ladder consistency 2j<=16", report.scope)


@pytest.mark.extended
def test_criterion_6_highest_weight_certificate_extended():
    report = check_ladder_consistency(20, jobs=2)
    assert report.passed, report.counterexample
    assert report.scope == "2j <= 20, 3311 cases"
    _passline(
        6, "highest-weight and ladder consistency 2j<=20 (extended)",
        f"{report.scope}, {report.elapsed:.1f}s",
    )


def test_criterion_7_threej_symmetries():
    report = check_threej_symmetries(8)
    assert report.passed, report.counterexample
    _passline(7, "3j symmetry suite 2j<=8", report.scope)


def test_criterion_8_condon_shortley():
    report = check_condon_shortley(12)
    assert report.passed, report.counterexample
    _passline(8, "Condon-Shortley positivity 2j<=12", report.scope)


def test_criterion_9_degenerate_identities():
    # j2 = 0: the table is an exact identity map
    for j1 in ("0", "1/2", "1", "3/2", "2", "5"):
        j = HalfInt(j1)
        records = build_full_table(j, 0, TableRoute.CLOSED_FORM)
        assert len(records) == j.twice + 1
        for record in records:
            assert record.J == j
            assert record.m2 == HalfInt(0)
            assert record.M == record.m1
            assert record.exact == RadicalSum.one()

    # j1 = j2 = 1/2: the textbook singlet and triplet, exactly
    records = {
        (r.J.twice, r.M.twice, r.m1.twice): r.exact
        for r in build_full_table("1/2", "1/2", TableRoute.CLOSED_FORM)
    }
    assert records == {
        (0, 0, -1): -SQRT_HALF,
        (0, 0, 1): SQRT_HALF,
        (2, -2, -1): RadicalSum.one(),
        (2, 0, -1): SQRT_HALF,
        (2, 0, 1): SQRT_HALF,
        (2, 2, 1): RadicalSum.one(),
    }
    _passline(9, "degenerate identities", "j2=0 identity maps; singlet/triplet exact")
