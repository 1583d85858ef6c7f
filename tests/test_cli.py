"""Tests for the command-line interface and its output contracts."""

import json

import pytest
from click.testing import CliRunner

from cgexact.cli import (
    CSV_HEADER,
    cli,
    main,
    parse_table_csv,
    parse_table_json,
    records_to_csv,
    records_to_json,
)
from reference_tables import TABLE_J1_1_J2_1, TABLE_J1_2_J2_1


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(cli, list(args), catch_exceptions=False)


# ---------------------------------------------------------------------------
# coeff
# ---------------------------------------------------------------------------


def test_coeff_reference_output(runner):
    result = invoke(
        runner, "coeff", "--j1", "2", "--j2", "1",
        "--m1", "0", "--m2", "0", "--J", "3", "--M", "0",
    )
    assert result.exit_code == 0
    assert result.output.strip() == "sqrt(3/5) = 0.77460"


def test_coeff_stretched_is_one(runner):
    result = invoke(
        runner, "coeff", "--j1", "1", "--j2", "1",
        "--m1", "1", "--m2", "1", "--J", "2", "--M", "2",
    )
    assert result.exit_code == 0
    assert result.output.strip() == "1 = 1.00000"


def test_coeff_trivial_second_factor(runner):
    result = invoke(
        runner, "coeff", "--j1", "1/2", "--j2", "0",
        "--m1", "1/2", "--m2", "0", "--J", "1/2", "--M", "1/2",
    )
    assert result.exit_code == 0
    assert result.output.strip() == "1 = 1.00000"


def test_coeff_all_routes_agree(runner):
    result = invoke(
        runner, "coeff", "--j1", "2", "--j2", "1",
        "--m1", "-1", "--m2", "0", "--J", "1", "--M", "-1",
        "--formula", "both",
    )
    assert result.exit_code == 0
    assert "AGREE" in result.output
    assert result.output.count("-sqrt(3/10) = -0.54772") == 3


def test_coeff_each_route_selectable(runner):
    for route in ("alternative", "racah", "ladder"):
        result = invoke(
            runner, "coeff", "--j1", "1", "--j2", "1",
            "--m1", "0", "--m2", "0", "--J", "0", "--M", "0",
            "--formula", route,
        )
        assert result.exit_code == 0
        assert result.output.strip() == "-sqrt(1/3) = -0.57735"


def test_coeff_invalid_halfint_names_argument(runner):
    result = runner.invoke(
        cli,
        ["coeff", "--j1", "2", "--j2", "1", "--m1", "x",
         "--m2", "0", "--J", "3", "--M", "0"],
    )
    assert result.exit_code == 1
    assert "--m1" in result.output
    assert "'x'" in result.output


def test_coeff_malformed_arguments_exit_1(runner):
    result = runner.invoke(
        cli,
        ["coeff", "--j1", "1/2", "--j2", "1/2", "--m1", "0",
         "--m2", "1/2", "--J", "1", "--M", "1/2"],
    )
    assert result.exit_code == 1
    assert "m1" in result.output


def test_coeff_route_disagreement_exits_2(runner, monkeypatch):
    import cgexact.cli as cli_module
    from cgexact.numerics import RadicalSum

    broken = dict(cli_module._COEFF_ROUTES)
    broken["racah"] = lambda spec: RadicalSum.rational(9)
    monkeypatch.setattr(cli_module, "_COEFF_ROUTES", broken)
    result = runner.invoke(
        cli,
        ["coeff", "--j1", "1", "--j2", "1", "--m1", "0", "--m2", "0",
         "--J", "2", "--M", "0", "--formula", "both"],
    )
    assert result.exit_code == 2
    assert "DISAGREE" in result.output


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def _csv_rows(text):
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


def test_table_csv_matches_reference_j2_j1(runner):
    result = invoke(runner, "table", "--j1", "2", "--j2", "1", "--format", "csv")
    assert result.exit_code == 0
    rows = _csv_rows(result.output)
    assert len(rows) == 36
    got = [(int(r[0]), int(r[1]), int(r[2]), int(r[3]), r[5]) for r in rows]
    assert got == TABLE_J1_2_J2_1


def test_table_csv_matches_reference_1_1(runner):
    result = invoke(runner, "table", "--j1", "1", "--j2", "1", "--format", "csv")
    rows = _csv_rows(result.output)
    got = [(int(r[0]), int(r[1]), int(r[2]), int(r[3]), r[5]) for r in rows]
    assert got == TABLE_J1_1_J2_1


def test_table_trivial_cell(runner):
    result = invoke(runner, "table", "--j1", "0", "--j2", "0", "--format", "csv")
    assert result.output == f"{CSV_HEADER}\n0,0,0,0,1,1.00000\n"


def test_table_half_integer_rendering(runner):
    result = invoke(
        runner, "table", "--j1", "1/2", "--j2", "1/2", "--format", "csv"
    )
    rows = _csv_rows(result.output)
    assert ["0", "0", "-1/2", "1/2", "-sqrt(1/2)", "-0.70711"] in rows
    assert ["0", "0", "1/2", "-1/2", "sqrt(1/2)", "0.70711"] in rows


def test_table_j_filter(runner):
    result = invoke(
        runner, "table", "--j1", "2", "--j2", "1", "--J", "2", "--format", "csv"
    )
    rows = _csv_rows(result.output)
    assert len(rows) == 12
    assert all(row[0] == "2" for row in rows)


def test_table_routes_identical_output(runner):
    outputs = set()
    for route in ("closed-form", "ladder", "beta", "racah"):
        result = invoke(
            runner, "table", "--j1", "3/2", "--j2", "1",
            "--format", "csv", "--route", route,
        )
        outputs.add(result.output)
    assert len(outputs) == 1


def test_table_pretty_format(runner):
    result = invoke(runner, "table", "--j1", "1", "--j2", "1")
    lines = result.output.strip().split("\n")
    assert lines[0].split() == ["J", "M", "m1", "m2", "exact", "value"]
    assert len(lines) == 19


def test_table_csv_roundtrip_byte_identical(runner):
    result = invoke(runner, "table", "--j1", "5/2", "--j2", "2", "--format", "csv")
    records = parse_table_csv(result.output)
    assert records_to_csv(records) == result.output


def test_table_json_roundtrip_byte_identical(runner):
    result = invoke(runner, "table", "--j1", "2", "--j2", "1", "--format", "json")
    records = parse_table_json(result.output)
    assert records_to_json(records) == result.output
    rows = json.loads(result.output)
    assert list(rows[0]) == ["J", "M", "m1", "m2", "exact", "value"]
    assert all(isinstance(v, str) for v in rows[0].values())


def test_table_deterministic(runner):
    first = invoke(runner, "table", "--j1", "2", "--j2", "2", "--format", "csv")
    second = invoke(runner, "table", "--j1", "2", "--j2", "2", "--format", "csv")
    assert first.output == second.output


def test_table_out_file(runner, tmp_path):
    target = tmp_path / "table.csv"
    result = invoke(
        runner, "table", "--j1", "1", "--j2", "0",
        "--format", "csv", "--out", str(target),
    )
    assert result.exit_code == 0
    assert target.read_text() == f"{CSV_HEADER}\n1,-1,-1,0,1,1.00000\n" \
        "1,0,0,0,1,1.00000\n1,1,1,0,1,1.00000\n"


def test_table_unwritable_out_exits_1(runner):
    result = runner.invoke(
        cli,
        ["table", "--j1", "1", "--j2", "0", "--format", "csv",
         "--out", "/nonexistent-dir/table.csv"],
    )
    assert result.exit_code == 1
    assert "cannot write" in result.output


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passes(runner):
    result = invoke(runner, "verify", "--max-2j", "4")
    assert result.exit_code == 0
    assert result.output.count("PASS") == 6


def test_verify_trivial_bound(runner):
    result = invoke(runner, "verify", "--max-2j", "0")
    assert result.exit_code == 0


def test_verify_check_subset_and_json(runner):
    result = invoke(
        runner, "verify", "--max-2j", "2",
        "--checks", "agreement,collapse", "--format", "json",
    )
    assert result.exit_code == 0
    reports = json.loads(result.output)
    assert [r["name"] for r in reports] == ["formula agreement", "radical collapse"]
    assert all(r["passed"] for r in reports)


def test_verify_unknown_check_exits_1(runner):
    result = runner.invoke(cli, ["verify", "--checks", "bogus"])
    assert result.exit_code == 1
    assert "bogus" in result.output


def test_verify_negative_bound_exits_1(runner):
    result = runner.invoke(cli, ["verify", "--max-2j", "-1"])
    assert result.exit_code == 1


def test_verify_failure_exits_2_with_counterexample(runner, monkeypatch):
    import cgexact.cli as cli_module
    from cgexact.verification import Counterexample, VerificationReport

    failing = VerificationReport(
        name="formula agreement",
        scope="2j <= 2, 1 case",
        passed=False,
        counterexample=Counterexample(
            "C(j1=1, j2=1, m1=0, m2=0, J=2, M=0)",
            {"alternative": "sqrt(2/3)", "racah": "7"},
        ),
        elapsed=0.01,
    )
    monkeypatch.setattr(cli_module, "run_checks", lambda *a, **k: [failing])
    result = runner.invoke(cli, ["verify", "--max-2j", "2"])
    assert result.exit_code == 2
    assert "FAIL" in result.output
    assert "counterexample" in result.output
    assert "racah: 7" in result.output


def test_table_empty_after_filter(runner):
    result = invoke(
        runner, "table", "--j1", "1", "--j2", "1", "--J", "5", "--format", "csv"
    )
    assert result.exit_code == 0
    assert result.output == f"{CSV_HEADER}\n"
    pretty = invoke(runner, "table", "--j1", "1", "--j2", "1", "--J", "5")
    assert pretty.exit_code == 0
    assert pretty.output.split() == ["J", "M", "m1", "m2", "exact", "value"]


# ---------------------------------------------------------------------------
# Entry point exit-code contract
# ---------------------------------------------------------------------------


def _main_exit_code(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    return excinfo.value.code or 0


def test_main_usage_errors_exit_1(capsys):
    assert _main_exit_code(["table"]) == 1            # missing required option
    assert _main_exit_code(["nonsense"]) == 1         # unknown command
    capsys.readouterr()


def test_main_success_paths(capsys):
    assert _main_exit_code(["coeff", "--j1", "0", "--j2", "0",
                            "--m1", "0", "--m2", "0", "--J", "0", "--M", "0"]) == 0
    assert _main_exit_code([]) == 0                   # bare invocation shows help
    out = capsys.readouterr().out
    assert "1 = 1.00000" in out


def test_main_input_error_exit_1(capsys):
    code = _main_exit_code(["coeff", "--j1", "bad", "--j2", "0",
                            "--m1", "0", "--m2", "0", "--J", "0", "--M", "0"])
    assert code == 1
    assert "--j1" in capsys.readouterr().err
