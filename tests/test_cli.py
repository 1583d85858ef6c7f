"""Tests for the command-line interface and its output contracts."""

import gc
import json
from collections.abc import Callable

import click
import pytest
from click.testing import CliRunner

import cgexact.cli as cli_module
import cgexact.ladder as ladder
from cgexact.cli import (
    CSV_HEADER,
    cli,
    main,
    parse_table_csv,
    parse_table_json,
    records_to_csv,
    records_to_json,
    records_to_pretty,
)
from cgexact.ladder import TableRoute, build_full_table
from cgexact.numerics import HalfInt, RadicalSum
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


@pytest.mark.parametrize("route", list(TableRoute))
def test_every_route_round_trips_through_csv_and_json(route):
    records = build_full_table("5/2", 2, route)
    for render, parse in ((records_to_csv, parse_table_csv), (records_to_json, parse_table_json)):
        text = render(records)
        back = parse(text)
        assert back == records
        assert render(back) == text


@pytest.mark.parametrize(
    "render, parse",
    [(records_to_csv, parse_table_csv), (records_to_json, parse_table_json)],
)
def test_parsing_builds_one_halfint_per_distinct_text(monkeypatch, render, parse):
    text = render(build_full_table("5/2", 2, TableRoute.CLOSED_FORM))
    texts = [(str(r.J), str(r.M), str(r.m1), str(r.m2)) for r in parse(text)]
    distinct = {t for row in texts for t in row}
    built = []
    init = HalfInt.__init__

    def counting_init(self, value):
        built.append(value)
        init(self, value)

    monkeypatch.setattr(HalfInt, "__init__", counting_init)
    parsed = []
    parse_exact = RadicalSum.parse

    def counting_parse(text):
        parsed.append(text)
        return parse_exact(text)

    monkeypatch.setattr(RadicalSum, "parse", counting_parse)
    back = parse(text)
    assert sorted(built) == sorted(distinct)
    exact_texts = [str(record.exact) for record in back]
    assert sorted(parsed) == sorted(set(exact_texts))
    assert len(parsed) < len(exact_texts)  # the table repeats some values
    shared, values = {}, {}
    for record in back:
        for number in (record.J, record.M, record.m1, record.m2):
            assert shared.setdefault(str(number), number) is number
        assert values.setdefault(str(record.exact), record.exact) is record.exact


@pytest.mark.parametrize("render", [records_to_csv, records_to_json, records_to_pretty])
def test_rendering_calls_to_decimal_once_per_distinct_value(monkeypatch, render):
    records = build_full_table("5/2", 2, TableRoute.CLOSED_FORM)
    expected = render(records)
    rendered = []
    to_decimal = cli_module.to_decimal

    def counting_to_decimal(value, places):
        rendered.append(value)
        return to_decimal(value, places)

    monkeypatch.setattr(cli_module, "to_decimal", counting_to_decimal)
    assert render(records) == expected
    distinct = {record.exact for record in records}
    assert len(distinct) < len(records)  # the table repeats some values
    assert len(rendered) == len(distinct) and set(rendered) == distinct


@pytest.mark.parametrize("route", list(TableRoute))
def test_json_is_the_bytes_of_json_dumps(route):
    # the renderer writes json's indent=2 layout itself; json.dumps of the
    # same rows, rendered field by field from the records, is the reference
    records = build_full_table("5/2", 2, route)
    rows = [
        {
            "J": str(r.J), "M": str(r.M), "m1": str(r.m1), "m2": str(r.m2),
            "exact": r.exact_text, "value": r.value_text,
        }
        for r in records
    ]
    assert records_to_json(records) == json.dumps(rows, indent=2) + "\n"
    assert records_to_json([]) == json.dumps([], indent=2) + "\n" == "[]\n"


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,0,0", "line 3: expected 6 fields, got 3"),
        ("1,0,0,0,1,1.00000,7", "line 3: expected 6 fields, got 7"),
        ("1,0,1/3,0,1,1.00000", "line 3: not a half-integer: '1/3'"),
        ("1,0,0,0,sqrt(x),1.00000", "line 3: unparseable exact-value text: 'sqrt(x)'"),
        # rows that no table holds
        ("1,0,1,1,sqrt(1/2),0.70711", "line 3: M=0 is not m1 + m2 = 1 + 1"),
        ("1,5,1,1,sqrt(1/2),0.70711", "line 3: M=5 is not m1 + m2 = 1 + 1"),
        ("1,5,4,1,sqrt(1/2),0.70711", "line 3: |M|=5 exceeds J=1"),
        ("1,-2,-1,-1,1,1.00000", "line 3: |M|=2 exceeds J=1"),
        ("3/2,0,1/2,-1/2,1,1.00000", "line 3: J + M = 3/2 is not an integer"),
        # a table holds only nonzero coefficients
        (
            "0,0,0,0,0,0.00000",
            "line 3: exact value '0' is 0; a table holds only nonzero coefficients",
        ),
        (
            "1,0,0,0,-0/5,0.00000",
            "line 3: exact value '-0/5' is 0; a table holds only nonzero coefficients",
        ),
    ],
)
def test_parse_table_csv_errors_name_the_line(row, message):
    text = f"{CSV_HEADER}\n1,-1,-1,0,1,1.00000\n{row}\n1,1,1,0,1,1.00000\n"
    with pytest.raises(ValueError) as excinfo:
        parse_table_csv(text)
    assert str(excinfo.value) == message
    with pytest.raises(ValueError, match="^line 4: "):
        parse_table_csv("\n" + text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "1,0,0,0,1,1.00000\n",
        "J,M,m1,m2,exact\n",
        # parsing is LF-only: CRLF endings and a byte-order mark name the
        # line that holds the header and show what it holds
        f"{CSV_HEADER}\r\n1,0,0,0,1,1.00000\r\n",
        f"\ufeff{CSV_HEADER}\n1,0,0,0,1,1.00000\n",
    ],
)
def test_parse_table_csv_rejects_text_without_the_header(text):
    found = text.split("\n")[0]
    with pytest.raises(ValueError, match="^missing csv header ") as excinfo:
        parse_table_csv(text)
    assert str(excinfo.value).endswith(f": line 1 is {found!r}")
    assert ("\\r" in str(excinfo.value)) == ("\r" in text)
    assert ("\\ufeff" in str(excinfo.value)) == ("\ufeff" in text)


_JSON_ROW = {"J": "1", "M": "0", "m1": "0", "m2": "0", "exact": "1", "value": "1.00000"}


@pytest.mark.parametrize(
    "document, message",
    [
        ({}, "a json table must be an array of rows"),
        ([[1, 2]], "row 0: not an object"),
        ([_JSON_ROW, {k: v for k, v in _JSON_ROW.items() if k != "m2"}], "row 1: missing m2"),
        ([_JSON_ROW, {**_JSON_ROW, "J": 1}], "row 1: fields must be strings"),
        ([_JSON_ROW, {**_JSON_ROW, "m1": "x"}], "row 1: not a half-integer: 'x'"),
        ([_JSON_ROW, {**_JSON_ROW, "m2": "1"}], "row 1: M=0 is not m1 + m2 = 0 + 1"),
        (
            [_JSON_ROW, {**_JSON_ROW, "M": "2", "m1": "1", "m2": "1"}],
            "row 1: |M|=2 exceeds J=1",
        ),
        ([_JSON_ROW, {**_JSON_ROW, "J": "1/2"}], "row 1: J + M = 1/2 is not an integer"),
        (
            [_JSON_ROW, {**_JSON_ROW, "exact": "sqrt(0)"}],
            "row 1: exact value 'sqrt(0)' is 0; a table holds only nonzero coefficients",
        ),
    ],
)
def test_parse_table_json_errors_name_the_row(document, message):
    with pytest.raises(ValueError) as excinfo:
        parse_table_json(json.dumps(document))
    assert str(excinfo.value) == message


def _table_calls(monkeypatch, fail: bool, seen: list[bool]) -> dict[str, Callable]:
    """Each function that pauses the collector, as a call of no arguments
    on a small table.  Each call notes in ``seen`` whether the collector
    was enabled while it walked, rendered or parsed a value, and with
    ``fail`` it raises a ValueError there, in the middle of its row loop."""
    records = build_full_table("5/2", 2, TableRoute.RACAH)
    csv_text, json_text = records_to_csv(records), records_to_json(records)
    walk = ladder._WALKS[TableRoute.RACAH]

    def watched_walk(tj1, tj2):
        for index, item in enumerate(walk(tj1, tj2)):
            seen.append(gc.isenabled())
            if fail and index == 3:
                raise ValueError("malformed")
            yield item

    def watch(original):
        def watched(*args):
            seen.append(gc.isenabled())
            if fail:
                raise ValueError("malformed")
            return original(*args)
        return watched

    monkeypatch.setitem(ladder._WALKS, TableRoute.RACAH, watched_walk)
    monkeypatch.setattr(cli_module, "to_decimal", watch(cli_module.to_decimal))
    monkeypatch.setattr(RadicalSum, "parse", watch(RadicalSum.parse))
    return {
        "build_full_table": lambda: build_full_table("5/2", 2, TableRoute.RACAH),
        "records_to_csv": lambda: records_to_csv(records),
        "records_to_json": lambda: records_to_json(records),
        "records_to_pretty": lambda: records_to_pretty(records),
        "parse_table_csv": lambda: parse_table_csv(csv_text),
        "parse_table_json": lambda: parse_table_json(json_text),
    }


@pytest.mark.parametrize(
    "name",
    [
        "build_full_table", "records_to_csv", "records_to_json", "records_to_pretty",
        "parse_table_csv", "parse_table_json",
    ],
)
@pytest.mark.parametrize("fail", [False, True], ids=["success", "malformed row"])
@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
def test_table_calls_pause_the_collector_and_restore_it(monkeypatch, name, fail, enabled):
    # each call pauses the cyclic collector around its row loop and leaves
    # it as it found it, raised or not: an enabled collector is enabled
    # again, and one the caller disabled stays disabled
    seen: list[bool] = []
    call = _table_calls(monkeypatch, fail, seen)[name]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if fail:
            with pytest.raises(ValueError):
                call()
        else:
            call()
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen and not any(seen)


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


@pytest.fixture
def failing_report(monkeypatch):
    """A failing agreement report, which `run_checks` returns for any call."""
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
    return failing


def test_verify_failure_exits_2_with_counterexample(runner, failing_report):
    result = runner.invoke(cli, ["verify", "--max-2j", "2"])
    assert result.exit_code == 2
    assert "FAIL" in result.output
    assert "counterexample" in result.output
    assert "racah: 7" in result.output


def test_verify_json_of_a_failing_report(runner, failing_report):
    # the digest manifest pins passing reports only: this pins the keys,
    # their order and the counterexample's layout of a failing one
    result = runner.invoke(cli, ["verify", "--max-2j", "2", "--format", "json"])
    assert result.exit_code == 2
    assert result.output == """\
[
  {
    "name": "formula agreement",
    "scope": "2j <= 2, 1 case",
    "passed": false,
    "counterexample": {
      "description": "C(j1=1, j2=1, m1=0, m2=0, J=2, M=0)",
      "values": {
        "alternative": "sqrt(2/3)",
        "racah": "7"
      }
    },
    "elapsed_seconds": 0.01
  }
]
"""


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


def test_main_version_needs_no_installed_distribution(capsys):
    # the version comes from the package, so a source checkout reports it too
    assert _main_exit_code(["--version"]) == 0
    assert capsys.readouterr().out == "cgexact, version 0.1.0\n"


def test_main_input_error_exit_1(capsys):
    code = _main_exit_code(["coeff", "--j1", "bad", "--j2", "0",
                            "--m1", "0", "--m2", "0", "--J", "0", "--M", "0"])
    assert code == 1
    assert "--j1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raised, message",
    [(click.ClickException("boom"), "Error: boom"), (KeyboardInterrupt(), "aborted")],
)
def test_main_click_exception_and_interrupt_exit_1(capsys, monkeypatch, raised, message):
    def build(*args):
        raise raised

    monkeypatch.setattr(cli_module, "build_full_table", build)
    assert _main_exit_code(["table", "--j1", "1", "--j2", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err.splitlines()
    assert "Traceback" not in captured.err


def test_table_negative_j_exits_1_with_message(capsys):
    for argv in (["table", "--j1", "-1", "--j2", "1"],
                 ["table", "--j1", "1", "--j2", "-1/2"]):
        assert _main_exit_code(argv) == 1
        captured = capsys.readouterr()
        assert "error: j1 and j2 must be nonnegative" in captured.err.splitlines()
        assert "Traceback" not in captured.out + captured.err


def test_verify_empty_check_selection_exits_1(capsys):
    for fmt in ("pretty", "json"):
        assert _main_exit_code(["verify", "--checks", " , ", "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: no checks selected (available: agreement, unitarity, "
            "collapse, threej, condon-shortley, ladder)"
        ]


def test_table_malformed_J_exits_1_and_J_outside_triangle_is_empty(capsys):
    for big_j in ("-1", "1/2"):
        argv = ["table", "--j1", "1", "--j2", "1", "--J", big_j, "--format", "csv"]
        assert _main_exit_code(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: J must be nonnegative with j1 + j2 + J an integer"
        ]
    argv = ["table", "--j1", "1", "--j2", "1", "--J", "3", "--format", "csv"]
    assert _main_exit_code(argv) == 0
    assert capsys.readouterr().out == f"{CSV_HEADER}\n"
