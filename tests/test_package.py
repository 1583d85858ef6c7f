"""Tests for the package surface: its exported names, its commands and the
README tour."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import cgexact
from cgexact.cli import cli, main
from cgexact.ladder import TableRoute

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    assert len(cgexact.__all__) == len(set(cgexact.__all__))
    for name in cgexact.__all__:
        assert getattr(cgexact, name) is not None, name


def test_every_module_export_resolves():
    modules = [info.name for info in pkgutil.iter_modules(cgexact.__path__)]
    assert {"cli", "formulas", "ladder", "numerics", "verification"} <= set(modules)
    for module_name in modules:
        module = importlib.import_module(f"cgexact.{module_name}")
        exported = module.__all__
        assert len(exported) == len(set(exported)), module_name
        for name in exported:
            assert hasattr(module, name), f"{module_name}.{name}"


def test_cli_commands(capsys):
    assert sorted(cli.commands) == ["coeff", "table", "verify"]
    with pytest.raises(SystemExit) as excinfo:
        main(["bench"])
    assert excinfo.value.code == 1
    assert "bench" in capsys.readouterr().err


def test_table_routes_keep_four_distinct_values():
    # an alias would drop a member from iteration, and with it a route from
    # every loop over TableRoute
    assert [r.value for r in TableRoute] == ["closed-form", "ladder", "beta", "racah"]


def test_readme_quick_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    imported = re.findall(r"^from cgexact import (.+)$", code, re.MULTILINE)
    assert imported
    for names in imported:
        for name in names.split(","):
            assert name.strip() in cgexact.__all__, name
    exec(compile(code, str(README), "exec"), {})
    assert "sqrt(3/5) = 0.77460" in capsys.readouterr().out
