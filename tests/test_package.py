"""Tests for the package surface: its exported names, its commands, the
README tour, and what the sources may not use."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cgexact
from cgexact.cli import cli, main
from cgexact.ladder import TableRoute
from cgexact.numerics import RadicalSum

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(cgexact.__file__).resolve().parent

#: the public surface, pinned: a name added or dropped is a decision, made here
PUBLIC = [
    "CHECKS",
    "CoefficientRecord",
    "Counterexample",
    "CouplingSpec",
    "HalfInt",
    "MalformedCouplingError",
    "NegativeRadicandError",
    "RadicalSum",
    "TableRoute",
    "ThreeJSpec",
    "VerificationReport",
    "build_full_table",
    "cell_specs",
    "cg_alternative",
    "cg_ladder",
    "cg_racah",
    "check_condon_shortley",
    "check_formula_agreement",
    "check_ladder_consistency",
    "check_radical_collapse",
    "check_threej_symmetries",
    "check_unitarity_sweep",
    "run_checks",
    "to_decimal",
    "wigner3j",
    "__version__",
]

MODULE_ALL = {
    "cli": [
        "cli",
        "main",
        "parse_table_csv",
        "parse_table_json",
        "records_to_csv",
        "records_to_json",
        "records_to_pretty",
    ],
    "formulas": [
        "CouplingSpec",
        "MalformedCouplingError",
        "ThreeJSpec",
        "cell_specs",
        "cg_alternative",
        "cg_racah",
        "wigner3j",
    ],
    "ladder": [
        "CoefficientRecord",
        "TableRoute",
        "build_full_table",
        "cg_ladder",
    ],
    "numerics": [
        "HalfInt",
        "NegativeRadicandError",
        "RadicalSum",
        "Rationalish",
        "sum_radicals",
        "sum_signed_sqrts",
        "to_decimal",
    ],
    "verification": [
        "Counterexample",
        "VerificationReport",
        "check_condon_shortley",
        "check_formula_agreement",
        "check_ladder_consistency",
        "check_radical_collapse",
        "check_threej_symmetries",
        "check_unitarity_sweep",
        "run_checks",
        "CHECKS",
    ],
}


def test_every_exported_name_resolves():
    assert len(cgexact.__all__) == len(set(cgexact.__all__))
    for name in cgexact.__all__:
        assert getattr(cgexact, name) is not None, name


def test_public_surface_is_pinned():
    assert cgexact.__all__ == PUBLIC
    modules = sorted(info.name for info in pkgutil.iter_modules(cgexact.__path__))
    assert modules == sorted(MODULE_ALL)
    for module_name, exported in MODULE_ALL.items():
        assert importlib.import_module(f"cgexact.{module_name}").__all__ == exported


def test_radical_sum_is_a_value_without_arithmetic_operators():
    # sums and products of values are sum_radicals and sum_signed_sqrts
    for name in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__float__",
    ):
        assert not hasattr(RadicalSum, name), name
    for name in ("__neg__", "__eq__", "__hash__", "__str__", "parse"):
        assert name in vars(RadicalSum), name


def _cache_uses(tree: ast.AST) -> list[str]:
    """Every use of functools.cache, lru_cache or cached_property in a
    module's syntax tree, as text."""
    names = {"cache", "lru_cache", "cached_property"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [alias.name for alias in node.names if alias.name in names]
        elif isinstance(node, ast.Attribute) and node.attr in names:
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                found.append(f"functools.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in names - {"cache"}:
            found.append(node.id)
    return found


def test_no_cache_in_the_package():
    # each value is computed where it is needed: nothing to bound, clear or
    # share between threads and worker processes
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) == len(MODULE_ALL) + 1  # the modules and __init__
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        assert _cache_uses(tree) == [], path.name


def test_the_cache_finder_finds_caches():
    for text in (
        "from functools import lru_cache",
        "import functools\n@functools.cache\ndef f(): pass",
        "@lru_cache(maxsize=8)\ndef f(): pass",
        "from functools import cached_property as c",
    ):
        assert _cache_uses(ast.parse(text)), text
    assert _cache_uses(ast.parse("cache = {}\nimport functools")) == []


def test_every_module_export_resolves():
    modules = [info.name for info in pkgutil.iter_modules(cgexact.__path__)]
    assert {"cli", "formulas", "ladder", "numerics", "verification"} <= set(modules)
    for module_name in modules:
        module = importlib.import_module(f"cgexact.{module_name}")
        exported = module.__all__
        assert len(exported) == len(set(exported)), module_name
        for name in exported:
            assert hasattr(module, name), f"{module_name}.{name}"


def test_readme_cites_only_names_that_exist():
    # a `module.name` or `cgexact.module.name` in a code span of the README
    # must name an attribute of that module, so a stale citation fails here
    modules = "|".join(("cli", "formulas", "ladder", "numerics", "verification"))
    cited = re.compile(rf"(?<![\w.])(?:cgexact\.)?({modules})\.([A-Za-z_]\w*)")
    prose = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    names = [match for span in spans for match in cited.findall(span)]
    assert len(names) >= 8
    for module_name, name in names:
        module = importlib.import_module(f"cgexact.{module_name}")
        assert hasattr(module, name), f"README cites {module_name}.{name}"


def test_importing_the_cli_leaves_multiprocessing_out():
    # only a process pool needs multiprocessing, and `_map_ordered` imports
    # it when it starts one; a fresh interpreter shows what the import loads
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    code = "import sys, cgexact.cli; print('multiprocessing' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_a_process_left_running_fails_the_run(tmp_path):
    # conftest.py's session hook names a leftover child and fails the run,
    # which ends instead of waiting on the child
    conftest = Path(__file__).with_name("conftest.py")
    (tmp_path / "conftest.py").write_text(conftest.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "test_leftover.py").write_text(
        "import multiprocessing, time\n"
        "def test_leaves_a_process():\n"
        "    context = multiprocessing.get_context('spawn')\n"
        "    context.Process(target=time.sleep, args=(120,), name='leftover').start()\n",
        encoding="utf-8",
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == pytest.ExitCode.TESTS_FAILED, run.stdout + run.stderr
    assert "processes still running after the tests: leftover (pid " in run.stdout
    assert "1 passed" in run.stdout


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
