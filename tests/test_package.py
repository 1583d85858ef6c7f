"""Tests for the package surface: its exported names and the README tour."""

import re
from pathlib import Path

import cgexact

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    assert len(cgexact.__all__) == len(set(cgexact.__all__))
    for name in cgexact.__all__:
        assert getattr(cgexact, name) is not None, name


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
