"""Tests for the cross-route verification engine."""

import dataclasses

import pytest

import cgexact.ladder as ladder
import cgexact.verification as verification
from cgexact.numerics import RadicalSum
from cgexact.verification import (
    CHECKS,
    Counterexample,
    VerificationReport,
    check_condon_shortley,
    check_formula_agreement,
    check_ladder_consistency,
    check_radical_collapse,
    check_threej_symmetries,
    check_unitarity,
    check_unitarity_sweep,
    run_checks,
)


def test_all_checks_pass_at_small_bound():
    for name, check in CHECKS.items():
        report = check(4)
        assert report.passed, f"{name}: {report.counterexample}"
        assert report.counterexample is None
        assert report.elapsed >= 0
        assert "2j <= 4" in report.scope


def test_trivial_bound_passes():
    for check in CHECKS.values():
        assert check(0).passed


def test_unitarity_single_cells():
    assert check_unitarity(2, 1).passed
    assert check_unitarity(0, 0).passed
    assert check_unitarity("7/2", "5/2").passed


def test_report_serialization():
    report = check_formula_agreement(2)
    data = report.to_dict()
    assert data["name"] == "formula agreement"
    assert data["passed"] is True
    assert data["counterexample"] is None
    assert data["elapsed_seconds"] == report.elapsed

    failing = VerificationReport(
        name="demo",
        scope="nowhere",
        passed=False,
        counterexample=Counterexample("spot", {"value": "1"}),
        elapsed=0.0,
    )
    assert failing.to_dict()["counterexample"] == {
        "description": "spot",
        "values": {"value": "1"},
    }


def test_parallel_merge_matches_sequential():
    sequential = check_formula_agreement(6)
    parallel = check_formula_agreement(6, jobs=2)
    assert sequential.passed and parallel.passed
    assert sequential.scope == parallel.scope


def test_run_checks_subset_and_order():
    reports = run_checks(["collapse", "agreement"], 2)
    assert [r.name for r in reports] == ["formula agreement", "radical collapse"]
    with pytest.raises(KeyError):
        run_checks(["nonsense"], 2)


def test_agreement_detects_injected_disagreement(monkeypatch):
    """The counterexample machinery must actually catch a bad route."""

    def broken(spec):
        return RadicalSum.rational(7)

    monkeypatch.setattr(verification, "cg_alternative", broken)
    report = check_formula_agreement(1)
    assert not report.passed
    assert report.counterexample is not None
    assert report.counterexample.values["alternative"] == "7"
    assert "C(" in report.counterexample.description


def test_collapse_detects_injected_multiterm(monkeypatch):
    def broken(spec):
        return RadicalSum.sqrt(2) + RadicalSum.sqrt(3)

    monkeypatch.setattr(verification, "cg_alternative", broken)
    report = check_radical_collapse(1)
    assert not report.passed
    assert "sqrt(2)" in report.counterexample.values["value"]


def test_acceptance_bounds_pass():
    # the acceptance module runs these at full bounds; spot-check mid bounds
    assert check_formula_agreement(8).passed
    assert check_unitarity_sweep(8).passed
    assert check_radical_collapse(8).passed
    assert check_threej_symmetries(6).passed
    assert check_condon_shortley(8).passed
    assert check_ladder_consistency(8).passed


def test_map_ordered_caps_pool_size(monkeypatch):
    started = []

    class FakePool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, worker, units, chunksize=1):
            return map(worker, units)

    monkeypatch.setattr(verification.multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(verification.os, "cpu_count", lambda: 4)
    units = [(n,) for n in range(10)]
    square = lambda unit: unit[0] ** 2  # noqa: E731

    assert list(verification._map_ordered(square, units, 10**6)) == [
        n * n for n in range(10)
    ]
    assert list(verification._map_ordered(square, units[:3], 10**6)) == [0, 1, 4]
    assert list(verification._map_ordered(square, units, 2)) == [
        n * n for n in range(10)
    ]
    assert started == [4, 3, 2]
    # one unit, or no CPU count, runs in this process
    assert list(verification._map_ordered(square, units[:1], 10**6)) == [0]
    monkeypatch.setattr(verification.os, "cpu_count", lambda: None)
    assert list(verification._map_ordered(square, units, 10**6)) == [
        n * n for n in range(10)
    ]
    assert started == [4, 3, 2]


def test_unitarity_detects_flipped_sign(monkeypatch):
    original = verification.build_full_table

    def flipped(j1, j2, route):
        records = original(j1, j2, route)
        records[0] = dataclasses.replace(records[0], exact=-records[0].exact)
        return records

    monkeypatch.setattr(verification, "build_full_table", flipped)
    for report in (check_unitarity(1, 1), check_unitarity_sweep(2)):
        assert not report.passed
        description = report.counterexample.description
        assert "row orthonormality" in description or "column completeness" in description
        assert report.counterexample.values["inner product"] != "0"


def test_ladder_detects_broken_lowering(monkeypatch):
    original = verification.apply_jminus
    monkeypatch.setattr(
        verification,
        "apply_jminus",
        lambda state: original(state).scaled(RadicalSum.rational(2)),
    )
    report = check_ladder_consistency(1)
    assert not report.passed
    assert "J- relation on beta states" in report.counterexample.description


def test_ladder_detects_broken_raising_element(monkeypatch):
    original = ladder._raising_element

    def doubled(tj, tm):
        return original(tj, tm) * 2

    monkeypatch.setattr(ladder, "_raising_element", doubled)
    monkeypatch.setattr(verification, "_raising_element", doubled, raising=False)
    report = check_ladder_consistency(3)
    assert not report.passed
    assert report.counterexample.description == (
        "J+ ladder relation at (j1=0, j2=1/2, J=1/2, M=-1/2)"
    )
