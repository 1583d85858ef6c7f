"""Tests for the cross-route verification engine."""

import concurrent.futures
import multiprocessing
import os
import re
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

import cgexact.formulas as formulas
import cgexact.ladder as ladder
import cgexact.verification as verification
from cgexact.numerics import RadicalSum
from oracles import product
from cgexact.verification import (
    CHECKS,
    Counterexample,
    VerificationReport,
    check_condon_shortley,
    check_formula_agreement,
    check_ladder_consistency,
    check_radical_collapse,
    check_threej_symmetries,
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


def test_checks_reject_a_negative_bound_and_jobs_below_one():
    # either would sweep no cell and pass on 0 cases
    for name, check in CHECKS.items():
        with pytest.raises(ValueError, match=r"must be >= 0 and jobs >= 1"):
            check(-3)
        with pytest.raises(ValueError, match=r"must be >= 0 and jobs >= 1"):
            check(2, 0)
    with pytest.raises(ValueError):
        run_checks(["agreement"], -1)


def test_unitarity_single_cells():
    # the (2j1, 2j2) cells (2, 1), (0, 0) and (7/2, 5/2), one at a time
    for cell in ((4, 2), (0, 0), (7, 5)):
        count, failure = verification._unitarity_cell(cell)
        assert failure is None and count > 0


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


def test_checks_construct_no_fraction(monkeypatch):
    # the routes and the checks keep every value as reduced integer terms:
    # a Fraction is built only where a value enters or leaves as a rational
    built = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    reports = run_checks(list(CHECKS), 4)
    monkeypatch.undo()
    assert all(report.passed for report in reports)
    assert built == []


def _broken_closed_form(monkeypatch, value):
    """Make the closed-form kernel give ``value`` for every component: the
    table walk and `cg_alternative` both call it."""
    monkeypatch.setattr(formulas, "_closed_form_component", lambda *args: value)


def test_agreement_detects_injected_disagreement(monkeypatch):
    """The counterexample machinery must actually catch a bad route."""
    _broken_closed_form(monkeypatch, RadicalSum.rational(7))
    report = check_formula_agreement(1)
    assert not report.passed
    assert report.counterexample is not None
    assert report.counterexample.values["alternative"] == "7"
    assert "C(" in report.counterexample.description
    assert report.counterexample.description == "C(j1=0, j2=0, m1=0, m2=0, J=0, M=0)"


def test_collapse_detects_injected_multiterm(monkeypatch):
    _broken_closed_form(monkeypatch, RadicalSum.parse("sqrt(2) + sqrt(3)"))
    report = check_radical_collapse(1)
    assert not report.passed
    assert "sqrt(2)" in report.counterexample.values["value"]
    assert report.counterexample.description == "C(j1=0, j2=0, m1=0, m2=0, J=0, M=0)"


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
    exits = []

    class FakeExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            exits.append(exc)
            return False

        def map(self, worker, units):
            return map(worker, units)

    # `_map_ordered` imports the executor when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakeExecutor)
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
    # each sweep shuts its pool down on leaving the block
    assert exits == [(None, None, None)] * 3
    # one unit, or no CPU count, runs in this process
    assert list(verification._map_ordered(square, units[:1], 10**6)) == [0]
    monkeypatch.setattr(verification.os, "cpu_count", lambda: None)
    assert list(verification._map_ordered(square, units, 10**6)) == [
        n * n for n in range(10)
    ]
    assert started == [4, 3, 2]


_DYING_WORKER = """\
import os
from concurrent.futures.process import BrokenProcessPool

from cgexact.verification import _map_ordered


def exit_on_two(unit):
    if unit == (2,):
        os._exit(1)
    return unit


if __name__ == "__main__":
    os.cpu_count = lambda: 2  # a pool of 2 on any machine
    try:
        list(_map_ordered(exit_on_two, [(n,) for n in range(4)], 2))
    except BrokenProcessPool:
        print("BrokenProcessPool")
"""


def test_a_worker_that_dies_breaks_the_pool_instead_of_hanging(tmp_path):
    # in a fresh interpreter with a timeout, so that a pool that waits for
    # the dead worker's result fails this test rather than hangs the suite
    script = tmp_path / "dying_worker.py"
    script.write_text(_DYING_WORKER, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(verification.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "BrokenProcessPool"


@pytest.fixture
def forked_pools(monkeypatch):
    """Call to make the package's process pools fork their workers, which
    then inherit the test's patches; forkserver and spawn workers import
    the package afresh and would not see them.  Where fork is unavailable,
    the call skips the rest of the test."""

    def use_fork():
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("patched workers need the fork start method")
        forked = partial(
            concurrent.futures.ProcessPoolExecutor,
            mp_context=multiprocessing.get_context("fork"),
        )
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forked)

    return use_fork


def test_a_sweep_that_stops_early_leaves_no_worker(monkeypatch, forked_pools):
    # the first cell fails, so the sweep leaves the pool with most of its
    # cells not started: their work is cancelled and the workers exit
    _broken_closed_form(monkeypatch, RadicalSum.rational(7))
    monkeypatch.setattr(verification.os, "cpu_count", lambda: 2)
    sequential = check_formula_agreement(4).to_dict()
    forked_pools()
    parallel = check_formula_agreement(4, jobs=2).to_dict()
    assert multiprocessing.active_children() == []
    for report in (sequential, parallel):
        del report["elapsed_seconds"]
    assert parallel == sequential
    assert parallel["scope"] == "2j <= 4, 1 cases"
    assert parallel["counterexample"]["values"]["alternative"] == "7"


def _alter_route_tables(monkeypatch, alter):
    """Make the checks read each per-cell route walk as a dict keyed by
    doubled (J, M, m1), after ``alter(table)`` changes it in place."""
    original = verification._cell_values

    def altered(tj1, tj2, route):
        table = dict(original(tj1, tj2, route))
        alter(table)
        return iter(table.items())

    monkeypatch.setattr(verification, "_cell_values", altered)


def _flip_first(table):
    first = min(table)  # the first row in (J, M, m1) order
    table[first] = -table[first]


def test_unitarity_detects_flipped_sign(monkeypatch):
    _alter_route_tables(monkeypatch, _flip_first)
    report = check_unitarity_sweep(2)
    assert not report.passed
    for failure in (verification._unitarity_cell((2, 2))[1], report.counterexample):
        description = failure.description
        assert "row orthonormality" in description or "column completeness" in description
        assert failure.values["inner product"] != "0"


def test_unitarity_flipped_sign_counterexample(monkeypatch):
    _alter_route_tables(monkeypatch, _flip_first)
    count, failure = verification._unitarity_cell((2, 2))
    assert count == 2
    assert failure == Counterexample(
        "row orthonormality at (j1=1, j2=1): J=0, J'=1, M=0",
        {"inner product": "sqrt(2/3)"},
    )
    report = check_unitarity_sweep(2)
    assert report.scope == "2j <= 2, 18 cases"
    assert report.counterexample == Counterexample(
        "row orthonormality at (j1=1/2, j2=1/2): J=0, J'=1, M=0",
        {"inner product": "1"},
    )


def test_unitarity_column_completeness_counterexample(monkeypatch, forked_pools):
    # without the J=1, M=0 row of the cell (1/2, 1/2) the rows stay
    # orthonormal, and the m1=-1/2 column of M=0 loses half its norm; the
    # sweep meets that cell before any other cell with these keys
    def drop_row(table):
        table.pop((2, 0, -1), None)
        table.pop((2, 0, 1), None)

    _alter_route_tables(monkeypatch, drop_row)
    expected = Counterexample(
        "column completeness at (j1=1/2, j2=1/2): m1=-1/2, m1'=-1/2, M=0",
        {"inner product": "1/2"},
    )
    assert verification._unitarity_cell((1, 1)) == (5, expected)
    for jobs in (1, 2):
        if jobs == 2:
            forked_pools()
        report = check_unitarity_sweep(4, jobs=jobs)
        assert report.scope == "2j <= 4, 39 cases"
        assert report.counterexample == expected


def test_unitarity_multiclass_inner_product_fails_without_raising(monkeypatch):
    # sqrt(2) times the coefficient at (J=3/2, M=-1/2, m1=-1/2) of the cell
    # (1/2, 1): its product with the J=1/2 row then has two classes
    def broken(table):
        table[3, -1, -1] = product(table[3, -1, -1], RadicalSum.sqrt(2))

    _alter_route_tables(monkeypatch, broken)
    _, failure = verification._unitarity_cell((1, 2))
    assert failure == Counterexample(
        "row orthonormality at (j1=1/2, j2=1): J=1/2, J'=3/2, M=-1/2",
        {"inner product": "sqrt(2/9) - 2/3"},
    )
    assert RadicalSum.parse("sqrt(2/9) - 2/3").num_terms == 2


def test_threej_multiclass_racah_value_fails_without_raising(monkeypatch):
    # sqrt(1/3) added to C(1/2 1/2 0; 1/2 -1/2 | 0 0) = sqrt(1/2): the 3j
    # conversion gets a value of two classes and passes it on
    original = formulas._racah

    def broken(tj1, tj2, tJ, tM, tm1):
        value = original(tj1, tj2, tJ, tM, tm1)
        if (tj1, tj2, tJ, tM, tm1) == (1, 1, 0, 0, 1):
            value = RadicalSum.parse(f"{value} + sqrt(1/3)")
        return value

    monkeypatch.setattr(formulas, "_racah", broken)
    report = check_threej_symmetries(1)
    assert not report.passed
    values = report.counterexample.values.values()
    assert RadicalSum.parse("sqrt(1/3) + sqrt(1/2)") in map(RadicalSum.parse, values)


_KERNEL = formulas._closed_form_component


def _kernel_dividing_by_zero(tj1, tj2, m, s, k, shared):
    """The route-1 kernel with a zero divisor in the cell (j1=1/2, j2=1),
    as a step whose b_l is 0 there would have."""
    numerator, denominator = shared
    if (tj1, tj2) == (1, 2):
        denominator //= 0
    return _KERNEL(tj1, tj2, m, s, k, (numerator, denominator))


def test_a_route_that_raises_fails_the_check_at_its_cell(monkeypatch, forked_pools):
    monkeypatch.setattr(formulas, "_closed_form_component", _kernel_dividing_by_zero)
    reports = []
    for jobs in (1, 2):
        if jobs == 2:
            forked_pools()
        report = check_formula_agreement(4, jobs=jobs).to_dict()
        del report["elapsed_seconds"]
        reports.append(report)
        assert report["passed"] is False
        assert report["scope"] == "2j <= 4, 23 cases"
        assert report["counterexample"] == {
            "description": "cell (j1=1/2, j2=1) raised ZeroDivisionError",
            "values": {"error": "integer division or modulo by zero"},
        }
    assert reports[0] == reports[1]


def test_a_route_that_raises_fails_the_3j_check_at_its_triple(monkeypatch):
    original = formulas._racah

    def broken(tj1, tj2, tJ, tM, tm1):
        if (tj1, tj2, tJ) == (1, 2, 1):
            raise ValueError("broken Racah kernel")
        return original(tj1, tj2, tJ, tM, tm1)

    monkeypatch.setattr(formulas, "_racah", broken)
    report = check_threej_symmetries(2)
    assert not report.passed
    assert report.counterexample == Counterexample(
        "j-triple (j1=1/2, j2=1/2, j3=1) raised ValueError", {"error": "broken Racah kernel"}
    )


def test_verify_exits_2_when_a_route_raises(monkeypatch):
    from click.testing import CliRunner

    from cgexact.cli import cli

    monkeypatch.setattr(formulas, "_closed_form_component", _kernel_dividing_by_zero)
    result = CliRunner().invoke(cli, ["verify", "--checks", "agreement", "--max-2j", "4"])
    assert result.exit_code == 2, result.output
    assert "FAIL" in result.output
    assert "raised ZeroDivisionError" in result.output


def test_ladder_detects_broken_lowering(monkeypatch):
    # the check's J- kernel doubles every component of the state it lowers
    original = verification._apply_ladder

    def doubling_jminus(tj1, tj2, tM, components, direction, divisor=1):
        state = original(tj1, tj2, tM, components, direction, divisor)
        if direction < 0:
            state = {tm1: product(value, RadicalSum.rational(2)) for tm1, value in state.items()}
        return state

    monkeypatch.setattr(verification, "_apply_ladder", doubling_jminus)
    report = check_ladder_consistency(1)
    assert not report.passed
    assert "J- relation on beta states" in report.counterexample.description


def test_ladder_detects_broken_raising_element(monkeypatch):
    original = ladder._raising_element

    def doubled(tj, tm):
        # the element is held as its square: doubling it is a factor of 4
        return original(tj, tm) * 4

    # the check's J+ kernel reads the element from `ladder`
    monkeypatch.setattr(ladder, "_raising_element", doubled)
    report = check_ladder_consistency(3)
    assert not report.passed
    assert report.counterexample.description == (
        "J+ ladder relation at (j1=0, j2=1/2, J=1/2, M=-1/2)"
    )


def test_ladder_detects_a_highest_weight_that_j_plus_does_not_annihilate(monkeypatch):
    # the last integer coordinate of |J, J> flipped: the state keeps its
    # norm, and the check's own J+ no longer annihilates it
    original = ladder._top

    def last_flipped(tj1, tj2, m):
        xs, n, d = original(tj1, tj2, m)
        return ([*xs[:-1], -xs[-1]] if m >= 1 else xs), n, d

    monkeypatch.setattr(ladder, "_top", last_flipped)
    report = check_ladder_consistency(2)
    assert not report.passed
    assert report.counterexample.description == (
        "J+ annihilation fails for (j1=1/2, j2=1/2, J=0)"
    )


def test_ladder_fails_when_actions_ignore_the_divisor(monkeypatch):
    original = verification._apply_ladder
    monkeypatch.setattr(
        verification,
        "_apply_ladder",
        lambda tj1, tj2, tM, components, direction, divisor=1: original(
            tj1, tj2, tM, components, direction
        ),
    )
    assert not check_ladder_consistency(2).passed


def test_ladder_fails_on_the_norm_of_a_state_that_the_walk_leaves_out(monkeypatch):
    # the chain loses |J=1, M=-1> of the cell (j1=1/2, j2=1/2): the walk
    # yields nothing there, and the check sees an empty state
    original = ladder._chain_components

    def losing_the_last(tj1, tj2, tJ):
        states = list(original(tj1, tj2, tJ))
        if (tj1, tj2, tJ) == (1, 1, 2):
            states[-1] = {}
        return iter(states)

    monkeypatch.setattr(ladder, "_chain_components", losing_the_last)
    report = check_ladder_consistency(2)
    assert not report.passed
    assert report.counterexample == Counterexample(
        "norm of |J=1, M=-1> at (j1=1/2, j2=1/2)", {"norm^2": "0"}
    )


def _one_state_short(states):
    # the chain keeps |J, J>, its first state, and loses its last one below
    return [states[0], *states[1:-1]]


def _one_state_long(states):
    return [*states, {}]


@pytest.mark.parametrize(
    "change, cell, triple, found, wanted",
    [
        # the first chain with a state below |J, J> is (j1=0, j2=1/2, J=1/2);
        # every chain, also the empty one at J = 0, can gain a state
        (_one_state_short, "(j1=0, j2=1/2)", "(j1=0, j2=1/2, J=1/2)", 0, 1),
        (_one_state_long, "(j1=0, j2=0)", "(j1=0, j2=0, J=0)", 1, 0),
    ],
)
def test_a_ladder_chain_of_the_wrong_length_fails_with_a_counterexample(
    monkeypatch, change, cell, triple, found, wanted
):
    from click.testing import CliRunner

    from cgexact.cli import cli

    original = ladder._chain_components
    monkeypatch.setattr(
        ladder,
        "_chain_components",
        lambda tj1, tj2, tJ: iter(change(list(original(tj1, tj2, tJ)))),
    )
    expected = Counterexample(
        f"cell {cell} raised ArithmeticError",
        {
            "error": f"the ladder chain of {triple} has {found} states below |J, J>, "
            f"not 2J = {wanted}"
        },
    )
    for check in (check_formula_agreement, check_ladder_consistency):
        report = check(3)
        assert not report.passed
        assert report.counterexample == expected
    result = CliRunner().invoke(cli, ["verify", "--max-2j", "3"])
    assert result.exit_code == 2, result.output
    assert "raised ArithmeticError" in result.output


def _wrong_at_half(element, factor):
    """``element`` times ``factor`` at j = m = 1/2 only."""
    def wrong(tj, tm):
        value = element(tj, tm)
        return value * factor if (tj, tm) == (1, 1) else value

    return wrong


def test_wrong_lowering_element_fails_ladder_and_agreement(monkeypatch):
    # wrong only at j = m = 1/2; in the cell (j1=0, j2=1/2), the first of the
    # sweep to reach it, J(2) is the only lowering, with m2 taken at M - m1.
    # The route lowers through its scaled element: both checks fail
    with monkeypatch.context() as patch:
        patch.setattr(
            ladder, "_scaled_lowering_element", _wrong_at_half(ladder._scaled_lowering_element, 2)
        )
        for check in (check_ladder_consistency, check_formula_agreement):
            report = check(2)
            assert not report.passed
            assert "j1=0, j2=1/2" in report.counterexample.description
    # the check's J- acts through `_lowering_element` (held as its square),
    # which no route uses: only the ladder check fails
    monkeypatch.setattr(ladder, "_lowering_element", _wrong_at_half(ladder._lowering_element, 4))
    report = check_ladder_consistency(2)
    assert not report.passed
    assert report.counterexample.description == (
        "J- relation on beta states at (j1=0, j2=1/2, J=1/2, s=1)"
    )
    assert check_formula_agreement(2).passed


def test_incommensurable_ladder_contributions_fail_without_raising(monkeypatch):
    # cells with j1 = 0, first in the sweep, have one component per state;
    # sweep only the cell (j1=1/2, j2=1), where two contributions meet
    monkeypatch.setattr(verification, "_cells", lambda max_twice_j: [(1, 2)])
    # sqrt(2) times the check's J- element at j = m = 1/2: the two
    # contributions to |m1=-1/2> in J- |J=1/2, M=1/2> then fall in two
    # commensurability classes, and the lowered component has two terms
    with monkeypatch.context() as patch:
        patch.setattr(ladder, "_lowering_element", _wrong_at_half(ladder._lowering_element, 2))
        # the closed-form |J=1/2, M=1/2> of the cell, as the check groups it
        top = verification._subspaces(1, 2, ladder.TableRoute.CLOSED_FORM)[1][1]
        assert ladder._apply_ladder(1, 2, 1, top, -1)[-1].num_terms == 2
        report = check_ladder_consistency(2)
        assert not report.passed
        assert report.counterexample == Counterexample(
            "J- relation on beta states at (j1=1/2, j2=1, J=1/2, s=1)"
        )
    # twice the route's element there: the integer chain keeps every
    # component one radical, and the doubled contribution cancels the other
    # one, so the state shows a norm of 2/3 and a value of 0
    monkeypatch.setattr(
        ladder, "_scaled_lowering_element", _wrong_at_half(ladder._scaled_lowering_element, 2)
    )
    report = check_ladder_consistency(2)
    assert not report.passed
    assert report.counterexample == Counterexample(
        "norm of |J=1/2, M=-1/2> at (j1=1/2, j2=1)", {"norm^2": "2/3"}
    )
    report = check_formula_agreement(2)
    assert not report.passed
    assert report.counterexample == Counterexample(
        "C(j1=1/2, j2=1, m1=-1/2, m2=0, J=1/2, M=-1/2)",
        {"alternative": "-sqrt(1/3)", "racah": "-sqrt(1/3)", "ladder": "0"},
    )


def test_negated_ladder_top_fails_condon_shortley(monkeypatch):
    # x_0, the m1 = j1 coordinate of every |J, J> of the ladder route,
    # changes sign: the check reads the route's own top, so it fails at the
    # first cell, and verify exits 2
    from click.testing import CliRunner

    from cgexact.cli import cli

    original = ladder._top

    def negated(tj1, tj2, m):
        xs, n, d = original(tj1, tj2, m)
        return [-xs[0], *xs[1:]], n, d

    monkeypatch.setattr(ladder, "_top", negated)
    report = check_condon_shortley(2)
    assert (report.scope, report.counterexample) == (
        "2j <= 2, 1 cases",
        Counterexample("C(j1=0, j2=0, m1=0, m2=0, J=0, M=0) via ladder", {"ladder": "-1"}),
    )
    result = CliRunner().invoke(cli, ["verify", "--checks", "condon-shortley", "--max-2j", "2"])
    assert result.exit_code == 2, result.output
    assert "via ladder" in result.output


def test_threej_detects_flipped_symbols(monkeypatch, forked_pools):
    # flipping every symbol of a j-multiset would keep all its symmetries;
    # flipping one column order, (1, 1/2, 1/2), breaks the images of the others
    original = verification._wigner3j

    def flipped(ja, jb, jc, ma, mb):
        value = original(ja, jb, jc, ma, mb)
        return -value if (ja, jb, jc) == (2, 1, 1) else value

    monkeypatch.setattr(verification, "_wigner3j", flipped)
    report = check_threej_symmetries(3)
    assert not report.passed
    description = report.counterexample.description
    assert re.fullmatch(r"(cyclic|swap) \(\d{3}\) of 3j\(.*\)", description)
    values = report.counterexample.values
    base, permuted = (RadicalSum.parse(values[k]) for k in ("base", "permuted"))
    assert not base.is_zero and permuted == -base
    forked_pools()
    parallel = check_threej_symmetries(3, jobs=2)
    assert (parallel.scope, parallel.counterexample) == (
        report.scope, report.counterexample
    )


def test_threej_evaluates_each_symbol_once(monkeypatch):
    original = verification._wigner3j
    calls = []

    def counted(*columns):
        calls.append(columns)
        return original(*columns)

    monkeypatch.setattr(verification, "_wigner3j", counted)
    report = check_threej_symmetries(4)
    assert report.passed and report.scope == "2j <= 4, 303 cases"
    assert len(calls) == 303
    assert len(set(calls)) == 303


def test_flipped_racah_cell_fails_agreement_threej_and_condon_shortley(monkeypatch):
    # every Racah value of the cell (j1=1, j2=1/2) changes sign: the checks
    # that read the Racah kernel, through the table walk, cg_racah or
    # _wigner3j, must each fail there
    original = formulas._racah

    def flipped(tj1, tj2, tJ, tM, tm1):
        value = original(tj1, tj2, tJ, tM, tm1)
        return -value if (tj1, tj2) == (2, 1) else value

    monkeypatch.setattr(formulas, "_racah", flipped)
    report = check_formula_agreement(2)
    assert (report.scope, report.counterexample) == (
        "2j <= 2, 28 cases",
        Counterexample(
            "C(j1=1, j2=1/2, m1=-1, m2=1/2, J=1/2, M=-1/2)",
            {"alternative": "-sqrt(2/3)", "racah": "sqrt(2/3)", "ladder": "-sqrt(2/3)"},
        ),
    )
    report = check_condon_shortley(2)
    assert report.counterexample == Counterexample(
        "C(j1=1, j2=1/2, m1=1, m2=-1/2, J=1/2, M=1/2) via racah",
        {"racah": "-sqrt(2/3)"},
    )
    # the (312) image of this symbol is 3j(1 1/2 1/2; ...), in the flipped cell
    report = check_threej_symmetries(2)
    assert report.counterexample == Counterexample(
        "cyclic (312) of 3j(1/2 1/2 1; -1/2 -1/2 1)",
        {"base": "-sqrt(1/3)", "permuted": "sqrt(1/3)"},
    )
