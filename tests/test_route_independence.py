"""The three routes share nothing above the arithmetic layer.

Each route builds the tables of a few cells under ``sys.setprofile``, which
records every function of the package's sources that runs.  The ladder
route must call no `formulas` function but validation, Racah no `ladder`
function and none of route 1's helpers, and the closed form neither the
Racah kernel nor the ladder's lowering, in integers or on states.  What two routes share must lie in
`numerics` or in the table plumbing of `SHARED_PLUMBING`, and the
closed-form and Racah builds run no other `ladder` function: each route's
walk of a cell lives in its route's module, and `ladder` names neither
formula's kernel.

The ladder check's J+/J- kernel lives in `verification`: read from the
sources, `verification` takes only the ladder route's walk and `cg_ladder`
from `ladder`, and `ladder` imports neither the class-merging
`sum_radicals` nor anything of `verification`; traced, no route runs a
`verification` function.  Every route ends its values in
`numerics._times_radical`, and no module but `numerics` names `_radical`
or `_from_terms`.
"""

import ast
import importlib
import inspect
import pkgutil
import sys
from typing import Callable

import pytest

import cgexact
import cgexact.ladder as ladder
import cgexact.verification as verification
from cgexact.ladder import TableRoute, build_full_table
from cgexact.verification import check_ladder_consistency

#: small cells with integer and half-integer j, and subspaces deep enough
#: that every branch of each route runs
CELLS = [(2, "3/2"), ("5/2", 3), (3, 1)]

#: functions of `ladder` that only turn a route's walk into table rows
SHARED_PLUMBING = {
    "ladder.build_full_table",
}


def _qualname(frame) -> str:
    """The qualified name of the frame's code.  Code objects have no
    ``co_qualname`` before Python 3.11; there a method is named after the
    class of its module whose member, a function, a static or class method
    or a property getter, has this code."""
    code = frame.f_code
    if hasattr(code, "co_qualname"):
        return code.co_qualname
    for owner in frame.f_globals.values():
        if isinstance(owner, type):
            for member in vars(owner).values():
                member = getattr(member, "__func__", member)
                member = getattr(member, "fget", member)
                if getattr(member, "__code__", None) is code:
                    return f"{owner.__qualname__}.{code.co_name}"
    return code.co_name


def _traced(run: Callable[[], object]) -> set[str]:
    """'module.qualname' of every package function that runs in ``run()``;
    comprehensions and generated code (dataclass methods) are left out."""
    called = set()

    def profile(frame, event, arg):
        if event != "call":
            return
        module = frame.f_globals.get("__name__", "")
        code = frame.f_code
        if module.startswith("cgexact.") and not code.co_filename.startswith("<"):
            name = _qualname(frame)
            if not name.rsplit(".", 1)[-1].startswith("<"):
                called.add(f"{module.removeprefix('cgexact.')}.{name}")

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return called


def _calls(route: TableRoute) -> set[str]:
    """The package functions that run while ``route`` builds the tables of
    CELLS, as `_traced` names them."""
    return _traced(lambda: [build_full_table(j1, j2, route) for j1, j2 in CELLS])


def _in(module: str, calls: set[str]) -> set[str]:
    return {name for name in calls if name.startswith(f"{module}.")}


def _plumbing(name: str) -> bool:
    return name.startswith("numerics.") or any(
        name == allowed or name.startswith(f"{allowed}.") for allowed in SHARED_PLUMBING
    )


@pytest.fixture(scope="module")
def calls() -> dict[str, set[str]]:
    return {
        "closed form": _calls(TableRoute.CLOSED_FORM),
        "ladder": _calls(TableRoute.LADDER_ITERATIVE),
        "racah": _calls(TableRoute.RACAH),
    }


def test_the_trace_sees_each_route_at_work(calls):
    assert {
        "formulas._closed_form_component", "formulas._shared_factor", "formulas._closed_form_walk"
    } <= calls["closed form"]
    assert {
        "ladder._top", "ladder._scaled_raising_element", "ladder._integer_chain",
        "ladder._scaled_lowering_element", "ladder._ladder_walk",
    } <= calls["ladder"]
    assert {
        "formulas._racah_walk", "formulas._racah_subspace", "formulas._racah_sum",
        "formulas._cell_keys",
    } <= calls["racah"]
    # each route ends its values in the one constructor of x sqrt(n / d)
    for route, called in calls.items():
        assert "numerics._times_radical" in called, route
    # the ladder route lowers in integers: no action on states, no class merge
    assert calls["ladder"].isdisjoint({"verification._apply_ladder", "numerics.sum_radicals"})
    # the beta route is a second name of the closed-form build
    assert _calls(TableRoute.BETA_CLOSED_FORM) == calls["closed form"]


def test_the_table_walk_builds_no_state_below_the_top(calls):
    # the walk reads the closed-form kernel straight: it builds no
    # closed-form state at all, and each value is the kernel's one radical
    assert calls["closed form"].isdisjoint(
        {"ladder._ladder_walk", "numerics._dot", "numerics.sum_radicals"}
    )


def test_the_ladder_route_builds_its_top_in_integers(calls):
    # |J, J> comes from `_top`'s integer coordinates, each value one
    # `_times_radical`: no root of a rational and no norm of exact values
    assert calls["ladder"].isdisjoint(
        {"numerics.RadicalSum.sqrt", "numerics.RadicalSum.rational", "numerics._dot"}
    )


def test_the_ladder_check_builds_no_state_object():
    # the check decides J+ and J- as recurrences in integers on the one
    # factored cell, through step factors taken from the check's elements
    called = _traced(lambda: check_ladder_consistency(4))
    assert {
        "verification._factored_cell", "verification._step_factor",
        "verification._raising_element", "verification._lowering_element",
        "verification._ladder_element",
    } <= called


def test_ladder_route_calls_no_formula_but_validation(calls):
    assert _in("formulas", calls["ladder"]) <= {"formulas._is_selection_zero"}


def test_racah_calls_no_ladder_function_and_no_closed_form_helper(calls):
    racah = calls["racah"]
    assert {name for name in _in("ladder", racah) if not _plumbing(name)} == set()
    closed_form_helpers = {"formulas._closed_form_component", "formulas._shared_factor"}
    assert racah.isdisjoint(closed_form_helpers)


def test_closed_form_calls_neither_racah_nor_the_ladder_action(calls):
    closed = calls["closed form"]
    assert closed.isdisjoint(
        {"formulas._racah_walk", "formulas._racah_subspace", "formulas._racah_sum"}
    )
    assert closed.isdisjoint(
        {"verification._apply_ladder", "ladder._integer_chain", "ladder._scaled_lowering_element"}
    )


def test_the_closed_form_runs_no_ladder_code(calls):
    # its walk lives in `formulas`; the Racah build is held to the same by
    # test_racah_calls_no_ladder_function_and_no_closed_form_helper
    assert {name for name in _in("ladder", calls["closed form"]) if not _plumbing(name)} == set()


def test_each_route_has_a_walk():
    assert set(ladder._WALKS) == set(TableRoute)


@pytest.mark.parametrize(
    "first, second", [("closed form", "ladder"), ("closed form", "racah"), ("ladder", "racah")]
)
def test_what_two_routes_share_is_arithmetic_or_plumbing(calls, first, second):
    shared = calls[first] & calls[second]
    assert {name for name in shared if not _plumbing(name)} == set()


def _imports(module) -> set[tuple[str, str]]:
    """(module, name) of every import in ``module``'s source, the module as
    written after its leading dots: ``from .ladder import x`` gives
    ("ladder", "x"), ``from . import ladder`` ("", "ladder") and
    ``import cgexact.ladder`` ("cgexact.ladder", "")."""
    found = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            found |= {(node.module or "", alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {(alias.name, "") for alias in node.names}
    return found


def test_the_ladder_check_takes_only_the_walk_from_the_route_module():
    imports = _imports(verification)
    taken = {name for module, name in imports if module.rsplit(".", 1)[-1] == "ladder"}
    assert taken <= {"_ladder_walk", "cg_ladder"}
    assert ("", "ladder") not in imports
    assert all(name != "TableRoute" for _, name in imports)


def _names(module) -> set[str]:
    """Every identifier in ``module``'s source: its names, the attributes
    it reads and the names it imports."""
    found = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_the_route_module_names_no_formula_kernel():
    assert _names(ladder).isdisjoint(
        {"_closed_form_component", "_shared_factor", "_racah_subspace", "_racah_sum", "_cell_keys"}
    )


def test_no_module_but_the_arithmetic_layer_names_radical():
    # every route ends its values in `numerics._times_radical`, and none
    # builds a (sign, n, d) term of its own through `_radical` or
    # `_from_terms`
    modules = [info.name for info in pkgutil.iter_modules(cgexact.__path__)]
    assert {"formulas", "ladder", "verification", "cli"} <= set(modules)
    for name in modules:
        if name != "numerics":
            names = _names(importlib.import_module(f"cgexact.{name}"))
            assert names.isdisjoint({"_radical", "_from_terms"}), name


def test_the_route_module_holds_none_of_the_checks_arithmetic():
    imports = _imports(ladder)
    assert all(name != "sum_radicals" for _, name in imports)
    assert all(
        "verification" not in (module.rsplit(".", 1)[-1], name) for module, name in imports
    )
    # the J+/J- kernel and its unscaled elements are defined in the check only
    for name in ("_apply_ladder", "_lowering_element", "_raising_element"):
        assert not hasattr(ladder, name)
        assert getattr(verification, name).__module__ == "cgexact.verification"


def test_building_a_table_runs_no_check_code(calls):
    for route, called in calls.items():
        assert _in("verification", called) == set(), route
