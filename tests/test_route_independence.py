"""The three routes share nothing above the arithmetic layer.

Each route builds the tables of a few cells under ``sys.setprofile``, which
records every function of the package's sources that runs.  The ladder
route must call no `formulas` function but validation, Racah no `ladder`
function and none of route 1's helpers, and the closed form neither the
Racah kernel nor the ladder's lowering, in integers or on states.  What two routes share must lie in
`numerics` or in the table plumbing of `SHARED_PLUMBING`.
"""

import sys

import pytest

from cgexact.ladder import TableRoute, build_full_table

#: small cells with integer and half-integer j, and subspaces deep enough
#: that every branch of each route runs
CELLS = [(2, "3/2"), ("5/2", 3), (3, 1)]

#: functions of `ladder` that only turn states or values into table rows
SHARED_PLUMBING = {
    "ladder.build_full_table",
    "ladder._cell_values",
    "ladder._subspace_depth",
    "ladder.StateVector",
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


def _calls(route: TableRoute) -> set[str]:
    """'module.qualname' of every package function that runs while
    ``route`` builds the tables of CELLS; comprehensions and generated
    code (dataclass methods) are left out."""
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
        for j1, j2 in CELLS:
            build_full_table(j1, j2, route)
    finally:
        sys.setprofile(None)
    return called


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
        "formulas._closed_form_component", "formulas._shared_factor", "ladder._component_range"
    } <= calls["closed form"]
    assert {
        "ladder.alpha_sequence", "ladder._integer_chain", "ladder._scaled_lowering_element",
        "ladder._chain_components", "ladder._chain_value",
    } <= calls["ladder"]
    assert {"formulas._racah", "formulas._cell_keys"} <= calls["racah"]
    # the ladder route lowers in integers: no action on states, no class merge
    assert calls["ladder"].isdisjoint({"ladder._apply_ladder", "numerics.sum_radicals"})
    # the beta route is a second name of the closed-form build
    assert _calls(TableRoute.BETA_CLOSED_FORM) == calls["closed form"]


def test_the_table_walk_builds_no_state_below_the_top(calls):
    # the walk reads the closed-form kernel and the integer chain straight:
    # it builds no closed-form state at all and no lowered state
    assert calls["closed form"].isdisjoint(
        {"ladder._closed_form_state", "ladder.StateVector.__post_init__"}
    )
    assert "ladder._lowered_states" not in calls["ladder"]


def test_ladder_route_calls_no_formula_but_validation(calls):
    assert _in("formulas", calls["ladder"]) <= {"formulas._is_selection_zero"}


def test_racah_calls_no_ladder_function_and_no_closed_form_helper(calls):
    racah = calls["racah"]
    assert {name for name in _in("ladder", racah) if not _plumbing(name)} == set()
    closed_form_helpers = {"formulas._closed_form_component", "formulas._shared_factor"}
    assert racah.isdisjoint(closed_form_helpers)


def test_closed_form_calls_neither_racah_nor_the_ladder_action(calls):
    closed = calls["closed form"]
    assert "formulas._racah" not in closed
    assert closed.isdisjoint(
        {"ladder._apply_ladder", "ladder._integer_chain", "ladder._scaled_lowering_element"}
    )


@pytest.mark.parametrize(
    "first, second", [("closed form", "ladder"), ("closed form", "racah"), ("ladder", "racah")]
)
def test_what_two_routes_share_is_arithmetic_or_plumbing(calls, first, second):
    shared = calls[first] & calls[second]
    assert {name for name in shared if not _plumbing(name)} == set()
