"""Property-test engine and cross-route certifier.

Each check sweeps a bounded region of quantum-number space and asserts an
exact identity (agreement of the three coefficient routes, unitarity of the
coupling matrix, radical collapse, 3j symmetries, the sign convention, and
ladder consistency).  There are no tolerances anywhere: every comparison is
exact equality of RadicalSums or rationals, and a failing report always
carries the first counterexample in sweep order.

The agreement, unitarity, collapse and ladder checks read each route's
table of a cell from `ladder._cell_values`, the walk that
`build_full_table` reads too: the nonzero values keyed by doubled
(J, M, m1), straight from each route's kernel (the closed-form component,
the ladder's integer chain, Racah's sum), with no state object per state.
A key that a walk leaves out has the value 0.  The ladder check groups the
walk by subspace (`_subspaces`) and acts with J+ and J- on each state's
plain {doubled m1: value} dict through `ladder._apply_ladder`, the one
J+/J- kernel.  The 3j check calls `formulas._wigner3j` on doubled columns.
These kernels skip validation, which only the public entry points do.  A
sweep builds a CouplingSpec or ThreeJSpec only to write a counterexample,
except the Condon-Shortley check: it builds one CouplingSpec per |J, J>
and passes it to the validating `cg_alternative` and `cg_racah`, and reads
the ladder route's value from the first state of
`ladder._chain_components`, the route's own |J, J>.

Sweeps are embarrassingly parallel across (j1, j2) cells, or across
j-triples for the 3j check; with ``jobs > 1`` they fan out to worker
processes and the results are merged in unit order, so reports are
identical whatever the completion order.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

from .formulas import (
    CouplingSpec,
    ThreeJSpec,
    _cell_keys,
    _key_spec,
    _wigner3j,
    cg_alternative,
    cg_racah,
)
from .ladder import TableRoute, _apply_ladder, _cell_values, _chain_components
from .numerics import HalfInt, RadicalSum, _dot, _j_range

__all__ = [
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
]


@dataclass(frozen=True)
class Counterexample:
    """Where a check failed, with the exact per-route values involved."""

    description: str
    values: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"description": self.description, "values": dict(self.values)}


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check: passing reports carry no counterexample."""

    name: str
    scope: str
    passed: bool
    counterexample: Counterexample | None
    elapsed: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "scope": self.scope,
            "passed": self.passed,
            "counterexample": (
                self.counterexample.to_dict() if self.counterexample else None
            ),
            "elapsed_seconds": self.elapsed,
        }


#: (number of cases examined, first counterexample or None)
CellResult = tuple[int, Counterexample | None]


def _cells(max_twice_j: int) -> list[tuple[int, int]]:
    """All (2j1, 2j2) cells in deterministic order; both exchange orders on
    purpose (the j1 < j2 half is recomputed independently, a stronger test)."""
    return [
        (tj1, tj2)
        for tj1 in range(max_twice_j + 1)
        for tj2 in range(max_twice_j + 1)
    ]


def _map_ordered(
    worker: Callable[[tuple], CellResult], units: list[tuple], jobs: int
) -> Iterator[CellResult]:
    """Apply worker to every unit, yielding results in unit order.

    jobs > 1 fans out to a process pool of at most one worker per unit and
    per CPU, whose map yields in submission order, so the merge does not
    depend on completion order.  A caller that stops early, as a sweep does
    at its first failure, cancels the units not yet started and waits for
    the running ones; a worker that dies raises BrokenProcessPool.
    """
    workers = min(jobs, len(units), os.cpu_count() or 1)
    if workers <= 1:
        for unit in units:
            yield worker(unit)
        return
    # imported here, not with the module: only a pool needs it, and every
    # command imports this module, so a module-level import slows each start
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers) as pool:
        yield from pool.map(worker, units)


def _guarded(worker: Callable[[tuple], CellResult], unit: tuple) -> CellResult:
    """``worker(unit)``, or no cases and a counterexample that names the unit
    and the error when a route raises an arithmetic or value error on it."""
    try:
        return worker(unit)
    except (ArithmeticError, ValueError) as error:
        where = ", ".join(f"j{i}={HalfInt.from_twice(t)}" for i, t in enumerate(unit, 1))
        kind = "cell" if len(unit) == 2 else "j-triple"
        return 0, Counterexample(
            f"{kind} ({where}) raised {type(error).__name__}", {"error": str(error)}
        )


def _run_cell_sweep(
    name: str,
    worker: Callable[[tuple], CellResult],
    max_twice_j: int,
    jobs: int,
    units: list[tuple] | None = None,
) -> VerificationReport:
    """Run ``worker`` on every unit, by default every cell of `_cells`, and
    sum the cases up to the first failure; a unit on which a route raises
    fails as `_guarded` reports it.  Raises ValueError for a negative bound
    or ``jobs`` below 1, which would otherwise pass on 0 cases."""
    if max_twice_j < 0 or jobs < 1:
        raise ValueError(
            f"max_twice_j must be >= 0 and jobs >= 1, got {max_twice_j} and {jobs}"
        )
    started = time.perf_counter()
    if units is None:
        units = _cells(max_twice_j)
    count, failure = 0, None
    for cell_count, failure in _map_ordered(partial(_guarded, worker), units, jobs):
        count += cell_count
        if failure is not None:
            break
    return VerificationReport(
        name=name,
        scope=f"2j <= {max_twice_j}, {count} cases",
        passed=failure is None,
        counterexample=failure,
        elapsed=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# Formula agreement
# ---------------------------------------------------------------------------


def _agreement_cell(cell: tuple[int, int]) -> CellResult:
    tj1, tj2 = cell
    closed = dict(_cell_values(tj1, tj2, TableRoute.CLOSED_FORM))
    racahs = dict(_cell_values(tj1, tj2, TableRoute.RACAH))
    iterative = dict(_cell_values(tj1, tj2, TableRoute.LADDER_ITERATIVE))
    count = 0
    zero = RadicalSum.zero()
    for key in _cell_keys(tj1, tj2):
        count += 1
        alternative = closed.get(key, zero)
        racah = racahs.get(key, zero)
        ladder = iterative.get(key, zero)
        if not (alternative == racah == ladder):
            return count, Counterexample(
                description=str(_key_spec(tj1, tj2, key)),
                values={
                    "alternative": str(alternative),
                    "racah": str(racah),
                    "ladder": str(ladder),
                },
            )
    return count, None


def check_formula_agreement(max_twice_j: int, jobs: int = 1) -> VerificationReport:
    """Closed form == Racah == iterative-ladder value, exactly, for every
    valid spec with 2j1, 2j2 <= max_twice_j (zeros included): per cell,
    the three routes' walks (`ladder._cell_values`) compared key by key
    over `formulas._cell_keys`, a key missing from a walk reading 0."""
    return _run_cell_sweep("formula agreement", _agreement_cell, max_twice_j, jobs)


# ---------------------------------------------------------------------------
# Unitarity
# ---------------------------------------------------------------------------


def _unitarity_cell(cell: tuple[int, int]) -> CellResult:
    tj1, tj2 = cell
    j1, j2 = HalfInt.from_twice(tj1), HalfInt.from_twice(tj2)
    rows: dict[int, dict[int, dict[int, RadicalSum]]] = {}
    columns: dict[int, dict[int, dict[int, RadicalSum]]] = {}
    for (tJ, tM, tm1), value in _cell_values(tj1, tj2, TableRoute.CLOSED_FORM):
        rows.setdefault(tM, {}).setdefault(tJ, {})[tm1] = value
        columns.setdefault(tM, {}).setdefault(tm1, {})[tJ] = value
    one, zero = RadicalSum.one(), RadicalSum.zero()

    # one Gram test per pass, inside each M block: the rows of a block by
    # J, visited in (J, M) order, then its columns by m1, in (M, m1) order;
    # each vector meets every vector of its block at or after it
    count = 0
    for label, index, blocks, order in (
        ("row orthonormality", "J", rows, lambda vector: vector[::-1]),
        ("column completeness", "m1", columns, None),
    ):
        vectors = sorted(((tM, t) for tM, block in blocks.items() for t in block), key=order)
        for tM, t in vectors:
            block = blocks[tM]
            for tb in sorted(tb for tb in block if tb >= t):
                count += 1
                product = _dot(block[t], block[tb])
                if product != (one if tb == t else zero):
                    return count, Counterexample(
                        description=(
                            f"{label} at (j1={j1}, j2={j2}): "
                            f"{index}={HalfInt.from_twice(t)}, "
                            f"{index}'={HalfInt.from_twice(tb)}, M={HalfInt.from_twice(tM)}"
                        ),
                        values={"inner product": str(product)},
                    )
    return count, None


def check_unitarity_sweep(max_twice_j: int, jobs: int = 1) -> VerificationReport:
    """Exact orthogonality of the full coefficient matrix of every cell with
    2j <= max_twice_j, one Gram test on its rows (orthonormality at fixed
    J, M over m1), then on its columns (completeness at fixed m1, m2 over J)."""
    return _run_cell_sweep("unitarity", _unitarity_cell, max_twice_j, jobs)


# ---------------------------------------------------------------------------
# Radical collapse
# ---------------------------------------------------------------------------


def _collapse_cell(cell: tuple[int, int]) -> CellResult:
    closed = dict(_cell_values(*cell, TableRoute.CLOSED_FORM))
    count = 0
    for key in _cell_keys(*cell):
        count += 1
        value = closed.get(key)
        if value is not None and value.num_terms > 1:
            return count, Counterexample(
                description=str(_key_spec(*cell, key)), values={"value": str(value)}
            )
    return count, None


def check_radical_collapse(max_twice_j: int, jobs: int = 1) -> VerificationReport:
    """Every closed-form value in range, read from the table walk, is at
    most one radical term.  Each value is an integer sum times one
    radical (`sum_signed_sqrts`) by construction, so this checks structure:
    that the table build keeps that form.  `tests/test_symbolic.py` proves
    the term ratio and the radical that the construction rests on."""
    return _run_cell_sweep("radical collapse", _collapse_cell, max_twice_j, jobs)


# ---------------------------------------------------------------------------
# 3j symmetries
# ---------------------------------------------------------------------------


def _threej_spec(key: tuple[int, ...]) -> ThreeJSpec:
    return ThreeJSpec(*(HalfInt.from_twice(t) for t in key))


def _threej_unit(unit: tuple[int, int, int]) -> CellResult:
    """Every symbol whose columns permute the doubled j-triple `unit`.

    Column permutations and m negation keep the multiset {ja, jb, jc}, so
    each image of a symbol lies in the same unit: every symbol is evaluated
    once, from its own columns, and each comparison is a lookup.
    """
    symbols: dict[tuple[int, ...], RadicalSum] = {}
    for ja, jb, jc in sorted(set(itertools.permutations(unit))):
        for ma in range(-ja, ja + 1, 2):
            for mb in range(-jb, jb + 1, 2):
                mc = -ma - mb
                if abs(mc) <= jc:
                    key = (ja, jb, jc, ma, mb, mc)
                    symbols[key] = _wigner3j(ja, jb, jc, ma, mb)
    odd = (sum(unit) // 2) & 1
    count = 0
    for key, base in symbols.items():
        count += 1
        ja, jb, jc, ma, mb, mc = key
        flipped = -base if odd else base
        images = (
            ("cyclic (231)", (jb, jc, ja, mb, mc, ma), base),
            ("cyclic (312)", (jc, ja, jb, mc, ma, mb), base),
            ("swap (213)", (jb, ja, jc, mb, ma, mc), flipped),
            ("swap (132)", (ja, jc, jb, ma, mc, mb), flipped),
            ("swap (321)", (jc, jb, ja, mc, mb, ma), flipped),
            ("m negation", (ja, jb, jc, -ma, -mb, -mc), flipped),
        )
        for label, image, expected in images:
            value = symbols[image]
            if value != expected:
                return count, Counterexample(
                    description=f"{label} of {_threej_spec(key)}",
                    values={"base": str(base), "permuted": str(value)},
                )
    return count, None


def check_threej_symmetries(max_twice_j: int, jobs: int = 1) -> VerificationReport:
    """Even column permutations leave the 3j symbol fixed; odd permutations
    and simultaneous m negation multiply it by (-1)^(j1+j2+j3).

    The sweep runs over sorted doubled j-triples a <= b <= c <= max_twice_j
    with c <= a + b and a + b + c even, and evaluates every symbol in range
    exactly once.
    """
    units = [
        (a, b, c)
        for a in range(max_twice_j + 1)
        for b in range(a, max_twice_j + 1)
        for c in range(b + (a & 1), min(a + b, max_twice_j) + 1, 2)
    ]
    return _run_cell_sweep("3j symmetries", _threej_unit, max_twice_j, jobs, units)


# ---------------------------------------------------------------------------
# Condon-Shortley convention
# ---------------------------------------------------------------------------


def _condon_cell(cell: tuple[int, int]) -> CellResult:
    tj1, tj2 = cell
    j1, j2 = HalfInt.from_twice(tj1), HalfInt.from_twice(tj2)
    count = 0
    for tJ in _j_range(tj1, tj2):
        tm2 = tJ - tj1
        count += 1
        J = HalfInt.from_twice(tJ)
        spec = CouplingSpec(j1, j2, j1, HalfInt.from_twice(tm2), J, J)
        values = {
            "alternative": cg_alternative(spec),
            "racah": cg_racah(spec),
            "ladder": next(_chain_components(tj1, tj2, tJ)).get(tj1, RadicalSum.zero()),
        }
        for route, value in values.items():
            if value.is_zero or value.sign() <= 0:
                return count, Counterexample(
                    description=f"{spec} via {route}",
                    values={route: str(value)},
                )
    return count, None


def check_condon_shortley(max_twice_j: int, jobs: int = 1) -> VerificationReport:
    """The m1 = j1 coefficient of every |J, J> is strictly positive, on all
    three routes."""
    return _run_cell_sweep("Condon-Shortley sign", _condon_cell, max_twice_j, jobs)


# ---------------------------------------------------------------------------
# Ladder consistency
# ---------------------------------------------------------------------------


def _ladder_element(tJ: int, tM: int) -> int:
    """J(J+1) - M(M+1), the square of <J, M+1| J+ |J, M> = <J, M| J- |J, M+1>,
    from doubled J and M.  Derived here rather than taken from `ladder`, so
    that a wrong matrix element there cannot also change what is expected."""
    return (tJ * (tJ + 2) - tM * (tM + 2)) // 4


def _subspaces(
    tj1: int, tj2: int, route: TableRoute
) -> dict[int, dict[int, dict[int, RadicalSum]]]:
    """The walk of ``route`` on the (2j1, 2j2) cell grouped by subspace:
    doubled J -> doubled M -> {doubled m1: value}."""
    groups: dict[int, dict[int, dict[int, RadicalSum]]] = {}
    for (tJ, tM, tm1), value in _cell_values(tj1, tj2, route):
        groups.setdefault(tJ, {}).setdefault(tM, {})[tm1] = value
    return groups


def _ladder_cell(cell: tuple[int, int]) -> CellResult:
    tj1, tj2 = cell
    j1, j2 = HalfInt.from_twice(tj1), HalfInt.from_twice(tj2)
    one = RadicalSum.one()
    walks = [
        _subspaces(tj1, tj2, route)
        for route in (TableRoute.LADDER_ITERATIVE, TableRoute.CLOSED_FORM)
    ]
    chains = 0
    for tJ in _j_range(tj1, tj2):
        chains += 1
        J = HalfInt.from_twice(tJ)
        # both routes' states |J, M>, M = J .. -J, as the walk's plain dicts;
        # a (J, M) that a walk leaves out is {}, which fails on its norm
        chain, closed = (
            [walk.get(tJ, {}).get(tM, {}) for tM in range(tJ, -tJ - 1, -2)]
            for walk in walks
        )
        raised = _apply_ladder(tj1, tj2, tJ, chain[0], +1)
        if raised:
            return chains, Counterexample(
                description=f"J+ annihilation fails for (j1={j1}, j2={j2}, J={J})",
                # in descending m1, the order of the alphas of |J, J>
                values={"J+ |J,J>": str(dict(sorted(raised.items(), reverse=True)))},
            )
        for step, state in enumerate(chain):
            tM = tJ - 2 * step
            norm_squared = _dot(state, state)
            if norm_squared != one:
                return chains, Counterexample(
                    description=(
                        f"norm of |J={J}, M={HalfInt.from_twice(tM)}> "
                        f"at (j1={j1}, j2={j2})"
                    ),
                    values={"norm^2": str(norm_squared)},
                )
            if step > 0:
                raised = _apply_ladder(tj1, tj2, tM, state, +1, _ladder_element(tJ, tM))
                if raised != chain[step - 1]:
                    return chains, Counterexample(
                        description=(
                            f"J+ ladder relation at (j1={j1}, j2={j2}, J={J}, "
                            f"M={HalfInt.from_twice(tM)})"
                        ),
                    )
        # closed-form states obey the J- relation; "beta" is their old name
        for s in range(1, tJ + 1):
            tM = tJ - 2 * s
            lowered = _apply_ladder(tj1, tj2, tM + 2, closed[s - 1], -1, _ladder_element(tJ, tM))
            if lowered != closed[s]:
                return chains, Counterexample(
                    description=(
                        f"J- relation on beta states at (j1={j1}, j2={j2}, "
                        f"J={J}, s={s})"
                    ),
                )
    return chains, None


def check_ladder_consistency(max_twice_j: int, jobs: int = 1) -> VerificationReport:
    """Highest-weight annihilation and exact ladder action along every chain.

    For each (j1, j2, J), on the states of the ladder and closed-form walks
    of the cell (`_subspaces`), each a plain {doubled m1: value} dict: J+
    kills |J, J>; each |J, M> built by repeated normalized lowering has
    exact norm 1; J+ applied to it and divided by sqrt(J(J+1) - M(M+1))
    reproduces |J, M+1> exactly; and the closed-form states, each component
    computed on its own, satisfy the J- relation: J- |J, M> divided by
    sqrt(J(J+1) - M(M-1)) is exactly |J, M-1>.  Each action is one call of
    the J+/J- kernel `ladder._apply_ladder`, divided actions with the
    integer square of the element, derived here by `_ladder_element`, as
    the divisor, so no expected state is scaled.  A state that a walk
    leaves out is empty and fails on its norm or its relation.
    """
    return _run_cell_sweep("ladder consistency", _ladder_cell, max_twice_j, jobs)


#: CLI-facing registry, in the order cmd_verify runs them.
CHECKS: dict[str, Callable[..., VerificationReport]] = {
    "agreement": check_formula_agreement,
    "unitarity": check_unitarity_sweep,
    "collapse": check_radical_collapse,
    "threej": check_threej_symmetries,
    "condon-shortley": check_condon_shortley,
    "ladder": check_ladder_consistency,
}


def run_checks(
    names: list[str], max_twice_j: int, jobs: int = 1
) -> list[VerificationReport]:
    """Run the named checks in registry order and return their reports."""
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise KeyError(f"unknown checks: {', '.join(unknown)}")
    return [CHECKS[name](max_twice_j, jobs) for name in CHECKS if name in names]
