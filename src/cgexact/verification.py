"""Property-test engine and cross-route certifier.

Each check sweeps a bounded region of quantum-number space and asserts an
exact identity (agreement of the three coefficient routes, unitarity of the
coupling matrix, radical collapse, 3j symmetries, the sign convention, and
ladder consistency).  There are no tolerances anywhere: every comparison is
exact equality of RadicalSums or rationals, and a failing report always
carries the first counterexample in sweep order.

The agreement, unitarity and collapse checks read per-cell tables: the
states that the closed form and the iterative ladder build for a cell,
keyed by doubled (J, M, m1), and the Racah kernel `formulas._racah` called
per key of `formulas._cell_keys`.  The 3j check calls `formulas._wigner3j`
on doubled columns.  These kernels skip validation, which only the public
entry points do; a CouplingSpec or ThreeJSpec is built only to write a
counterexample.

Sweeps are embarrassingly parallel across (j1, j2) cells, or across
j-triples for the 3j check; with ``jobs > 1`` they fan out to worker
processes and the results are merged in unit order, so reports are
identical whatever the completion order.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .formulas import (
    CouplingSpec,
    ThreeJSpec,
    _cell_keys,
    _key_spec,
    _racah,
    _wigner3j,
    cg_alternative,
    cg_racah,
)
from .ladder import (
    TableRoute,
    apply_jminus,
    apply_jplus,
    highest_weight_state,
    subspace_states,
)
from .numerics import HalfInt, RadicalSum, sum_radicals

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


def _report(name, scope, started, failure=None) -> VerificationReport:
    return VerificationReport(
        name=name,
        scope=scope,
        passed=failure is None,
        counterexample=failure,
        elapsed=time.perf_counter() - started,
    )


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
    per CPU; imap preserves submission order, so the merge is deterministic
    regardless of completion order.
    """
    workers = min(jobs, len(units), os.cpu_count() or 1)
    if workers <= 1:
        for unit in units:
            yield worker(unit)
        return
    with multiprocessing.Pool(workers) as pool:
        yield from pool.imap(worker, units, chunksize=1)
        # let the workers exit on their own: terminate(), which leaving the
        # block calls, can kill a worker that holds the result queue's lock
        # and hang the sweep
        pool.close()
        pool.join()


def _run_cell_sweep(
    name: str,
    worker: Callable[[tuple], CellResult],
    max_twice_j: int,
    jobs: int,
    units: list[tuple] | None = None,
) -> VerificationReport:
    """Run ``worker`` on every unit, by default every cell of `_cells`, and
    sum the cases up to the first failure.  Raises ValueError for a negative
    bound or ``jobs`` below 1, which would otherwise pass on 0 cases."""
    if max_twice_j < 0 or jobs < 1:
        raise ValueError(
            f"max_twice_j must be >= 0 and jobs >= 1, got {max_twice_j} and {jobs}"
        )
    started = time.perf_counter()
    scope = f"2j <= {max_twice_j}"
    if units is None:
        units = _cells(max_twice_j)
    count = 0
    for cell_count, failure in _map_ordered(worker, units, jobs):
        count += cell_count
        if failure is not None:
            return _report(name, f"{scope}, {count} cases", started, failure)
    return _report(name, f"{scope}, {count} cases", started)


# ---------------------------------------------------------------------------
# Formula agreement
# ---------------------------------------------------------------------------


def _route_table(
    tj1: int, tj2: int, route: TableRoute
) -> dict[tuple[int, int, int], RadicalSum]:
    """The nonzero values of the states that ``route`` builds for the
    (2j1, 2j2) cell, keyed by doubled (J, M, m1)."""
    j1, j2 = HalfInt.from_twice(tj1), HalfInt.from_twice(tj2)
    return {
        (tJ, state.M.twice, tm1): value
        for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
        for state in subspace_states(j1, j2, HalfInt.from_twice(tJ), route)
        for tm1, value in state.components.items()
    }


def _agreement_cell(cell: tuple[int, int]) -> CellResult:
    tj1, tj2 = cell
    closed = _route_table(tj1, tj2, TableRoute.CLOSED_FORM)
    iterative = _route_table(tj1, tj2, TableRoute.LADDER_ITERATIVE)
    count = 0
    zero = RadicalSum.zero()
    for key in _cell_keys(tj1, tj2):
        count += 1
        alternative = closed.get(key, zero)
        racah = _racah(tj1, tj2, *key)
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
    the closed-form and ladder states against `formulas._racah` per key."""
    return _run_cell_sweep("formula agreement", _agreement_cell, max_twice_j, jobs)


# ---------------------------------------------------------------------------
# Unitarity
# ---------------------------------------------------------------------------


def _dot(u: dict[int, RadicalSum], v: dict[int, RadicalSum]) -> RadicalSum:
    """Exact inner product of two sparse real vectors: one `sum_radicals`
    call over the products of the (sign, n, d) terms of matched components,
    so a value of several classes gets its exact sum too."""
    return sum_radicals(
        (s * t, nu * nv, du * dv)
        for index, a in u.items()
        if (b := v.get(index)) is not None
        for s, nu, du in a._terms
        for t, nv, dv in b._terms
    )


def _unitarity_cell(cell: tuple[int, int]) -> CellResult:
    tj1, tj2 = cell
    j1, j2 = HalfInt.from_twice(tj1), HalfInt.from_twice(tj2)
    # both products stay inside one M block: rows of a block by J, columns by m1
    rows: dict[int, dict[int, dict[int, RadicalSum]]] = {}
    columns: dict[int, dict[int, dict[int, RadicalSum]]] = {}
    for (tJ, tM, tm1), value in _route_table(tj1, tj2, TableRoute.CLOSED_FORM).items():
        rows.setdefault(tM, {}).setdefault(tJ, {})[tm1] = value
        columns.setdefault(tM, {}).setdefault(tm1, {})[tJ] = value
    one, zero = RadicalSum.one(), RadicalSum.zero()

    count = 0
    for tJ, tM in sorted((tJ, tM) for tM, block in rows.items() for tJ in block):
        block = rows[tM]
        for tJb in sorted(block):
            if tJb < tJ:
                continue
            count += 1
            product = _dot(block[tJ], block[tJb])
            if product != (one if tJb == tJ else zero):
                return count, Counterexample(
                    description=(
                        f"row orthonormality at (j1={j1}, j2={j2}): "
                        f"J={HalfInt.from_twice(tJ)}, J'={HalfInt.from_twice(tJb)}, "
                        f"M={HalfInt.from_twice(tM)}"
                    ),
                    values={"inner product": str(product)},
                )

    for tM, block in sorted(columns.items()):
        keys = sorted(block)
        for tm1 in keys:
            for tm1b in keys:
                if tm1b < tm1:
                    continue
                count += 1
                product = _dot(block[tm1], block[tm1b])
                if product != (one if tm1 == tm1b else zero):
                    return count, Counterexample(
                        description=(
                            f"column completeness at (j1={j1}, j2={j2}): "
                            f"m1={HalfInt.from_twice(tm1)}, m1'={HalfInt.from_twice(tm1b)}, "
                            f"M={HalfInt.from_twice(tM)}"
                        ),
                        values={"inner product": str(product)},
                    )
    return count, None


def check_unitarity_sweep(max_twice_j: int, jobs: int = 1) -> VerificationReport:
    """Exact orthogonality of the full coefficient matrix of every cell with
    2j <= max_twice_j: row orthonormality (fixed J, M over m1) and column
    completeness (fixed m1, m2 over J)."""
    return _run_cell_sweep("unitarity", _unitarity_cell, max_twice_j, jobs)


# ---------------------------------------------------------------------------
# Radical collapse
# ---------------------------------------------------------------------------


def _collapse_cell(cell: tuple[int, int]) -> CellResult:
    closed = _route_table(*cell, TableRoute.CLOSED_FORM)
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
    """Every closed-form value in range, read from the per-state build,
    reduces to at most one radical term after summation (term
    commensurability certificate)."""
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
    for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        tm2 = tJ - tj1
        if abs(tm2) > tj2:
            continue
        count += 1
        J = HalfInt.from_twice(tJ)
        spec = CouplingSpec(j1, j2, j1, HalfInt.from_twice(tm2), J, J)
        values = {
            "alternative": cg_alternative(spec),
            "racah": cg_racah(spec),
            "ladder": highest_weight_state(j1, j2, J).component(spec.m1),
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


def _ladder_cell(cell: tuple[int, int]) -> CellResult:
    tj1, tj2 = cell
    j1, j2 = HalfInt.from_twice(tj1), HalfInt.from_twice(tj2)
    one = RadicalSum.one()
    chains = 0
    for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        chains += 1
        J = HalfInt.from_twice(tJ)
        chain = subspace_states(j1, j2, J, TableRoute.LADDER_ITERATIVE)
        raised = apply_jplus(chain[0])
        if not raised.is_zero:
            return chains, Counterexample(
                description=f"J+ annihilation fails for (j1={j1}, j2={j2}, J={J})",
                values={"J+ |J,J>": str(dict(raised.components))},
            )
        for step, state in enumerate(chain):
            tM = tJ - 2 * step
            norm_squared = state.norm_squared()
            if norm_squared != one:
                return chains, Counterexample(
                    description=(
                        f"norm of |J={J}, M={HalfInt.from_twice(tM)}> "
                        f"at (j1={j1}, j2={j2})"
                    ),
                    values={"norm^2": str(norm_squared)},
                )
            if step > 0:
                if apply_jplus(state, _ladder_element(tJ, tM)) != chain[step - 1]:
                    return chains, Counterexample(
                        description=(
                            f"J+ ladder relation at (j1={j1}, j2={j2}, J={J}, "
                            f"M={HalfInt.from_twice(tM)})"
                        ),
                    )
        # closed-form states obey the J- relation; "beta" is their old name
        closed = subspace_states(j1, j2, J, TableRoute.CLOSED_FORM)
        for s in range(1, tJ + 1):
            tM = tJ - 2 * s
            if apply_jminus(closed[s - 1], _ladder_element(tJ, tM)) != closed[s]:
                return chains, Counterexample(
                    description=(
                        f"J- relation on beta states at (j1={j1}, j2={j2}, "
                        f"J={J}, s={s})"
                    ),
                )
    return chains, None


def check_ladder_consistency(max_twice_j: int, jobs: int = 1) -> VerificationReport:
    """Highest-weight annihilation and exact ladder action along every chain.

    For each (j1, j2, J): J+ kills |J, J>; each |J, M> built by repeated
    normalized lowering has exact norm 1; J+ applied to it and divided by
    sqrt(J(J+1) - M(M+1)) reproduces |J, M+1> exactly; and the closed-form
    states, each built on its own, satisfy the J- relation: J- |J, M>
    divided by sqrt(J(J+1) - M(M-1)) is exactly |J, M-1>.  Each divided
    action is one `apply_jplus` or `apply_jminus` call with the integer
    square of the element as its divisor, so no expected state is scaled.
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
