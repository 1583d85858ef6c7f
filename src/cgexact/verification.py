"""Property-test engine and cross-route certifier.

Each check sweeps a bounded region of quantum-number space and asserts an
exact identity (agreement of the three coefficient routes, unitarity of the
coupling matrix, radical collapse, 3j symmetries, the sign convention, and
ladder consistency).  There are no tolerances anywhere: every comparison is
exact equality of RadicalSums or rationals, and a failing report always
carries the first counterexample in sweep order.

Sweeps are embarrassingly parallel across (j1, j2) cells; with ``jobs > 1``
they fan out to worker processes and the results are merged in cell order,
so reports are identical whatever the completion order.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .formulas import (
    CouplingSpec,
    ThreeJSpec,
    cg_alternative,
    cg_racah,
    wigner3j,
)
from .ladder import (
    StateVector,
    TableRoute,
    _beta_state,
    _lowering_element,
    _raising_element,
    apply_jminus,
    apply_jplus,
    build_full_table,
    highest_weight_state,
    lower_normalized,
)
from .numerics import HalfInt, RadicalSum

__all__ = [
    "Counterexample",
    "VerificationReport",
    "check_condon_shortley",
    "check_formula_agreement",
    "check_ladder_consistency",
    "check_radical_collapse",
    "check_threej_symmetries",
    "check_unitarity",
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


def _run_cell_sweep(
    name: str,
    scope: str,
    worker: Callable[[tuple], CellResult],
    units: list[tuple],
    jobs: int,
) -> VerificationReport:
    started = time.perf_counter()
    count = 0
    for cell_count, failure in _map_ordered(worker, units, jobs):
        count += cell_count
        if failure is not None:
            return _report(name, f"{scope}, {count} cases", started, failure)
    return _report(name, f"{scope}, {count} cases", started)


def _valid_specs(tj1: int, tj2: int) -> Iterable[CouplingSpec]:
    """Every well-formed spec of the cell with M = m1 + m2, in sweep order."""
    j1, j2 = HalfInt.from_twice(tj1), HalfInt.from_twice(tj2)
    for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        J = HalfInt.from_twice(tJ)
        for tM in range(-tJ, tJ + 1, 2):
            M = HalfInt.from_twice(tM)
            for tm1 in range(max(-tj1, tM - tj2), min(tj1, tM + tj2) + 1, 2):
                yield CouplingSpec(
                    j1,
                    j2,
                    HalfInt.from_twice(tm1),
                    HalfInt.from_twice(tM - tm1),
                    J,
                    M,
                )


# ---------------------------------------------------------------------------
# Formula agreement
# ---------------------------------------------------------------------------


def _agreement_cell(cell: tuple[int, int]) -> CellResult:
    tj1, tj2 = cell
    ladder_values = {
        (r.J, r.M, r.m1): r.exact
        for r in build_full_table(
            HalfInt.from_twice(tj1),
            HalfInt.from_twice(tj2),
            TableRoute.LADDER_ITERATIVE,
        )
    }
    count = 0
    zero = RadicalSum.zero()
    for spec in _valid_specs(tj1, tj2):
        count += 1
        alternative = cg_alternative(spec)
        racah = cg_racah(spec)
        ladder = ladder_values.get((spec.J, spec.M, spec.m1), zero)
        if not (alternative == racah == ladder):
            return count, Counterexample(
                description=str(spec),
                values={
                    "alternative": str(alternative),
                    "racah": str(racah),
                    "ladder": str(ladder),
                },
            )
    return count, None


def check_formula_agreement(max_twice_j: int, jobs: int = 1) -> VerificationReport:
    """cg_alternative == cg_racah == iterative-ladder value, exactly,
    for every valid spec with 2j1, 2j2 <= max_twice_j (zeros included)."""
    return _run_cell_sweep(
        "formula agreement",
        f"2j <= {max_twice_j}",
        _agreement_cell,
        _cells(max_twice_j),
        jobs,
    )


# ---------------------------------------------------------------------------
# Unitarity
# ---------------------------------------------------------------------------


def _unitarity_cell(cell: tuple[int, int]) -> CellResult:
    tj1, tj2 = cell
    j1, j2 = HalfInt.from_twice(tj1), HalfInt.from_twice(tj2)
    records = build_full_table(j1, j2, TableRoute.CLOSED_FORM)
    rows: dict[tuple[int, int], dict[int, RadicalSum]] = {}
    columns: dict[int, dict[int, dict[int, RadicalSum]]] = {}
    for r in records:
        rows.setdefault((r.J.twice, r.M.twice), {})[r.m1.twice] = r.exact
        columns.setdefault(r.M.twice, {}).setdefault(r.m1.twice, {})[r.J.twice] = r.exact

    count = 0
    for (tJ, tM), row in sorted(rows.items()):
        for (tJb, tMb), other in sorted(rows.items()):
            if tMb != tM or tJb < tJ:
                continue
            count += 1
            product = RadicalSum.zero()
            for tm1, value in row.items():
                match = other.get(tm1)
                if match is not None:
                    product = product + value * match
            expected = RadicalSum.one() if tJb == tJ else RadicalSum.zero()
            if product != expected:
                return count, Counterexample(
                    description=(
                        f"row orthonormality at (j1={j1}, j2={j2}): "
                        f"J={HalfInt.from_twice(tJ)}, J'={HalfInt.from_twice(tJb)}, "
                        f"M={HalfInt.from_twice(tM)}"
                    ),
                    values={"inner product": str(product)},
                )

    for tM, by_m1 in sorted(columns.items()):
        keys = sorted(by_m1)
        for tm1 in keys:
            for tm1b in keys:
                if tm1b < tm1:
                    continue
                count += 1
                product = RadicalSum.zero()
                for tJ, value in by_m1[tm1].items():
                    match = by_m1[tm1b].get(tJ)
                    if match is not None:
                        product = product + value * match
                expected = RadicalSum.one() if tm1 == tm1b else RadicalSum.zero()
                if product != expected:
                    return count, Counterexample(
                        description=(
                            f"column completeness at (j1={j1}, j2={j2}): "
                            f"m1={HalfInt.from_twice(tm1)}, m1'={HalfInt.from_twice(tm1b)}, "
                            f"M={HalfInt.from_twice(tM)}"
                        ),
                        values={"inner product": str(product)},
                    )
    return count, None


def check_unitarity(j1, j2) -> VerificationReport:
    """Exact orthogonality of the full coefficient matrix for one cell:
    row orthonormality (fixed J, M over m1) and column completeness
    (fixed m1, m2 over J)."""
    started = time.perf_counter()
    j1, j2 = HalfInt(j1), HalfInt(j2)
    count, failure = _unitarity_cell((j1.twice, j2.twice))
    return _report(
        "unitarity", f"j1={j1}, j2={j2}, {count} inner products", started, failure
    )


def check_unitarity_sweep(max_twice_j: int, jobs: int = 1) -> VerificationReport:
    """check_unitarity over every cell with 2j <= max_twice_j."""
    return _run_cell_sweep(
        "unitarity",
        f"2j <= {max_twice_j}",
        _unitarity_cell,
        _cells(max_twice_j),
        jobs,
    )


# ---------------------------------------------------------------------------
# Radical collapse
# ---------------------------------------------------------------------------


def _collapse_cell(cell: tuple[int, int]) -> CellResult:
    tj1, tj2 = cell
    count = 0
    for spec in _valid_specs(tj1, tj2):
        count += 1
        value = cg_alternative(spec)
        if value.num_terms > 1:
            return count, Counterexample(
                description=str(spec), values={"value": str(value)}
            )
    return count, None


def check_radical_collapse(max_twice_j: int, jobs: int = 1) -> VerificationReport:
    """Every cg_alternative value in range reduces to at most one radical
    term after summation (term commensurability certificate)."""
    return _run_cell_sweep(
        "radical collapse",
        f"2j <= {max_twice_j}",
        _collapse_cell,
        _cells(max_twice_j),
        jobs,
    )


# ---------------------------------------------------------------------------
# 3j symmetries
# ---------------------------------------------------------------------------


def _threej_unit(unit: tuple[int, int]) -> CellResult:
    tja, max_twice_j = unit
    count = 0
    ja = HalfInt.from_twice(tja)
    for tjb in range(max_twice_j + 1):
        jb = HalfInt.from_twice(tjb)
        for tjc in range(abs(tja - tjb), min(tja + tjb, max_twice_j) + 1, 2):
            jc = HalfInt.from_twice(tjc)
            parity_sign = -1 if ((tja + tjb + tjc) // 2) & 1 else 1
            for tma in range(-tja, tja + 1, 2):
                for tmb in range(-tjb, tjb + 1, 2):
                    tmc = -tma - tmb
                    if abs(tmc) > tjc:
                        continue
                    count += 1
                    ma, mb, mc = (HalfInt.from_twice(t) for t in (tma, tmb, tmc))
                    base = wigner3j(ThreeJSpec(ja, jb, jc, ma, mb, mc))
                    comparisons = [
                        ("cyclic (231)", ThreeJSpec(jb, jc, ja, mb, mc, ma), 1),
                        ("cyclic (312)", ThreeJSpec(jc, ja, jb, mc, ma, mb), 1),
                        ("swap (213)", ThreeJSpec(jb, ja, jc, mb, ma, mc), parity_sign),
                        ("swap (132)", ThreeJSpec(ja, jc, jb, ma, mc, mb), parity_sign),
                        ("swap (321)", ThreeJSpec(jc, jb, ja, mc, mb, ma), parity_sign),
                        ("m negation", ThreeJSpec(ja, jb, jc, -ma, -mb, -mc), parity_sign),
                    ]
                    for label, permuted, sign in comparisons:
                        value = wigner3j(permuted)
                        if value != base * sign:
                            return count, Counterexample(
                                description=(
                                    f"{label} of 3j({ja} {jb} {jc}; {ma} {mb} {mc})"
                                ),
                                values={"base": str(base), "permuted": str(value)},
                            )
    return count, None


def check_threej_symmetries(max_twice_j: int, jobs: int = 1) -> VerificationReport:
    """Even column permutations leave the 3j symbol fixed; odd permutations
    and simultaneous m negation multiply it by (-1)^(j1+j2+j3)."""
    units = [(tja, max_twice_j) for tja in range(max_twice_j + 1)]
    return _run_cell_sweep(
        "3j symmetries", f"2j <= {max_twice_j}", _threej_unit, units, jobs
    )


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
            "ladder": highest_weight_state(j1, j2, J).component(spec.m1, spec.m2),
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
    return _run_cell_sweep(
        "Condon-Shortley sign",
        f"2j <= {max_twice_j}",
        _condon_cell,
        _cells(max_twice_j),
        jobs,
    )


# ---------------------------------------------------------------------------
# Ladder consistency
# ---------------------------------------------------------------------------


def _states_equal(a: StateVector, b: StateVector) -> bool:
    return a.components == b.components


def _ladder_cell(cell: tuple[int, int]) -> CellResult:
    tj1, tj2 = cell
    j1, j2 = HalfInt.from_twice(tj1), HalfInt.from_twice(tj2)
    chains = 0
    for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        chains += 1
        J = HalfInt.from_twice(tJ)
        m = (tj1 + tj2 - tJ) // 2
        top = highest_weight_state(j1, j2, J)
        if not apply_jplus(top).is_zero:
            return chains, Counterexample(
                description=f"J+ annihilation fails for (j1={j1}, j2={j2}, J={J})",
                values={"J+ |J,J>": str(apply_jplus(top).components)},
            )
        chain = [top]
        for _ in range(tJ):
            chain.append(lower_normalized(chain[-1], J))
        for step, state in enumerate(chain):
            tM = tJ - 2 * step
            if state.norm_squared() != 1:
                return chains, Counterexample(
                    description=(
                        f"norm of |J={J}, M={HalfInt.from_twice(tM)}> "
                        f"at (j1={j1}, j2={j2})"
                    ),
                    values={"norm^2": str(state.norm_squared())},
                )
            if step > 0:
                raised = apply_jplus(state)
                expected = chain[step - 1].scaled(_raising_element(tJ, tM))
                if not _states_equal(raised, expected):
                    return chains, Counterexample(
                        description=(
                            f"J+ ladder relation at (j1={j1}, j2={j2}, J={J}, "
                            f"M={HalfInt.from_twice(tM)})"
                        ),
                    )
        # beta-route states must obey the J- relation independently
        previous = _beta_state(j1, j2, m, 0)
        for s in range(1, tJ + 1):
            tM = tJ - 2 * s
            current = _beta_state(j1, j2, m, s)
            lowered = apply_jminus(previous)
            expected = current.scaled(_lowering_element(tJ, tM + 2))
            if not _states_equal(lowered, expected):
                return chains, Counterexample(
                    description=(
                        f"J- relation on beta states at (j1={j1}, j2={j2}, "
                        f"J={J}, s={s})"
                    ),
                )
            previous = current
    return chains, None


def check_ladder_consistency(max_twice_j: int, jobs: int = 1) -> VerificationReport:
    """Highest-weight annihilation and exact ladder action along every chain.

    For each (j1, j2, J): J+ kills |J, J>; each |J, M> built by repeated
    normalized lowering has exact norm 1; J+ applied to it reproduces
    sqrt(J(J+1) - M(M+1)) |J, M+1>; and the independently built beta-route
    states satisfy the J- relation sqrt(J(J+1) - M(M-1)) |J, M-1>.
    """
    return _run_cell_sweep(
        "ladder consistency",
        f"2j <= {max_twice_j}",
        _ladder_cell,
        _cells(max_twice_j),
        jobs,
    )


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
