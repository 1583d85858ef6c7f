"""Property-test engine and cross-route certifier.

Each check sweeps a bounded region of quantum-number space and asserts an
exact identity (agreement of the three coefficient routes, unitarity of the
coupling matrix, radical collapse, 3j symmetries, the sign convention, and
ladder consistency).  There are no tolerances anywhere: every comparison is
exact equality of RadicalSums, rationals or integers, and a failing report
always carries the first counterexample in sweep order.

The agreement, unitarity, collapse and ladder checks read each route's
table of a cell from its walk, `_closed_form_walk`, `_racah_walk` or
`_ladder_walk`: the nonzero values keyed by doubled (J, M, m1).  A key
that a walk leaves out has the value 0.  The 3j check calls `_wigner3j`
on one Racah subspace per column order of its j-triple.  These kernels
skip validation, which only the public entry points do.

Each check but Condon-Shortley decides a unit from canonical integers
first, as its docstring says.  Only a unit that this does not clear is
walked again through the check's plain exact loop, which decides it and
writes the counterexample, so counts and counterexamples are the plain
loop's.  Unitarity and the ladder check read one factoring of a cell,
`_factored_cell`.  The ladder check's J± kernel `_apply_ladder` and the
unscaled elements, from which its integer recurrences take their factors,
live here: the ladder route steps with its own scaled ones, so `ladder`
holds none of the check's arithmetic.  A sweep builds a CouplingSpec or ThreeJSpec
only to write a counterexample, except the Condon-Shortley check: it
builds one CouplingSpec per |J, J> and passes it to the validating
`cg_alternative`, `cg_racah` and `cg_ladder`.

Sweeps are embarrassingly parallel across (j1, j2) cells, or across
j-triples for the 3j check; with ``jobs > 1`` they fan out to worker
processes and the results are merged in unit order, so reports are
identical whatever the completion order.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from math import gcd, isqrt, lcm
from operator import add, mul
from typing import Callable, Iterable, Iterator, Mapping

from .formulas import (
    CouplingSpec,
    ThreeJSpec,
    _cell_keys,
    _closed_form_walk,
    _key_spec,
    _racah_subspace,
    _racah_walk,
    _wigner3j,
    cg_alternative,
    cg_racah,
)
from .ladder import _ladder_walk, cg_ladder
from .numerics import HalfInt, RadicalSum, _dot, _j_range, sum_radicals

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


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check: passing reports carry no counterexample."""

    name: str
    scope: str
    passed: bool
    counterexample: Counterexample | None
    elapsed: float

    def to_dict(self) -> dict:
        """The fields in order, ``elapsed`` last as ``elapsed_seconds``."""
        data = asdict(self)
        data["elapsed_seconds"] = data.pop("elapsed")
        return data


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


def _cell_size(tj1: int, tj2: int) -> int:
    """The number of `_cell_keys` of the (2j1, 2j2) cell: n^2 per M block,
    n = the number of its m1, which is also the number of its J."""
    return sum(
        ((min(tj1, tM + tj2) - max(-tj1, tM - tj2)) // 2 + 1) ** 2
        for tM in range(-tj1 - tj2, tj1 + tj2 + 1, 2)
    )


def _agreement_cell(cell: tuple[int, int]) -> CellResult:
    tj1, tj2 = cell
    walks = (_closed_form_walk, _racah_walk, _ladder_walk)
    # three equal lists of (key, terms) agree at every key; any other cell
    # is walked again, in the same order, for the keyed loop
    closed, racahs, iterative = ([(key, v._terms) for key, v in walk(tj1, tj2)] for walk in walks)
    if closed == racahs == iterative:
        return _cell_size(tj1, tj2), None
    closed, racahs, iterative = (dict(walk(tj1, tj2)) for walk in walks)
    zero = RadicalSum.zero()
    for count, key in enumerate(_cell_keys(tj1, tj2), 1):
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
    return _cell_size(tj1, tj2), None


def check_formula_agreement(max_twice_j: int, jobs: int = 1) -> VerificationReport:
    """Closed form == Racah == iterative-ladder value, exactly, for every
    valid spec with 2j1, 2j2 <= max_twice_j (zeros included): per cell,
    the three routes' walks compared key by key over `_cell_keys`, a key
    missing from a walk reading 0.  A cell whose three walks are equal
    lists of (key, terms) passes without the keyed loop."""
    return _run_cell_sweep("formula agreement", _agreement_cell, max_twice_j, jobs)


# ---------------------------------------------------------------------------
# One factored cell, for unitarity and the ladder check
# ---------------------------------------------------------------------------


def _factored_cell(tj1: int, tj2: int, walk: Iterable) -> tuple | None:
    """(A, B, chains): the (2j1, 2j2) cell and ``walk``, a walk of it,
    factored in Racah's normalisation; None when the walk has a key outside
    the cell or a value that is not sqrt(A B) times a rational.

    A = (j1+m1)! (j1-m1)! (j2+m2)! (j2-m2)! is one list over a grid of rows
    M = j1+j2 .. -(j1+j2), each a slot per m1 = -j1 .. j1, 0 off the cell;
    B = (2J+1) (j1+j2-J)! (j1-j2+J)! (-j1+j2+J)! (J+M)! (J-M)! /
    (j1+j2+J+1)! a (numerator, denominator) by doubled (J, M).  The chains
    map doubled J to (P, L): integers P on the rows M = J .. -J, 0 where
    the walk has no value, so that a value is sqrt(A B) P / L.  Each value
    costs one gcd and two isqrts.
    """
    factorial = [1]
    for i in range(1, tj1 + tj2 + 2):
        factorial.append(factorial[-1] * i)
    top, width, m1s = tj1 + tj2, tj1 + 1, range(-tj1, tj1 + 1, 2)
    # A by doubled m1 in each row M of the grid
    product_weight: dict[int, dict[int, int]] = {tM: {} for tM in range(top, -top - 1, -2)}
    for tm1 in m1s:
        for tm2 in range(-tj2, tj2 + 1, 2):
            product_weight[tm1 + tm2][tm1] = (
                factorial[(tj1 + tm1) // 2] * factorial[(tj1 - tm1) // 2]
                * factorial[(tj2 + tm2) // 2] * factorial[(tj2 - tm2) // 2]
            )
    weights = [row.get(tm1, 0) for row in product_weight.values() for tm1 in m1s]
    coupled_weight = {
        (tJ, tM): (
            (tJ + 1) * factorial[(tj1 + tj2 - tJ) // 2] * factorial[(tj1 - tj2 + tJ) // 2]
            * factorial[(tj2 - tj1 + tJ) // 2] * factorial[(tJ + tM) // 2]
            * factorial[(tJ - tM) // 2],
            factorial[(tj1 + tj2 + tJ) // 2 + 1],
        )
        for tJ in _j_range(tj1, tj2)
        for tM in range(-tJ, tJ + 1, 2)
    }
    # the sign p and the r of each value, 0 / 1 where the walk has none
    signed = {tJ: [0] * ((tJ + 1) * width) for tJ in _j_range(tj1, tj2)}
    roots = {tJ: [1] * ((tJ + 1) * width) for tJ in _j_range(tj1, tj2)}
    at = None
    for (tJ, tM, tm1), value in walk:
        if at != (tJ, tM):  # once per (J, M): a walk yields in (J, M, m1) order
            at = tJ, tM
            if at not in coupled_weight:
                return None
            b_top, b_bottom = coupled_weight[at]
            ps, rs, row_weight = signed[tJ], roots[tJ], product_weight[tM]
            row = (tJ - tM) * width + tj1  # twice the slot of m1 = -j1
        # n / d is A B (p / r)^2.  A key outside the cell, or a value of
        # several terms or of another class, fails
        if (a := row_weight.get(tm1)) and len(value._terms) == 1:
            ((sign, n, d),) = value._terms
            x, y = n * b_bottom, d * a * b_top
            g = gcd(x, y)
            x //= g
            y //= g
            p, r = isqrt(x), isqrt(y)
            if p * p == x and r * r == y:
                slot = (row + tm1) // 2
                ps[slot], rs[slot] = sign * p, r
                continue
        return None
    chains = {}
    for tJ, rs in roots.items():
        common = lcm(*set(rs))  # the distinct r only: a short argument tuple
        chains[tJ] = list(map(mul, signed[tJ], map(common.__floordiv__, rs))), common
    return weights, coupled_weight, chains


# ---------------------------------------------------------------------------
# Unitarity
# ---------------------------------------------------------------------------


def _unitarity_cell(cell: tuple[int, int]) -> CellResult:
    tj1, tj2 = cell
    factored = _factored_cell(tj1, tj2, _closed_form_walk(tj1, tj2))
    if factored is None:
        return _unitarity_by_dot(tj1, tj2, _closed_form_walk(tj1, tj2))
    weights, coupled_weight, chains = factored
    # a row product (M; J, J') is sqrt(B_J B_J') sum_m1 A P P' / (L L'), 0
    # exactly when its integer sum is.  Every key lies in the cell, so each
    # M block is square, and orthonormal rows make its columns orthonormal:
    # a passing block of n rows counts its n (n + 1) row and column products
    top, width = tj1 + tj2, tj1 + 1
    count = 0
    for tM in range(top, -top - 1, -2):
        block_weights = weights[(top - tM) // 2 * width:(top - tM + 2) // 2 * width]
        at = {tJ: (tJ - tM) // 2 * width for tJ in range(max(abs(tj1 - tj2), abs(tM)), top + 1, 2)}
        rows = [(tJ, chains[tJ][0][start:start + width], chains[tJ][1]) for tJ, start in at.items()]
        for i, (tJ, row, common) in enumerate(rows):
            b_top, b_bottom = coupled_weight[tJ, tM]
            weighted = list(map(mul, block_weights, row))
            if b_top * sum(map(mul, weighted, row)) != b_bottom * common * common or any(
                sum(map(mul, weighted, other)) for _, other, _ in rows[i + 1:]
            ):
                return _unitarity_by_dot(tj1, tj2, _closed_form_walk(tj1, tj2))
        count += len(rows) * (len(rows) + 1)
    return count, None


def _unitarity_by_dot(tj1: int, tj2: int, items: Iterable) -> CellResult:
    """The unitarity check of the (2j1, 2j2) cell whose closed-form walk is
    ``items``, with every Gram product taken by `_dot`: its rows by J, in
    (J, M) order, then its columns by m1, in (M, m1) order, each vector
    meeting every vector of its M block at or after it.  The vectors are
    those of the cell, every |J, M> and every (m1, m2), and any other that
    ``items`` holds; one that ``items`` leaves out is empty."""
    j1, j2 = HalfInt.from_twice(tj1), HalfInt.from_twice(tj2)
    rows: dict[int, dict[int, dict]] = {}
    columns: dict[int, dict[int, dict]] = {}
    for tJ, tM, tm1 in _cell_keys(tj1, tj2):
        rows.setdefault(tM, {}).setdefault(tJ, {})
        columns.setdefault(tM, {}).setdefault(tm1, {})
    for (tJ, tM, tm1), value in items:
        rows.setdefault(tM, {}).setdefault(tJ, {})[tm1] = value
        columns.setdefault(tM, {}).setdefault(tm1, {})[tJ] = value
    one, zero = RadicalSum.one(), RadicalSum.zero()
    count = 0
    for label, index, vectors, order in (
        ("row orthonormality", "J", rows, lambda visit: (visit[1], visit[0])),
        ("column completeness", "m1", columns, None),
    ):
        indices = {tM: sorted(block) for tM, block in vectors.items()}
        visits = ((tM, t, i) for tM, ts in indices.items() for i, t in enumerate(ts))
        for tM, t, i in sorted(visits, key=order):
            block = vectors[tM]
            for tb in indices[tM][i:]:
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
    J, M over m1), then on its columns (completeness at fixed m1, m2 over J).

    Each closed-form value is factored once as sqrt(A B) P / L
    (`_factored_cell`), and each M block's row products are integer sums.
    Each block is square, and orthonormal rows of a square matrix make its
    columns orthonormal, so the integer pass tests rows only.  A cell with
    a sum that fails, a value that does not factor or a key outside the
    cell is walked again through `_unitarity_by_dot`, which takes every row
    and column product by `_dot`, so the counts and counterexamples are
    those of `_dot` alone.  The rows and columns are those of the cell,
    every |J, M> and every (m1, m2); one that the walk leaves out is empty
    and fails its norm."""
    return _run_cell_sweep("unitarity", _unitarity_cell, max_twice_j, jobs)


# ---------------------------------------------------------------------------
# Radical collapse
# ---------------------------------------------------------------------------


def _collapse_cell(cell: tuple[int, int]) -> CellResult:
    if all(len(value._terms) <= 1 for _, value in _closed_form_walk(*cell)):
        return _cell_size(*cell), None
    closed = dict(_closed_form_walk(*cell))
    for count, key in enumerate(_cell_keys(*cell), 1):
        value = closed.get(key)
        if value is not None and value.num_terms > 1:
            return count, Counterexample(
                description=str(_key_spec(*cell, key)), values={"value": str(value)}
            )
    return _cell_size(*cell), None


def check_radical_collapse(max_twice_j: int, jobs: int = 1) -> VerificationReport:
    """Every closed-form value in range, read from its walk, is at
    most one radical term.  Each value is an integer sum times one
    radical (`sum_signed_sqrts`) by construction, so this checks structure:
    that the table build keeps that form.  `tests/test_symbolic.py` proves
    the term ratio and the radical that the construction rests on.  A cell
    whose every value is at most one term passes without the keyed loop."""
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
    once, from its own columns, and each comparison is a lookup.  Each
    stretched symbol 3j(ja jb jc; ja, jc-ja, -jc) has the sign (-1)^(ja-jb+jc)
    of <ja ja; jb jc-ja | jc jc> > 0, which a sign fault that keeps every
    symmetry cannot keep, and which a value of several terms does not
    have.  A symbol that passes on its terms skips the labeled loop.
    """
    symbols: dict[tuple[int, ...], RadicalSum] = {}
    for ja, jb, jc in sorted(set(itertools.permutations(unit))):
        subspace = _racah_subspace(ja, jb, jc)
        for ma in range(-ja, ja + 1, 2):
            for mb in range(-jb, jb + 1, 2):
                mc = -ma - mb
                if abs(mc) <= jc:
                    symbols[ja, jb, jc, ma, mb, mc] = _wigner3j(subspace, ma, mb)
    odd = (sum(unit) // 2) & 1
    terms = {key: value._terms for key, value in symbols.items()}
    for count, (key, base) in enumerate(symbols.items(), 1):
        ja, jb, jc, ma, mb, mc = key
        sign = (-1) ** ((ja - jb + jc) // 2) if ma == ja and mc == -jc else None
        own = base._terms
        flipped_terms = tuple([(-s, n, d) for s, n, d in own]) if odd else own
        if (
            terms[jb, jc, ja, mb, mc, ma] == own == terms[jc, ja, jb, mc, ma, mb]
            and terms[jb, ja, jc, mb, ma, mc] == flipped_terms == terms[ja, jc, jb, ma, mc, mb]
            and terms[jc, jb, ja, mc, mb, ma] == flipped_terms == terms[ja, jb, jc, -ma, -mb, -mc]
            and (sign is None or (len(own) == 1 and own[0][0] == sign))
        ):
            continue
        flipped = -base if odd else base
        for label, image, expected in (
            ("cyclic (231)", (jb, jc, ja, mb, mc, ma), base),
            ("cyclic (312)", (jc, ja, jb, mc, ma, mb), base),
            ("swap (213)", (jb, ja, jc, mb, ma, mc), flipped),
            ("swap (132)", (ja, jc, jb, ma, mc, mb), flipped),
            ("swap (321)", (jc, jb, ja, mc, mb, ma), flipped),
            ("m negation", (ja, jb, jc, -ma, -mb, -mc), flipped),
        ):
            value = symbols[image]
            if value != expected:
                return count, Counterexample(
                    description=f"{label} of {_threej_spec(key)}",
                    values={"base": str(base), "permuted": str(value)},
                )
        if sign is not None and (base.num_terms != 1 or base.sign() != sign):
            return count, Counterexample(
                description=f"sign of the stretched {_threej_spec(key)}",
                values={"base": str(base), "expected sign": f"{sign:+d}"},
            )
    return len(symbols), None


def check_threej_symmetries(max_twice_j: int, jobs: int = 1) -> VerificationReport:
    """Even column permutations leave the 3j symbol fixed; odd permutations
    and simultaneous m negation multiply it by (-1)^(j1+j2+j3); a stretched
    symbol 3j(j1 j2 j3; j1, j3-j1, -j3) has the sign (-1)^(j1-j2+j3).

    The sweep runs over sorted doubled j-triples a <= b <= c <= max_twice_j
    with c <= a + b and a + b + c even, and evaluates every symbol in range
    exactly once.  A stretched symbol of several terms fails its sign.
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
            "ladder": cg_ladder(spec),
        }
        for route, value in values.items():
            if value.num_terms != 1 or value.sign() < 0:
                return count, Counterexample(
                    description=f"{spec} via {route}",
                    values={route: str(value)},
                )
    return count, None


def check_condon_shortley(max_twice_j: int, jobs: int = 1) -> VerificationReport:
    """The m1 = j1 coefficient of every |J, J> is strictly positive, on all
    three routes; 0 and a value of several terms fail."""
    return _run_cell_sweep("Condon-Shortley sign", _condon_cell, max_twice_j, jobs)


# ---------------------------------------------------------------------------
# Ladder consistency
# ---------------------------------------------------------------------------


def _lowering_element(tj: int, tm: int) -> int:
    """j(j+1) - m(m-1), the square of the J- matrix element, for doubled
    arguments of one parity."""
    return (tj * (tj + 2) - tm * (tm - 2)) // 4


def _raising_element(tj: int, tm: int) -> int:
    """j(j+1) - m(m+1), the square of the J+ matrix element, for doubled
    arguments of one parity."""
    return (tj * (tj + 2) - tm * (tm + 2)) // 4


def _apply_ladder(
    tj1: int,
    tj2: int,
    tM: int,
    components: Mapping[int, RadicalSum],
    direction: int,
    divisor: int = 1,
) -> dict[int, RadicalSum]:
    """J- (direction=-1) or J+ (direction=+1) acting on the state at
    doubled M whose values ``components`` maps by doubled m1, with every
    matrix element's square divided by ``divisor``: the nonzero components
    of the state at M - 1 or M + 1, by doubled m1.

    Each new component is the sum of its two contributions, one from J(1)
    and one from J(2), each a radical whose square is that of the old
    component times the element's integer square, taken on the reduced
    integer pair of each term; `sum_radicals` adds two of one class with
    one integer square root and three gcds.  A component of several classes
    brings one contribution per class.  Raises ValueError unless
    ``divisor`` is at least 1.
    """
    if divisor < 1:
        raise ValueError(f"divisor {divisor} of a ladder action must be at least 1")
    element = _lowering_element if direction < 0 else _raising_element
    step = 2 * direction
    contributions: dict[int, list[tuple[int, int, int]]] = {}
    for tm1, value in components.items():
        # J(1) moves m1 and J(2) moves m2 = M - m1, which keeps m1
        e1, e2 = element(tj1, tm1), element(tj2, tM - tm1)
        if e1 and (moved := contributions.get(tm1 + step)) is None:
            moved = contributions[tm1 + step] = []
        if e2 and (kept := contributions.get(tm1)) is None:
            kept = contributions[tm1] = []
        for s, n, d in value._terms:
            d *= divisor
            if e1:
                moved.append((s, n * e1, d))
            if e2:
                kept.append((s, n * e2, d))
    return {
        key: value
        for key, terms in contributions.items()
        if (value := sum_radicals(terms))._terms
    }


def _step_factor(element: int, weight: int, next_weight: int) -> int | None:
    """2 sqrt(e w / w'), the factor f with sqrt(e w) = (f/2) sqrt(w') for
    ``element``, the square e of a J+ or J- element, and two weights w, w'
    in the ratio ``weight`` : ``next_weight``; None unless f is an integer
    that is 0 only where e is (a nonzero e with a zero w moves a component
    off the cell, which no factor carries)."""
    square, rest = divmod(4 * element * weight, next_weight)
    if rest or square < 0 or (factor := isqrt(square)) ** 2 != square:
        return None
    return factor if (factor == 0) == (element == 0) else None


def _particle_steps(tj: int) -> tuple[list[int], list[int]] | None:
    """The J+ and J- step factors of one particle of doubled j at each
    doubled m = -j .. j, from `_raising_element` and `_lowering_element`:
    (j+m)! (j-m)!, its share of A, goes to m + 1 in the ratio
    (j-m) / (j+m+1) and to m - 1 in the ratio (j+m) / (j-m+1).  None
    where a factor is not an integer."""
    tms = range(-tj, tj + 1, 2)
    up = [_step_factor(_raising_element(tj, tm), tj - tm, tj + tm + 2) for tm in tms]
    down = [_step_factor(_lowering_element(tj, tm), tj + tm, tj - tm + 2) for tm in tms]
    return None if None in up or None in down else (up, down)


def _ladder_element(tJ: int, tM: int) -> int:
    """J(J+1) - M(M+1), the square of <J, M+1| J+ |J, M> = <J, M| J- |J, M+1>,
    from doubled J and M, the divisor of the checked relations.  It is
    `_raising_element` written again on purpose: a divisor that read the
    kernel's own element would cancel a fault that scales that element."""
    return (tJ * (tJ + 2) - tM * (tM + 2)) // 4


def _subspaces(
    walk: Iterable[tuple[tuple[int, int, int], RadicalSum]],
) -> dict[int, dict[int, dict[int, RadicalSum]]]:
    """A route's walk of a cell grouped by subspace: doubled J -> doubled
    M -> {doubled m1: value}."""
    groups: dict[int, dict[int, dict[int, RadicalSum]]] = {}
    at = state = None
    for (tJ, tM, tm1), value in walk:
        if at != (tJ, tM):  # once per (J, M): a walk yields in (J, M, m1) order
            at, state = (tJ, tM), groups.setdefault(tJ, {}).setdefault(tM, {})
        state[tm1] = value
    return groups


def _ladder_cell(cell: tuple[int, int]) -> CellResult:
    """The ladder check of a cell in integers on `_factored_cell`, one list
    comparison per chain and test, or else by `_ladder_by_apply`.

    Over sqrt(A' B(J, M)) / L, J+ |J, M> = sqrt(d) |J, M+1>, d =
    `_ladder_element` (J, M), is the recurrence sum_i f_i P(J, M) = g
    P(J, M+1), and J- |J, M+1> = sqrt(d) |J, M> is its mirror sum_i f_i
    P(J, M+1) = g P(J, M) (Racah 1942; Condon & Shortley 1935, ch. III).
    Each f is `_step_factor` of its particle's element (`_particle_steps`)
    and each g that of d with B's ratio B(J, M+1) / B(J, M) = (J+M+1) /
    (J-M), so each recurrence is the relation that `_apply_ladder` acts
    out; with the unscaled elements, f = 2(j - m) for J+ and 2(j + m) for
    J-, and g = 2(J+M+1) or 2(J-M).  J+ |J, J> = 0 has no right side, and
    a norm is B(J, M) sum A P^2 = L^2.  A factor that is not an integer
    sends the cell to `_ladder_by_apply`.
    """
    tj1, tj2 = cell
    ladder, closed = list(_ladder_walk(tj1, tj2)), list(_closed_form_walk(tj1, tj2))
    factored = _factored_cell(tj1, tj2, ladder)
    # two equal tables are factored once
    closed_factored = factored if ladder == closed else _factored_cell(tj1, tj2, closed)
    steps1, steps2 = _particle_steps(tj1), _particle_steps(tj2)
    if None in (factored, closed_factored, steps1, steps2):
        return _ladder_by_apply(tj1, tj2, (ladder, closed))
    (weights, coupled_weight, ladder_chains), closed_chains = factored, closed_factored[2]
    top, width, m1s = tj1 + tj2, tj1 + 1, range(-tj1, tj1 + 1, 2)
    # J(1) moves m1 and J(2) moves m2 = M - m1: their factors at each slot
    # of each row of the grid, 0 off the cell.  J(1)'s are 0 at the m1 it
    # would move off the grid, as `_step_factor` has no other 0 there
    up1, down1 = (factors * (top + 1) for factors in steps1)
    m2s = [(tM - tm1 + tj2) // 2 for tM in range(top, -top - 1, -2) for tm1 in m1s]
    up2, down2 = ([factors[i] if 0 <= i <= tj2 else 0 for i in m2s] for factors in steps2)
    for tJ in _j_range(tj1, tj2):
        first, last = (top - tJ) // 2 * width, (top + tJ) // 2 * width + width
        below = range(tJ - 2, -tJ - 1, -2)  # M of each relation's lower state
        elements = [_ladder_element(tJ, tM) for tM in below]
        rises = [_step_factor(d, tJ + tM + 2, tJ - tM) for d, tM in zip(elements, below)]
        falls = [_step_factor(d, tJ - tM, tJ + tM + 2) for d, tM in zip(elements, below)]
        if None in rises or None in falls:
            return _ladder_by_apply(tj1, tj2, (ladder, closed))
        (ps, common), (qs, _) = ladder_chains[tJ], closed_chains[tJ]
        # J+ of each ladder state, on the row above's slots (J(1) moves one):
        # 0 for |J, J>, else the state above times its rise g
        moved = [0, *map(mul, up1[first:last], ps)]
        raised = list(map(add, moved, [*map(mul, up2[first:last], ps), 0]))
        rise_slots = [g for g in rises for _ in m1s]
        # B_top(J, M) sum A P^2 = B_bottom L^2, one sum per row
        squares = map(mul, weights[first:last], map(mul, ps, ps))
        b_tops = [coupled_weight[tJ, tM][0] for tM in range(tJ, -tJ - 1, -2)]
        norm = coupled_weight[tJ, tJ][1] * common * common
        # J- of each closed-form state above -J, on the row below's slots:
        # the state below times its fall g
        moved = [*map(mul, down1[first:last], qs), 0]
        lowered = list(map(add, moved[1:], map(mul, down2[first:last], qs)))
        fall_slots = [g for g in falls for _ in m1s]
        if (
            any(raised[:width])
            or raised[width:-1] != list(map(mul, ps[:-width], rise_slots))
            or list(map(mul, b_tops, map(sum, zip(*[squares] * width)))) != [norm] * (tJ + 1)
            or lowered[:-width] != list(map(mul, qs[width:], fall_slots))
        ):
            return _ladder_by_apply(tj1, tj2, (ladder, closed))
    return len(_j_range(tj1, tj2)), None


def _ladder_by_apply(tj1: int, tj2: int, walks: Iterable[Iterable]) -> CellResult:
    """The ladder check of the (2j1, 2j2) cell whose ladder and closed-form
    walks are ``walks``, with every relation acted out by `_apply_ladder`
    and every norm taken by `_dot`."""
    j1, j2 = HalfInt.from_twice(tj1), HalfInt.from_twice(tj2)
    one = RadicalSum.one()
    walks = [_subspaces(walk) for walk in walks]
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
        if raised := _apply_ladder(tj1, tj2, tJ, chain[0], +1):
            return chains, Counterexample(
                description=f"J+ annihilation fails for (j1={j1}, j2={j2}, J={J})",
                # in descending m1, the order of the alphas of |J, J>
                values={"J+ |J,J>": str(dict(sorted(raised.items(), reverse=True)))},
            )
        for step, state in enumerate(chain):
            tM = tJ - 2 * step
            if (norm_squared := _dot(state, state)) != one:
                return chains, Counterexample(
                    description=(
                        f"norm of |J={J}, M={HalfInt.from_twice(tM)}> "
                        f"at (j1={j1}, j2={j2})"
                    ),
                    values={"norm^2": str(norm_squared)},
                )
            if step > 0:
                divisor, above = _ladder_element(tJ, tM), chain[step - 1]
                if _apply_ladder(tj1, tj2, tM, state, +1, divisor) != above:
                    return chains, Counterexample(
                        description=(
                            f"J+ ladder relation at (j1={j1}, j2={j2}, J={J}, "
                            f"M={HalfInt.from_twice(tM)})"
                        ),
                    )
        # closed-form states obey the J- relation; "beta" is their old name
        for s in range(1, tJ + 1):
            tM = tJ - 2 * s
            divisor = _ladder_element(tJ, tM)
            if _apply_ladder(tj1, tj2, tM + 2, closed[s - 1], -1, divisor) != closed[s]:
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
    of the cell: J+ kills |J, J>; each |J, M> built by repeated normalized
    lowering has exact norm 1; J+ applied to it and divided by
    sqrt(J(J+1) - M(M+1)) reproduces |J, M+1> exactly; and the closed-form
    states, each component computed on its own, satisfy the J- relation:
    J- |J, M> divided by sqrt(J(J+1) - M(M-1)) is exactly |J, M-1>.  Each
    cell is decided as Racah's recurrences on the factoring that unitarity
    reads (`_ladder_cell`), or else by `_ladder_by_apply`, whose J+/J-
    kernel `_apply_ladder` and `_dot` give the counts and counterexamples.
    A state that a walk leaves out is empty and fails its norm or relation.
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
