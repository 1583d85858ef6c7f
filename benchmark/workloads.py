"""The benchmark's three workloads, their seeded inputs and the correctness gate.

Every call into cgexact goes through a module attribute (``formulas.cg_racah``,
never a name imported from it), so that the traced run, which rebinds those
attributes, sees each call the benchmark makes.

A workload is an endless stream of passes; a pass is a list of operations.
Each operation starts from cold coefficient caches, as a fresh ``cgexact``
process would, returns the work it did (rows, cases or coefficients) and the
exact values it produced, and raises :class:`GateFailure` when an output is
wrong.  Operations of ``table`` and ``verify`` repeat within a run, and the
run reports each one's median repeat.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator

from cgexact import cli, formulas, ladder, numerics, verification

#: (2j1, 2j2) cells of the ``table`` workload, with the SHA-256 of the CSV
#: every route must emit for them.  All have 2j1 + 2j2 = 60, one with integer
#: and two with half-integer j, so they cost within a few per cent of each
#: other (about 19 700 rows each).
TABLE_CELLS = {
    (30, 30): "16397fe4d3fc160ede9a0b1073e8c4b84c560f909706f95e007ceaca241d3835",
    (29, 31): "58101339fbf1b38783d37e6ae7552bc4cc0882d3d1ab5f0ecdba0d37d49c3f7b",
    (31, 29): "10bc5d217b6420cbaf9b1e5c0ee119bebd5617f6db9c180a829112d0784fc030",
}

#: Sweep bound B of the ``verify`` workload and the number of cases each check
#: must report at that bound, so that no change gets faster by sweeping less.
#: B = 8 keeps one sweep near 6 s, so that each check repeats several times
#: in a run.
VERIFY_MAX_TWICE_J = 8
VERIFY_CASES = {
    "agreement": 7809,
    "unitarity": 9834,
    "collapse": 7809,
    "threej": 4451,
    "condon-shortley": 285,
    "ladder": 285,
}

#: 2j1 and 2j2 of the ``coeff`` workload are uniform on 0..800.  This range
#: includes the specs where ``cg_racah`` raises (j1 + j2 + J above about
#: 1000); those operations count as failed and stay in the workload.
COEFF_MAX_TWICE_J = 800
#: Each pass draws 2j1 and 2j2 by Latin-hypercube sampling: one value from
#: each of 9 equal strata of 0..800 (801 values), paired at random.  The
#: marginals stay uniform, and the mix of sizes varies less between seeds.
COEFF_STRATA = 9
#: Passes of ``coeff`` per second of ``--seconds``.  A run attempts a fixed
#: number of specs, so its failures are the same on every run of a seed; at
#: 4 passes (36 specs) per second the run lasts about ``--seconds`` on the
#: 2-CPU VM the benchmark was defined on.
COEFF_PASSES_PER_SECOND = 4.0


class GateFailure(Exception):
    """An operation returned a wrong output (as opposed to raising)."""


@dataclass(frozen=True)
class Op:
    """One timed operation: ``run()`` returns (work done, exact values made)."""

    label: str
    run: Callable[[], tuple[int, Iterable[numerics.RadicalSum]]]
    #: tells apart operations with the same label; repeats of one operation
    #: share label and key, and the run reports their median
    key: object = None
    #: work counted when the operation raises: ``coeff`` counts every
    #: attempted coefficient, the others count only rows or cases delivered
    work_if_failed: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    #: seed -> the size parameters recorded with every result
    params: Callable[[int], dict]
    #: seed -> endless stream of pass factories; each call of a factory
    #: returns that pass's operations, so a pass can be replayed exactly
    passes: Callable[[int], Iterator[Callable[[], list[Op]]]]
    #: passes that run before a run may stop: every operation at least once
    min_passes: int
    #: fixed work that other tenants of the host slow as much as this
    #: workload; see ``run.host_speed``
    calibration: Callable[[], None]
    #: for a workload whose operations can fail: run seconds -> the exact
    #: number of passes to run, so that which operations are attempted, and
    #: so which fail, depends on the seed alone and never on the host's speed
    fixed_passes: Callable[[float], int] | None = None


def fraction_unit() -> None:
    """Small-integer Fraction arithmetic, as in ``table`` and ``verify``."""
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction((-1) ** i * i * 7919, i * i + 1)


_BIG = (3**400, 7**250)


def bigint_unit() -> None:
    """Fractions, square roots and trial division on 600-bit integers, as in
    ``coeff``.  A busy host slowed ``coeff`` less than ``fraction_unit``, and
    about as much as this."""
    a, b = _BIG
    total = Fraction(0)
    for i in range(1, 12):
        total += Fraction(a + i, b + 2 * i)
        math.isqrt(a * i)
        [a % p for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)]


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def check_equal(got, expected, what: str) -> None:
    if got != expected:
        raise GateFailure(f"{what} differs")


def check_table(records, text: str, back, digest: str) -> None:
    """The CSV matches the cell's known digest, which also makes all four
    routes byte-identical, and parses back to the records built."""
    check_equal(hashlib.sha256(text.encode()).hexdigest(), digest, "csv digest")
    check_equal(back, records, "parsed records")


def check_coeff(spec, alternative, racah, back) -> None:
    check_equal(racah, alternative, f"cg_racah vs cg_alternative at {spec}")
    check_equal(back, alternative, f"str/parse round trip at {spec}")


def report_cases(report) -> int:
    """Cases a verification report counted (packed into its scope text)."""
    match = re.search(r"(\d+) cases$", report.scope)
    if match is None:
        raise GateFailure(f"no case count in scope {report.scope!r}")
    return int(match.group(1))


def check_report(name: str, report, expected_cases: int) -> None:
    if not report.passed:
        raise GateFailure(f"check {name} failed: {report.counterexample}")
    check_equal(report_cases(report), expected_cases, f"case count of {name}")


def gate_self_check() -> list[str]:
    """Feed the gate correct outputs and outputs with one sign flipped.

    Returns a list of problems; empty means the gate accepts every correct
    output and rejects every perturbed one.
    """
    spec = formulas.CouplingSpec.of(2, 1, 0, 0, 3, 0)
    value = formulas.cg_alternative(spec)
    records = ladder.build_full_table(1, "1/2", ladder.TableRoute.RACAH)
    text = cli.records_to_csv(records)
    digest = hashlib.sha256(text.encode()).hexdigest()
    flipped = [dataclasses.replace(records[0], exact=-records[0].exact), *records[1:]]
    flipped_text = cli.records_to_csv(flipped)
    report = verification.CHECKS["condon-shortley"](2, 1)
    cases = report_cases(report)
    correct = {
        "coeff": partial(check_coeff, spec, value, value, value),
        "table": partial(check_table, records, text, records, digest),
        "report": partial(check_report, "condon-shortley", report, cases),
    }
    perturbed = {
        "coeff racah sign": partial(check_coeff, spec, value, -value, value),
        "coeff round trip sign": partial(check_coeff, spec, value, value, -value),
        "table csv sign": partial(check_table, records, flipped_text, records, digest),
        "table parse sign": partial(check_table, records, text, flipped, digest),
        "report one case short": partial(check_report, "condon-shortley", report, cases + 1),
    }
    problems = []
    for what, check in correct.items():
        try:
            check()
        except GateFailure as exc:
            problems.append(f"rejected correct {what}: {exc}")
    for what, check in perturbed.items():
        try:
            check()
        except GateFailure:
            continue
        problems.append(f"accepted perturbed {what}")
    return problems


# ---------------------------------------------------------------------------
# table: one large cell, all four routes, rendered and parsed back
# ---------------------------------------------------------------------------


def table_cell(seed: int) -> tuple[int, int]:
    return random.Random(seed).choice(sorted(TABLE_CELLS))


def _table_route(cell, route) -> tuple[int, Iterable]:
    j1, j2 = (numerics.HalfInt.from_twice(t) for t in cell)
    records = ladder.build_full_table(j1, j2, route)
    text = cli.records_to_csv(records)
    back = cli.parse_table_csv(text)
    check_table(records, text, back, TABLE_CELLS[cell])
    return len(records), [r.exact for r in records]


def _table_pass(cell, route) -> list[Op]:
    return [Op(f"table.{route.value}", partial(_table_route, cell, route))]


def table_passes(seed: int):
    """One route per pass, cycling through the four routes."""
    cell = table_cell(seed)
    return itertools.cycle([partial(_table_pass, cell, route) for route in ladder.TableRoute])


def table_params(seed: int) -> dict:
    tj1, tj2 = table_cell(seed)
    return {"cell_2j1": tj1, "cell_2j2": tj2, "routes": [r.value for r in ladder.TableRoute]}


# ---------------------------------------------------------------------------
# verify: every check over all cells with 2j <= B, in this process
# ---------------------------------------------------------------------------


def _verify_check(name: str) -> tuple[int, Iterable]:
    report = verification.CHECKS[name](VERIFY_MAX_TWICE_J, 1)
    check_report(name, report, VERIFY_CASES[name])
    return VERIFY_CASES[name], ()


def _verify_pass(name: str) -> list[Op]:
    return [Op(f"verify.{name}", partial(_verify_check, name))]


def verify_passes(seed: int):
    """One check per pass, cycling through the checks in registry order.

    The sweep is exhaustive, so the seed does not change its inputs.
    """
    return itertools.cycle([partial(_verify_pass, name) for name in VERIFY_CASES])


def verify_params(seed: int) -> dict:
    return {"max_2j": VERIFY_MAX_TWICE_J, "jobs": 1, "checks": list(VERIFY_CASES)}


# ---------------------------------------------------------------------------
# coeff: single coefficients at large j, nothing shared between them
# ---------------------------------------------------------------------------


def random_spec(rng: random.Random, tj1: int, tj2: int):
    """A uniformly drawn well-formed spec with nonzero selection rules."""
    tJ = rng.randrange(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
    tM = rng.randrange(-tJ, tJ + 1, 2)
    tm1 = rng.randrange(max(-tj1, tM - tj2), min(tj1, tM + tj2) + 1, 2)
    twice = (tj1, tj2, tm1, tM - tm1, tJ, tM)
    return formulas.CouplingSpec(*(numerics.HalfInt.from_twice(t) for t in twice))


def _stratified(rng: random.Random) -> list[int]:
    width = (COEFF_MAX_TWICE_J + 1) // COEFF_STRATA
    values = [rng.randrange(i * width, (i + 1) * width) for i in range(COEFF_STRATA)]
    rng.shuffle(values)
    return values


def _coeff_op(spec) -> tuple[int, Iterable]:
    alternative = formulas.cg_alternative(spec)
    racah = formulas.cg_racah(spec)
    numerics.to_decimal(alternative, 5)
    back = numerics.RadicalSum.parse(str(alternative))
    check_coeff(spec, alternative, racah, back)
    return 1, (alternative,)


def _coeff_pass(specs) -> list[Op]:
    return [
        Op("coeff", partial(_coeff_op, spec), key=spec, work_if_failed=1)
        for spec in specs
    ]


def coeff_passes(seed: int):
    """Blocks of specs; the specs never repeat, so neither do the ops."""
    rng = random.Random(seed)
    while True:
        pairs = zip(_stratified(rng), _stratified(rng))
        yield partial(_coeff_pass, [random_spec(rng, a, b) for a, b in pairs])


def coeff_fixed_passes(seconds: float) -> int:
    return max(1, round(seconds * COEFF_PASSES_PER_SECOND))


def coeff_params(seed: int) -> dict:
    return {
        "min_2j": 0,
        "max_2j": COEFF_MAX_TWICE_J,
        "specs_per_pass": COEFF_STRATA,
        "passes_per_second": COEFF_PASSES_PER_SECOND,
    }


WORKLOADS = {
    "table": Workload(
        "table", table_params, table_passes, len(ladder.TableRoute), fraction_unit
    ),
    "verify": Workload(
        "verify", verify_params, verify_passes, len(VERIFY_CASES), fraction_unit
    ),
    "coeff": Workload(
        "coeff", coeff_params, coeff_passes, 1, bigint_unit, coeff_fixed_passes
    ),
}
