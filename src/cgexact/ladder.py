"""Constructive route: |J,M> states rebuilt over the product basis.

Highest-weight states |J, J> come from the raising annihilation recurrence
(the alpha sequence), and the other states of a subspace from repeated
exact lowering (the iterative route, kept deliberately independent so it
can serve as an oracle).  `subspace_states` builds all the states of one
subspace either that way or from the closed form of `formulas`, each state
on its own, and `build_full_table` turns any route into the full
coefficient table for a (j1, j2) cell.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

from . import formulas
from .formulas import CouplingSpec
from .numerics import (
    HalfInt,
    RadicalSum,
    _radical,
    _term_products,
    sum_radicals,
    sum_signed_sqrts,
    to_decimal,
)

__all__ = [
    "CoefficientRecord",
    "StateVector",
    "TableRoute",
    "alpha_sequence",
    "apply_jminus",
    "apply_jplus",
    "build_full_table",
    "cg_ladder",
    "highest_weight_state",
    "lower_normalized",
    "subspace_states",
]

@dataclass(frozen=True, eq=True)
class StateVector:
    """Exact expansion of a state at one M over the product basis at (j1, j2).

    ``components`` maps the doubled m1 of each basis state |m1, M - m1> to
    its value and keeps, read-only, only the nonzero values of the mapping
    given.  States compare by value and are unhashable.  Every component of
    a state the routes build is one radical; the arithmetic on states goes
    through `sum_radicals`, which takes each product of two radicals as one
    integer square and sums the products that meet in one component, so it
    also gives the exact value of a state with components of several
    classes, as a broken route would build.
    """

    j1: HalfInt
    j2: HalfInt
    M: HalfInt
    components: Mapping[int, RadicalSum]

    __hash__ = None

    def __post_init__(self) -> None:
        pruned = {k: v for k, v in self.components.items() if not v.is_zero}
        object.__setattr__(self, "components", MappingProxyType(pruned))

    @property
    def is_zero(self) -> bool:
        return not self.components

    def component(self, m1) -> RadicalSum:
        return self.components.get(HalfInt(m1).twice, RadicalSum.zero())

    def norm_squared(self) -> RadicalSum:
        """The exact sum of the squared components: for components of one
        radical each, the sum of their squares, a rational."""
        return sum_radicals(
            term for value in self.components.values() for term in _term_products(value, value)
        )


def _lowering_element(tj: int, tm: int) -> int:
    """j(j+1) - m(m-1), the square of the J- matrix element, for doubled
    arguments of one parity."""
    return (tj * (tj + 2) - tm * (tm - 2)) // 4


def _raising_element(tj: int, tm: int) -> int:
    """j(j+1) - m(m+1), the square of the J+ matrix element, for doubled
    arguments of one parity."""
    return (tj * (tj + 2) - tm * (tm + 2)) // 4


def alpha_sequence(j1, j2, m: int) -> tuple[RadicalSum, ...]:
    """Highest-weight coefficients for the subspace J = j1 + j2 - m.

    alpha_l multiplies |j1-l, j2-m+l> and equals
    (-1)^l sqrt(prod_{k=1}^{l} (2j2-m+k)(m-k+1) / (k(2j1-k+1))) * alpha_0,
    with the empty product equal to 1; alpha_0 > 0 fixes the sign convention
    and normalization makes sum(alpha_l^2) == 1 exactly.  The products are
    taken in integers over the common denominator of the last one, so that
    alpha_l^2 is product_l over their sum, one reduced term per alpha.
    """
    j1, j2 = HalfInt(j1), HalfInt(j2)
    tj1, tj2 = j1.twice, j2.twice
    if not 0 <= m <= min(tj1, tj2):
        raise ValueError(f"m={m} outside 0..min(2j1, 2j2)={min(tj1, tj2)}")
    numerators, denominators = [1], [1]
    for k in range(1, m + 1):
        numerators.append(numerators[-1] * (tj2 - m + k) * (m - k + 1))
        denominators.append(denominators[-1] * k * (tj1 - k + 1))
    common = denominators[-1]
    products = [n * (common // d) for n, d in zip(numerators, denominators)]
    total = sum(products)
    return tuple(_radical(-1 if l & 1 else 1, p, total) for l, p in enumerate(products))


def _subspace_depth(j1: HalfInt, j2: HalfInt, J: HalfInt) -> int:
    """The depth m = j1 + j2 - J of subspace J; raises ValueError unless
    (j1, j2, J) obeys the triangle rule with j1 + j2 + J an integer."""
    tj1, tj2, tJ = j1.twice, j2.twice, J.twice
    if tJ < abs(tj1 - tj2) or tJ > tj1 + tj2 or (tj1 + tj2 + tJ) % 2:
        raise ValueError(f"triangle rule violated for (j1={j1}, j2={j2}, J={J})")
    return (tj1 + tj2 - tJ) // 2


def highest_weight_state(j1, j2, J) -> StateVector:
    """|J, M=J>: alpha_l at (j1-l, j2-m+l) with m = j1+j2-J.

    Annihilated exactly by the raising operator (a verified property, not an
    input assumption).
    """
    j1, j2, J = HalfInt(j1), HalfInt(j2), HalfInt(J)
    alphas = alpha_sequence(j1, j2, _subspace_depth(j1, j2, J))
    return StateVector(j1, j2, J, {j1.twice - 2 * l: a for l, a in enumerate(alphas)})


def _apply_ladder(state: StateVector, direction: int, divisor: int = 1) -> StateVector:
    """J- (direction=-1) or J+ (direction=+1) acting componentwise, with
    every matrix element's square divided by ``divisor``.

    Each new component is the sum of its two contributions, one from J(1)
    and one from J(2), each a radical whose square is that of the old
    component times the element's integer square, taken on the reduced
    integer pair of each term; `sum_radicals` adds them with one integer
    square root and one gcd.  A component of several classes brings one
    contribution per class.  Raises ValueError unless ``divisor`` is at
    least 1.
    """
    if divisor < 1:
        raise ValueError(f"divisor {divisor} of a ladder action must be at least 1")
    tj1, tj2, tM = state.j1.twice, state.j2.twice, state.M.twice
    element = _lowering_element if direction < 0 else _raising_element
    step = 2 * direction
    contributions: dict[int, list[tuple[int, int, int]]] = {}
    for tm1, value in state.components.items():
        # J(1) moves m1 and J(2) moves m2 = M - m1, which keeps m1
        moves = [
            (contributions.setdefault(key, []), e)
            for key, e in ((tm1 + step, element(tj1, tm1)), (tm1, element(tj2, tM - tm1)))
            if e
        ]
        for s, n, d in value._terms:
            d *= divisor
            for terms, e in moves:
                terms.append((s, n * e, d))
    components = {key: sum_radicals(terms) for key, terms in contributions.items()}
    return StateVector(state.j1, state.j2, HalfInt.from_twice(tM + step), components)


def apply_jminus(state: StateVector, divisor: int = 1) -> StateVector:
    """J- action, J- = J-(1) + J-(2) with exact matrix elements, divided
    by sqrt(divisor); raises ValueError unless divisor >= 1."""
    return _apply_ladder(state, -1, divisor)


def apply_jplus(state: StateVector, divisor: int = 1) -> StateVector:
    """J+ action divided by sqrt(divisor); undivided, it annihilates
    highest-weight states exactly.  Raises ValueError unless divisor >= 1."""
    return _apply_ladder(state, +1, divisor)


def lower_normalized(state: StateVector, J) -> StateVector:
    """The normalized |J, M-1> below a normalized |J, M> expansion.

    J- |J, M> has norm sqrt(J(J+1) - M(M-1)), so this is `apply_jminus`
    divided by that norm's square, with no separate scaling pass.  Raises
    ValueError unless M is one of J, J-1, ..., -J+1.
    """
    J = HalfInt(J)
    tJ, tM = J.twice, state.M.twice
    if tM > tJ or (tJ - tM) % 2:
        raise ValueError(f"M={state.M} is not a projection of J={J}")
    if tM <= -tJ:
        raise ValueError(f"cannot lower below M = -J (J={J})")
    return apply_jminus(state, (tJ * (tJ + 2) - tM * (tM - 2)) // 4)


def _closed_form_state(j1: HalfInt, j2: HalfInt, m: int, s: int) -> StateVector:
    """|j1+j2-m, j1+j2-m-s> from the closed form: each component is one
    `sum_signed_sqrts` over `formulas._closed_form_steps`, and the factor
    that all weights of the state share is computed once per state."""
    tj1, tj2 = j1.twice, j2.twice
    shared = formulas._shared_factor(tj1, tj2, m, s)
    components = {
        tj1 - 2 * k: sum_signed_sqrts(formulas._closed_form_steps(tj1, tj2, m, s, k, shared))
        for k in range(max(0, s + m - tj2), min(tj1, m + s) + 1)
    }
    return StateVector(j1, j2, HalfInt.from_twice(tj1 + tj2 - 2 * (m + s)), components)


def cg_ladder(spec: CouplingSpec) -> RadicalSum:
    """Single coefficient by explicit chain lowering from |J, J>."""
    if formulas._is_selection_zero(spec):
        return RadicalSum.zero()
    state = highest_weight_state(spec.j1, spec.j2, spec.J)
    for _ in range((spec.J.twice - spec.M.twice) // 2):
        state = lower_normalized(state, spec.J)
    return state.component(spec.m1)


# ---------------------------------------------------------------------------
# Full-table construction
# ---------------------------------------------------------------------------


class TableRoute(Enum):
    """How to produce the coefficients of a (j1, j2) table.

    BETA_CLOSED_FORM is kept as a second name of the closed-form build:
    `table --route beta` accepts it, and the benchmark's `table` workload
    cycles through every member and checks each one's CSV digest.
    """

    CLOSED_FORM = "closed-form"
    LADDER_ITERATIVE = "ladder"
    BETA_CLOSED_FORM = "beta"          # the CLOSED_FORM build, a second name
    RACAH = "racah"


@dataclass(frozen=True)
class CoefficientRecord:
    """One nonzero table row: (J, M, m1, m2) plus the exact value."""

    J: HalfInt
    M: HalfInt
    m1: HalfInt
    m2: HalfInt
    exact: RadicalSum

    @property
    def exact_text(self) -> str:
        return str(self.exact)

    @property
    def value_text(self) -> str:
        return to_decimal(self.exact, 5)

    def sort_key(self) -> tuple[int, int, int]:
        return (self.J.twice, self.M.twice, self.m1.twice)


def subspace_states(j1, j2, J, route: TableRoute | str) -> list[StateVector]:
    """The states |J, M> of subspace J of the (j1, j2) cell, for M = J .. -J:
    each a StateVector at that M, its components keyed by the doubled m1.

    LADDER_ITERATIVE lowers `highest_weight_state` one step at a time with
    `lower_normalized`; CLOSED_FORM and BETA_CLOSED_FORM, two names of one
    build, make every state on its own from the closed form.  RACAH builds
    no states and raises ValueError, as does a J outside the triangle rule.
    """
    j1, j2, J = HalfInt(j1), HalfInt(j2), HalfInt(J)
    route = TableRoute(route)
    m = _subspace_depth(j1, j2, J)
    if route is TableRoute.LADDER_ITERATIVE:
        states = [highest_weight_state(j1, j2, J)]
        for _ in range(J.twice):
            states.append(lower_normalized(states[-1], J))
        return states
    if route is TableRoute.RACAH:
        raise ValueError(f"the {route.value} route builds no states")
    return [_closed_form_state(j1, j2, m, s) for s in range(J.twice + 1)]


def build_full_table(j1, j2, route: TableRoute | str) -> list[CoefficientRecord]:
    """All nonzero coefficients for (j1, j2), sorted by (J, M, m1).

    Every route produces the identical record set, each in that order; the
    iterative ladder route recomputes states by repeated exact lowering
    precisely so it can defend the closed forms.  RACAH evaluates
    `formulas._racah` per doubled (J, M, m1) of `formulas._cell_keys`, and
    every other route reads the states of `subspace_states`.  ``route`` is
    a TableRoute or its value; any other value raises ValueError.
    """
    j1, j2 = HalfInt(j1), HalfInt(j2)
    route = TableRoute(route)
    tj1, tj2 = j1.twice, j2.twice
    if tj1 < 0 or tj2 < 0:
        raise ValueError("j1 and j2 must be nonnegative")
    if route is TableRoute.RACAH:
        # rows share one HalfInt per doubled value, which keeps the table small
        half = {t: HalfInt.from_twice(t) for t in range(-tj1 - tj2, tj1 + tj2 + 1)}
        return [
            CoefficientRecord(half[tJ], half[tM], half[tm1], half[tM - tm1], value)
            for tJ, tM, tm1 in formulas._cell_keys(tj1, tj2)
            if not (value := formulas._racah(tj1, tj2, tJ, tM, tm1)).is_zero
        ]
    records: list[CoefficientRecord] = []
    for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        J = HalfInt.from_twice(tJ)
        for state in reversed(subspace_states(j1, j2, J, route)):  # ascending M
            M, tM = state.M, state.M.twice
            records.extend(
                CoefficientRecord(
                    J, M, HalfInt.from_twice(tm1), HalfInt.from_twice(tM - tm1), value
                )
                for tm1, value in sorted(state.components.items())
            )
    return records
