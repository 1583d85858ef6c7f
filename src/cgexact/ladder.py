"""Constructive route: |J,M> states rebuilt over the product basis.

Highest-weight states |J, J> come from the raising annihilation recurrence
(the alpha sequence); the other states of a subspace come either from
repeated exact lowering (the iterative route, kept deliberately independent
so it can serve as an oracle) or from the beta closed form.
`subspace_states` builds all the states of one subspace by either of those
two, and `build_full_table` turns any route into the full coefficient table
for a (j1, j2) cell.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from . import formulas
from .formulas import CouplingSpec, MalformedCouplingError, validate
from .numerics import HalfInt, RadicalSum, binomial, sum_signed_sqrts, to_decimal

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

BasisIndex = tuple[HalfInt, HalfInt]


@dataclass(frozen=True, eq=True)
class StateVector:
    """Exact expansion of a state over the product basis |m1, m2> at (j1, j2).

    ``components`` keeps the nonzero values of the mapping given, read-only.
    For any state built here all components share a single M = m1 + m2.
    States compare by value and are unhashable.
    """

    j1: HalfInt
    j2: HalfInt
    components: Mapping[BasisIndex, RadicalSum]

    __hash__ = None

    def __post_init__(self) -> None:
        pruned = {k: v for k, v in self.components.items() if not v.is_zero}
        object.__setattr__(self, "components", MappingProxyType(pruned))

    @property
    def is_zero(self) -> bool:
        return not self.components

    def component(self, m1, m2) -> RadicalSum:
        return self.components.get((HalfInt(m1), HalfInt(m2)), RadicalSum.zero())

    def items(self) -> list[tuple[BasisIndex, RadicalSum]]:
        """Components sorted by m1 (descending m2 follows automatically)."""
        return sorted(self.components.items(), key=lambda kv: kv[0][0].twice)

    def m_total(self) -> HalfInt:
        """The shared M of all components; raises on the zero vector."""
        levels = {m1.twice + m2.twice for (m1, m2) in self.components}
        if not levels:
            raise ValueError("zero state vector has no M level")
        if len(levels) > 1:
            raise ValueError(f"state spans several M levels: {sorted(levels)}")
        return HalfInt.from_twice(levels.pop())

    def norm_squared(self) -> Fraction:
        total = RadicalSum.zero()
        for value in self.components.values():
            total = total + value * value
        return total.as_fraction() if not total.is_zero else Fraction(0)

    def inner(self, other: "StateVector") -> RadicalSum:
        """Exact inner product (components are real; no conjugation)."""
        if (self.j1, self.j2) != (other.j1, other.j2):
            raise ValueError("inner product of states over different (j1, j2)")
        small, large = self.components, other.components
        if len(large) < len(small):
            small, large = large, small
        total = RadicalSum.zero()
        for index, value in small.items():
            match = large.get(index)
            if match is not None:
                total = total + value * match
        return total

    def scaled(self, factor: RadicalSum) -> "StateVector":
        return StateVector(
            self.j1, self.j2, {k: v * factor for k, v in self.components.items()}
        )


@lru_cache(maxsize=None)
def _lowering_element(tj: int, tm: int) -> RadicalSum:
    """sqrt(j(j+1) - m(m-1)) for doubled arguments."""
    return RadicalSum.sqrt(Fraction(tj * (tj + 2) - tm * (tm - 2), 4))


@lru_cache(maxsize=None)
def _raising_element(tj: int, tm: int) -> RadicalSum:
    """sqrt(j(j+1) - m(m+1)) for doubled arguments."""
    return RadicalSum.sqrt(Fraction(tj * (tj + 2) - tm * (tm + 2), 4))


def alpha_sequence(j1, j2, m: int) -> tuple[RadicalSum, ...]:
    """Highest-weight coefficients for the subspace J = j1 + j2 - m.

    alpha_l multiplies |j1-l, j2-m+l> and equals
    (-1)^l sqrt(prod_{k=1}^{l} (2j2-m+k)(m-k+1) / (k(2j1-k+1))) * alpha_0,
    with the empty product equal to 1; alpha_0 > 0 fixes the sign convention
    and normalization makes sum(alpha_l^2) == 1 exactly.
    """
    j1, j2 = HalfInt(j1), HalfInt(j2)
    tj1, tj2 = j1.twice, j2.twice
    if not 0 <= m <= min(tj1, tj2):
        raise ValueError(f"m={m} outside 0..min(2j1, 2j2)={min(tj1, tj2)}")
    products = [Fraction(1)]
    for k in range(1, m + 1):
        ratio = Fraction((tj2 - m + k) * (m - k + 1), k * (tj1 - k + 1))
        products.append(products[-1] * ratio)
    alpha0 = RadicalSum.sqrt(Fraction(1) / sum(products))
    alphas = []
    for l, product in enumerate(products):
        value = RadicalSum.sqrt(product) * alpha0
        alphas.append(-value if l & 1 else value)
    return tuple(alphas)


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
    tj1, tj2 = j1.twice, j2.twice
    m = _subspace_depth(j1, j2, J)
    components: dict[BasisIndex, RadicalSum] = {}
    for l, alpha in enumerate(alpha_sequence(j1, j2, m)):
        index = (HalfInt.from_twice(tj1 - 2 * l), HalfInt.from_twice(tj2 - 2 * (m - l)))
        components[index] = alpha
    return StateVector(j1, j2, components)


def _apply_ladder(state: StateVector, direction: int) -> StateVector:
    """J- (direction=-1) or J+ (direction=+1) acting componentwise."""
    tj1, tj2 = state.j1.twice, state.j2.twice
    element = _lowering_element if direction < 0 else _raising_element
    step = 2 * direction
    out: dict[BasisIndex, RadicalSum] = {}
    for (m1, m2), value in state.components.items():
        tm1, tm2 = m1.twice, m2.twice
        e1 = element(tj1, tm1)
        if not e1.is_zero:
            index = (HalfInt.from_twice(tm1 + step), m2)
            term = value * e1
            present = out.get(index)
            out[index] = term if present is None else present + term
        e2 = element(tj2, tm2)
        if not e2.is_zero:
            index = (m1, HalfInt.from_twice(tm2 + step))
            term = value * e2
            present = out.get(index)
            out[index] = term if present is None else present + term
    return StateVector(state.j1, state.j2, out)


def apply_jminus(state: StateVector) -> StateVector:
    """Unnormalized J- action, J- = J-(1) + J-(2) with exact matrix elements."""
    return _apply_ladder(state, -1)


def apply_jplus(state: StateVector) -> StateVector:
    """Unnormalized J+ action; annihilates highest-weight states exactly."""
    return _apply_ladder(state, +1)


def lower_normalized(state: StateVector, J) -> StateVector:
    """The normalized |J, M-1> below a normalized |J, M> expansion."""
    J = HalfInt(J)
    tJ = J.twice
    tM = state.m_total().twice
    if tM <= -tJ:
        raise ValueError(f"cannot lower below M = -J (J={J})")
    norm = RadicalSum.sqrt(Fraction(tJ * (tJ + 2) - tM * (tM - 2), 4))
    return apply_jminus(state).scaled(RadicalSum.one() / norm)


def _beta_state(j1: HalfInt, j2: HalfInt, m: int, s: int) -> StateVector:
    """|j1+j2-m, j1+j2-m-s> assembled from the beta closed form.

    The component at m1 = j1 - k sums beta(l, k - l) over l.  For each k in
    range every weight with max(0, k-s) <= l <= min(m, k) is nonzero, so
    only the first is built from binomials; each later weight's radicand
    ratio is passed to `sum_signed_sqrts` as the unreduced product of its
    seven small factor ratios, never simplified by hand, and one integer
    square root there tests that it is the square of a rational.  The factor
    1 / (C(2J, s) * norm sum) shared by every weight of the state is computed
    once and folded into the first radicand.
    """
    tj1, tj2 = j1.twice, j2.twice
    tJ = tj1 + tj2 - 2 * m
    q2 = tj2 - m
    norm = formulas._norm_denominator_sum(tj1, tj2, m)
    shared_num = norm.denominator
    shared_den = binomial(tJ, s) * norm.numerator
    components: dict[BasisIndex, RadicalSum] = {}
    for k in range(max(0, s + m - tj2), min(tj1, m + s) + 1):
        d = s - k                      # p - l
        lo = max(0, -d)
        steps = [(
            -1 if lo & 1 else 1,
            binomial(tj1 - lo, k - lo)
            * binomial(q2 + lo, d + lo)
            * binomial(q2 + lo, lo)
            * binomial(k, k - lo)
            * binomial(m + d, d + lo)
            * binomial(m, lo)
            * shared_num,
            binomial(tj1, lo) * shared_den,
        )]
        # weight beta(l+1, p-1) from beta(l, p): the sign flips, and the
        # radicand ratio is one factor ratio per binomial
        steps.extend(
            (
                1 if l & 1 else -1,
                (k - l) * (q2 + l + 1) * (q2 + l + 1) * (k - l)
                * (m - l) * (m - l) * (l + 1),
                (tj1 - l) * (d + l + 1) * (l + 1) * (l + 1)
                * (d + l + 1) * (l + 1) * (tj1 - l),
            )
            for l in range(lo, min(m, k))
        )
        index = (HalfInt.from_twice(tj1 - 2 * k), HalfInt.from_twice(tj2 - 2 * (m + d)))
        components[index] = sum_signed_sqrts(steps)
    return StateVector(j1, j2, components)


def cg_ladder(spec: CouplingSpec) -> RadicalSum:
    """Single coefficient by explicit chain lowering from |J, J>."""
    result = validate(spec)
    if result.is_malformed:
        raise MalformedCouplingError(f"{spec}: {result.reason}")
    if result.is_selection_zero:
        return RadicalSum.zero()
    state = highest_weight_state(spec.j1, spec.j2, spec.J)
    for _ in range((spec.J.twice - spec.M.twice) // 2):
        state = lower_normalized(state, spec.J)
    return state.component(spec.m1, spec.m2)


# ---------------------------------------------------------------------------
# Full-table construction
# ---------------------------------------------------------------------------


class TableRoute(Enum):
    """How to produce the coefficients of a (j1, j2) table."""

    CLOSED_FORM = "closed-form"
    LADDER_ITERATIVE = "ladder"
    BETA_CLOSED_FORM = "beta"
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


def _records_from_state(J: HalfInt, state: StateVector) -> list[CoefficientRecord]:
    tM = 0 if state.is_zero else state.m_total().twice
    return [
        CoefficientRecord(J, HalfInt.from_twice(tM), m1, m2, value)
        for (m1, m2), value in state.items()
    ]


def subspace_states(j1, j2, J, route: TableRoute) -> list[StateVector]:
    """The states |J, M> of subspace J of the (j1, j2) cell, for M = J .. -J.

    LADDER_ITERATIVE lowers `highest_weight_state` one step at a time with
    `lower_normalized`; BETA_CLOSED_FORM builds every state on its own from
    the beta closed form.  Other routes build no states and raise ValueError,
    as does a J outside the triangle rule.
    """
    j1, j2, J = HalfInt(j1), HalfInt(j2), HalfInt(J)
    route = TableRoute(route)
    m = _subspace_depth(j1, j2, J)
    if route is TableRoute.LADDER_ITERATIVE:
        states = [highest_weight_state(j1, j2, J)]
        for _ in range(J.twice):
            states.append(lower_normalized(states[-1], J))
        return states
    if route is TableRoute.BETA_CLOSED_FORM:
        return [_beta_state(j1, j2, m, s) for s in range(J.twice + 1)]
    raise ValueError(f"the {route.value} route builds no states")


def build_full_table(j1, j2, route: TableRoute | str) -> list[CoefficientRecord]:
    """All nonzero coefficients for (j1, j2), sorted by (J, M, m1).

    Every route produces the identical record set, each in that order; the
    iterative ladder route recomputes states by repeated exact lowering
    precisely so it can defend the closed forms.  ``route`` is a TableRoute
    or its value; any other value raises ValueError.
    """
    j1, j2 = HalfInt(j1), HalfInt(j2)
    route = TableRoute(route)
    tj1, tj2 = j1.twice, j2.twice
    if tj1 < 0 or tj2 < 0:
        raise ValueError("j1 and j2 must be nonnegative")
    if route in (TableRoute.CLOSED_FORM, TableRoute.RACAH):
        coefficient = (
            formulas.cg_alternative
            if route is TableRoute.CLOSED_FORM
            else formulas.cg_racah
        )
        return [
            CoefficientRecord(spec.J, spec.M, spec.m1, spec.m2, value)
            for spec in formulas.cell_specs(j1, j2)
            if not (value := coefficient(spec)).is_zero
        ]
    records: list[CoefficientRecord] = []
    for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        J = HalfInt.from_twice(tJ)
        for state in reversed(subspace_states(j1, j2, J, route)):  # ascending M
            records.extend(_records_from_state(J, state))
    return records
