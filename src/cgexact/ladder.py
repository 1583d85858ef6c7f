"""Constructive route: |J,M> states rebuilt over the product basis.

Three constructions live here.  The stretched multiplet comes from iterated
lowering of |j1,j2>; general highest-weight states come from the raising
annihilation recurrence (the alpha sequence); arbitrary states come either
from repeated exact lowering (the iterative route, kept deliberately
independent so it can serve as an oracle) or from the beta closed form.
`build_full_table` turns any route into the full coefficient table for a
(j1, j2) cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from . import formulas
from .formulas import CouplingSpec, MalformedCouplingError, validate
from .numerics import HalfInt, RadicalSum, binomial, sum_signed_sqrts, to_decimal

__all__ = [
    "AlphaSequence",
    "CoefficientRecord",
    "StateVector",
    "TableRoute",
    "alpha_sequence",
    "apply_jminus",
    "apply_jplus",
    "beta_closed_form",
    "build_full_table",
    "cg_ladder",
    "highest_weight_state",
    "lower_normalized",
    "stretched_multiplet_state",
]

BasisIndex = tuple[HalfInt, HalfInt]


@dataclass(frozen=True, eq=True)
class StateVector:
    """Exact expansion of a state over the product basis |m1, m2> at (j1, j2).

    Only nonzero components are stored.  For any state built here all
    components share a single M = m1 + m2.
    """

    j1: HalfInt
    j2: HalfInt
    components: dict[BasisIndex, RadicalSum]

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
        return _make_state(
            self.j1, self.j2, {k: v * factor for k, v in self.components.items()}
        )


def _make_state(
    j1: HalfInt, j2: HalfInt, components: dict[BasisIndex, RadicalSum]
) -> StateVector:
    pruned = {index: value for index, value in components.items() if not value.is_zero}
    return StateVector(j1, j2, pruned)


@dataclass(frozen=True)
class AlphaSequence:
    """Leading coefficients of the highest-weight state at depth m = j1+j2-J.

    alphas[l] multiplies |j1-l, j2-m+l>; alpha_0 > 0 fixes the sign
    convention and sum(alpha_l^2) == 1 exactly.
    """

    m: int
    alphas: tuple[RadicalSum, ...]


@lru_cache(maxsize=None)
def _lowering_element(tj: int, tm: int) -> RadicalSum:
    """sqrt(j(j+1) - m(m-1)) for doubled arguments."""
    return RadicalSum.sqrt(Fraction(tj * (tj + 2) - tm * (tm - 2), 4))


@lru_cache(maxsize=None)
def _raising_element(tj: int, tm: int) -> RadicalSum:
    """sqrt(j(j+1) - m(m+1)) for doubled arguments."""
    return RadicalSum.sqrt(Fraction(tj * (tj + 2) - tm * (tm + 2), 4))


def stretched_multiplet_state(j1, j2, n: int) -> StateVector:
    """|J=j1+j2, M=j1+j2-n> from n-fold lowering of the stretched state.

    The component at (j1-k, j2-n+k) is
    sqrt(C(2j1,k) C(2j2,n-k) / C(2j1+2j2,n)); n = 0 is the stretched state
    itself.
    """
    j1, j2 = HalfInt(j1), HalfInt(j2)
    tj1, tj2 = j1.twice, j2.twice
    if tj1 < 0 or tj2 < 0:
        raise ValueError("j1 and j2 must be nonnegative")
    if not 0 <= n <= tj1 + tj2:
        raise ValueError(f"n={n} outside 0..2(j1+j2)={tj1 + tj2}")
    denom = binomial(tj1 + tj2, n)
    components: dict[BasisIndex, RadicalSum] = {}
    for k in range(n + 1):
        numer = binomial(tj1, k) * binomial(tj2, n - k)
        if not numer:
            continue
        index = (HalfInt.from_twice(tj1 - 2 * k), HalfInt.from_twice(tj2 - 2 * (n - k)))
        components[index] = RadicalSum.sqrt(Fraction(numer, denom))
    return _make_state(j1, j2, components)


def alpha_sequence(j1, j2, m: int) -> AlphaSequence:
    """Highest-weight coefficients for the subspace J = j1 + j2 - m.

    alpha_l = (-1)^l sqrt(prod_{k=1}^{l} (2j2-m+k)(m-k+1) / (k(2j1-k+1)))
    * alpha_0, with the empty product equal to 1 and alpha_0 > 0 fixed by
    normalization.
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
    return AlphaSequence(m=m, alphas=tuple(alphas))


def highest_weight_state(j1, j2, J) -> StateVector:
    """|J, M=J>: alpha_l at (j1-l, j2-m+l) with m = j1+j2-J.

    Annihilated exactly by the raising operator (a verified property, not an
    input assumption).
    """
    j1, j2, J = HalfInt(j1), HalfInt(j2), HalfInt(J)
    tj1, tj2, tJ = j1.twice, j2.twice, J.twice
    if tJ < abs(tj1 - tj2) or tJ > tj1 + tj2 or (tj1 + tj2 + tJ) % 2:
        raise ValueError(f"triangle rule violated for (j1={j1}, j2={j2}, J={J})")
    m = (tj1 + tj2 - tJ) // 2
    seq = alpha_sequence(j1, j2, m)
    components: dict[BasisIndex, RadicalSum] = {}
    for l, alpha in enumerate(seq.alphas):
        index = (HalfInt.from_twice(tj1 - 2 * l), HalfInt.from_twice(tj2 - 2 * (m - l)))
        components[index] = alpha
    return _make_state(j1, j2, components)


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
    return _make_state(state.j1, state.j2, out)


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


def beta_closed_form(j1, j2, m: int, s: int, l: int, p: int) -> RadicalSum:
    """Closed-form component weight beta(l, p) of |j1+j2-m, j1+j2-m-s>.

    The weight multiplies |j1-l-p, j2-m+l-s+p>.  Out-of-range l or p makes
    some binomial vanish and the weight is 0; this never raises for index
    overruns (only for an invalid subspace depth m).
    """
    j1, j2 = HalfInt(j1), HalfInt(j2)
    tj1, tj2 = j1.twice, j2.twice
    if not 0 <= m <= min(tj1, tj2):
        raise ValueError(f"m={m} outside 0..min(2j1, 2j2)={min(tj1, tj2)}")
    tJ = tj1 + tj2 - 2 * m
    if not 0 <= s <= tJ:
        return RadicalSum.zero()
    if l < 0 or p < 0 or l > m or p > s:
        return RadicalSum.zero()
    numer = (
        binomial(tj1 - l, p)
        * binomial(tj2 - m + l, s - p)
        * binomial(tj2 - m + l, l)
        * binomial(l + p, p)
        * binomial(m - l + s - p, s - p)
        * binomial(m, l)
    )
    if not numer:
        return RadicalSum.zero()
    denom = binomial(tj1, l) * binomial(tJ, s)
    radicand = Fraction(numer, denom) / formulas._norm_denominator_sum(tj1, tj2, m)
    value = RadicalSum.sqrt(radicand)
    return -value if l & 1 else value


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
    return _make_state(j1, j2, components)


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


def build_full_table(j1, j2, route: TableRoute) -> list[CoefficientRecord]:
    """All nonzero coefficients for (j1, j2), sorted by (J, M, m1).

    Every route produces the identical record set; the iterative ladder
    route recomputes states by repeated exact lowering precisely so it can
    defend the closed forms.
    """
    j1, j2 = HalfInt(j1), HalfInt(j2)
    tj1, tj2 = j1.twice, j2.twice
    if tj1 < 0 or tj2 < 0:
        raise ValueError("j1 and j2 must be nonnegative")
    records: list[CoefficientRecord] = []
    for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        J = HalfInt.from_twice(tJ)
        if route is TableRoute.LADDER_ITERATIVE:
            state = highest_weight_state(j1, j2, J)
            chain = [state]
            for _ in range(tJ):
                state = lower_normalized(state, J)
                chain.append(state)
            for state in reversed(chain):  # ascending M
                records.extend(_records_from_state(J, state))
        elif route is TableRoute.BETA_CLOSED_FORM:
            m = (tj1 + tj2 - tJ) // 2
            for s in range(tJ, -1, -1):  # ascending M = J - s
                records.extend(_records_from_state(J, _beta_state(j1, j2, m, s)))
        else:
            coefficient = (
                formulas.cg_alternative
                if route is TableRoute.CLOSED_FORM
                else formulas.cg_racah
            )
            for tM in range(-tJ, tJ + 1, 2):
                M = HalfInt.from_twice(tM)
                for tm1 in range(max(-tj1, tM - tj2), min(tj1, tM + tj2) + 1, 2):
                    spec = CouplingSpec(
                        j1,
                        j2,
                        HalfInt.from_twice(tm1),
                        HalfInt.from_twice(tM - tm1),
                        J,
                        M,
                    )
                    value = coefficient(spec)
                    if not value.is_zero:
                        records.append(
                            CoefficientRecord(J, M, spec.m1, spec.m2, value)
                        )
    records.sort(key=CoefficientRecord.sort_key)
    return records
