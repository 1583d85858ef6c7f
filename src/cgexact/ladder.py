"""Constructive route: |J,M> states rebuilt over the product basis.

Highest-weight states |J, J> come from the raising annihilation recurrence
(the alpha sequence), and the other states of a subspace from repeated
exact lowering (the iterative route, kept deliberately independent so it
can serve as an oracle).  The lowering runs on integer coordinates over a
scaled product basis, where J- has integer elements (`_integer_chain`);
`lower_normalized` is its reference on exact states.  `_cell_values` is
the one walk that turns a route into the nonzero values of a (j1, j2) cell
keyed by doubled (J, M, m1), straight from the route's kernels with no
state object below |J, J>.  `build_full_table` reads it, and so do the
verification checks: the ladder check groups it by subspace and acts on
the states with `apply_jplus` and `apply_jminus`.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from math import comb, isqrt
from types import MappingProxyType

from . import formulas
from .formulas import CouplingSpec
from .numerics import (
    HalfInt,
    RadicalSum,
    _dot,
    _radical,
    sum_radicals,
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
]

@dataclass(frozen=True, eq=True)
class StateVector:
    """Exact expansion of a state at one M over the product basis at (j1, j2).

    ``components`` maps the doubled m1 of each basis state |m1, M - m1> to
    its value and keeps, read-only, only the nonzero values of the mapping
    given.  States compare by value and are unhashable.  Every component of
    a state the routes build is one radical.  The ladder actions and the
    norm go through `sum_radicals`, which takes each product of two
    radicals as one integer square and sums the products that meet in one
    component, so they also give the exact value of a state with components
    of several classes, as a broken route would build.
    """

    j1: HalfInt
    j2: HalfInt
    M: HalfInt
    components: Mapping[int, RadicalSum]

    __hash__ = None

    def __post_init__(self) -> None:
        pruned = {k: v for k, v in self.components.items() if v._terms}
        object.__setattr__(self, "components", MappingProxyType(pruned))

    @property
    def is_zero(self) -> bool:
        return not self.components

    def component(self, m1) -> RadicalSum:
        return self.components.get(HalfInt(m1).twice, RadicalSum.zero())

    def norm_squared(self) -> RadicalSum:
        """The exact sum of the squared components: for components of one
        radical each, the sum of their squares, a rational."""
        return _dot(self.components, self.components)


def _lowering_element(tj: int, tm: int) -> int:
    """j(j+1) - m(m-1), the square of the J- matrix element, for doubled
    arguments of one parity."""
    return (tj * (tj + 2) - tm * (tm - 2)) // 4


def _raising_element(tj: int, tm: int) -> int:
    """j(j+1) - m(m+1), the square of the J+ matrix element, for doubled
    arguments of one parity."""
    return (tj * (tj + 2) - tm * (tm + 2)) // 4


def _scaled_lowering_element(tj: int, tm: int) -> int:
    """j + m, the J- element <j, m-1| J- |j, m> in the basis |j, m> scaled
    by 1 / sqrt(C(2j, j-m)), for doubled arguments of one parity: its
    square times C(2j, j-m) is `_lowering_element` times C(2j, j-m+1)."""
    return (tj + tm) // 2


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
        for key, e in ((tm1 + step, element(tj1, tm1)), (tm1, element(tj2, tM - tm1))):
            if e:
                terms = contributions.setdefault(key, [])
                for s, n, d in value._terms:
                    terms.append((s, n * e, d * divisor))
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
    ValueError unless M is one of J, J-1, ..., -J+1.  The routes lower in
    integer coordinates (`_integer_chain`); this is the reference that
    the tests hold that chain to, state by state.
    """
    J = HalfInt(J)
    tJ, tM = J.twice, state.M.twice
    if tM > tJ or (tJ - tM) % 2:
        raise ValueError(f"M={state.M} is not a projection of J={J}")
    if tM <= -tJ:
        raise ValueError(f"cannot lower below M = -J (J={J})")
    return apply_jminus(state, (tJ * (tJ + 2) - tM * (tM - 2)) // 4)


def _component_range(tj1: int, tj2: int, m: int, s: int) -> range:
    """The k = j1 - m1 of the components of |J, J - s> at depth m, ascending."""
    return range(max(0, s + m - tj2), min(tj1, m + s) + 1)


def _top_coordinates(top: StateVector, m: int) -> tuple[list[int], int, int]:
    """The integer coordinates x_l, l = 0..m, and the radical (n, d) of the
    highest-weight state ``top`` of depth m, as `_integer_chain` scales it:
    its component at m1 = j1 - l is x_l sqrt(n / (d C(2j1, l) C(2j2, m-l))),
    with x_0 = +-1.  Read exactly from the alphas, whose recurrence makes
    x_l = (-1)^l C(m, l); raises ArithmeticError where they give no
    integer, which only a broken recurrence can do."""
    tj1, tj2 = top.j1.twice, top.j2.twice
    zero = RadicalSum.zero()
    alphas = [top.components.get(tj1 - 2 * l, zero)._terms for l in range(m + 1)]
    if len(alphas[0]) != 1 or any(len(terms) > 1 for terms in alphas):
        raise ArithmeticError(f"|J, J> at {_where(top)} has a component that is not one radical")
    ((_, n0, d0),) = alphas[0]
    first = n0 * comb(tj2, m)
    coordinates = []
    for l, terms in enumerate(alphas):
        if not terms:
            coordinates.append(0)
            continue
        ((sign, n, d),) = terms
        square, rest = divmod(n * d0 * comb(tj1, l) * comb(tj2, m - l), d * first)
        root = isqrt(square)
        if rest or root * root != square:
            raise ArithmeticError(f"alpha_{l} at {_where(top)} has no integer coordinate")
        coordinates.append(sign * root)
    return coordinates, first, d0


def _where(top: StateVector) -> str:
    """Where a highest-weight state lies, for an error message."""
    return f"(j1={top.j1}, j2={top.j2}, J={top.M})"


def _integer_chain(top: StateVector, m: int) -> Iterator[tuple[int, list[int], int, int]]:
    """The states |J, J - s>, s = 1 .. 2J, below the highest-weight state
    ``top`` of depth m = j1 + j2 - J, by normalized lowering in integers.

    Over the product basis scaled by 1 / sqrt(C(2j1, k) C(2j2, m + s - k)),
    where k = j1 - m1 and m + s - k = j2 - m2, each state is integer
    coordinates times one radical: its component at k is
    x_k sqrt(n / (d C(2j1, k) C(2j2, m + s - k))).  In that basis J-(1)
    and J-(2) have the integer elements j1 + m1 and j2 + m2
    (`_scaled_lowering_element`), so J- takes integers to integers, and
    the normalized step only multiplies d by J(J+1) - M(M-1).  The chain
    starts from `_top_coordinates`.  Yields (lo, xs, n, d) per state, xs
    the coordinates at k = lo, lo + 1, ...
    """
    tj1, tj2, tJ = top.j1.twice, top.j2.twice, top.M.twice
    up = [_scaled_lowering_element(tj1, tj1 - 2 * k) for k in range(tj1 + 1)]
    down = [_scaled_lowering_element(tj2, tj2 - 2 * k) for k in range(tj2 + 1)]
    xs, n, d = _top_coordinates(top, m)
    lo = 0
    for s in range(tJ):
        base = m + s                   # j2 - m2 at k = 0
        new_lo = max(0, base + 1 - tj2)
        # x'_k = x_(k-1) (j1 + m1 at k - 1) + x_k (j2 + m2 at k), with x_k
        # 0 outside lo..hi; an element index of -1 meets only a zero pad
        padded = [0, *xs, 0]           # x_k at k = lo - 1 .. hi + 1
        xs = [
            padded[k - lo] * up[k - 1] + padded[k - lo + 1] * down[base - k]
            for k in range(new_lo, min(tj1, base + 1) + 1)
        ]
        lo = new_lo
        d *= (s + 1) * (tJ - s)        # J(J+1) - M(M-1) at M = J - s
        yield lo, xs, n, d


def _chain_value(x: int, n: int, d: int, weight: int) -> RadicalSum:
    """x sqrt(n / (d weight)): the value of a nonzero coordinate x of an
    `_integer_chain` state, weight = C(2j1, k) C(2j2, m + s - k)."""
    return _radical(1 if x > 0 else -1, x * x * n, d * weight)


def _chain_components(top: StateVector, m: int) -> Iterator[dict[int, RadicalSum]]:
    """The states of `_integer_chain` below ``top``, s = 1 .. 2J, each a dict
    of its nonzero `_chain_value`s keyed by the doubled m1, in ascending m1."""
    tj1, tj2 = top.j1.twice, top.j2.twice
    w1 = [comb(tj1, k) for k in range(tj1 + 1)]
    w2 = [comb(tj2, k) for k in range(tj2 + 1)]
    for s, (lo, xs, n, d) in enumerate(_integer_chain(top, m), 1):
        base = m + s
        yield {
            tj1 - 2 * k: _chain_value(x, n, d, w1[k] * w2[base - k])
            for k in range(lo + len(xs) - 1, lo - 1, -1)
            if (x := xs[k - lo])
        }


def cg_ladder(spec: CouplingSpec) -> RadicalSum:
    """Single coefficient by chain lowering from |J, J> in integer
    coordinates (`_integer_chain`); only the component returned is
    converted to its exact value."""
    if formulas._is_selection_zero(spec):
        return RadicalSum.zero()
    top = highest_weight_state(spec.j1, spec.j2, spec.J)
    s = (spec.J.twice - spec.M.twice) // 2
    if not s:
        return top.component(spec.m1)
    tj1, tj2 = spec.j1.twice, spec.j2.twice
    m = (tj1 + tj2 - spec.J.twice) // 2
    lo, xs, n, d = next(islice(_integer_chain(top, m), s - 1, None))
    k = (tj1 - spec.m1.twice) // 2
    if not (x := xs[k - lo]):
        return RadicalSum.zero()
    return _chain_value(x, n, d, comb(tj1, k) * comb(tj2, m + s - k))


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


@dataclass(frozen=True, slots=True)
class CoefficientRecord:
    """One nonzero table row: (J, M, m1, m2) plus the exact value.

    Frozen, compared and hashed by value, and slotted: a record has no
    ``__dict__``, so the rows of a large table cost less to build and hold.
    """

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


def _cell_values(
    tj1: int, tj2: int, route: TableRoute
) -> Iterator[tuple[tuple[int, int, int], RadicalSum]]:
    """Every nonzero value of ``route``'s table of the (2j1, 2j2) cell,
    keyed by its doubled (J, M, m1), in increasing key order.

    RACAH evaluates `formulas._racah` per key of `formulas._cell_keys`, the
    closed form `formulas._closed_form_component` per k of
    `_component_range` with one `_shared_factor` per state, and the ladder
    reads `_chain_components` back up, |J, J> last, with no StateVector
    below |J, J>, and raises ArithmeticError naming (j1, j2, J) unless the
    chain has exactly 2J states there.  This is the one walk of a route's
    table, for `build_full_table` and the checks.
    """
    if route is TableRoute.RACAH:
        for key in formulas._cell_keys(tj1, tj2):
            if not (value := formulas._racah(tj1, tj2, *key)).is_zero:
                yield key, value
        return
    j1, j2 = HalfInt.from_twice(tj1), HalfInt.from_twice(tj2)
    for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        m = (tj1 + tj2 - tJ) // 2
        if route is TableRoute.LADDER_ITERATIVE:
            top = highest_weight_state(j1, j2, HalfInt.from_twice(tJ))
            states = [dict(sorted(top.components.items())), *_chain_components(top, m)]
            if len(states) != tJ + 1:
                raise ArithmeticError(
                    f"the ladder chain of {_where(top)} has {len(states) - 1} states "
                    f"below |J, J>, not 2J = {tJ}"
                )
            for s in range(tJ, -1, -1):  # ascending M = J - s
                for tm1, value in states[s].items():
                    yield (tJ, tJ - 2 * s, tm1), value
            continue
        for s in range(tJ, -1, -1):  # ascending M = J - s
            shared = formulas._shared_factor(tj1, tj2, m, s)
            for k in reversed(_component_range(tj1, tj2, m, s)):  # ascending m1
                if (value := formulas._closed_form_component(tj1, tj2, m, s, k, shared))._terms:
                    yield (tJ, tJ - 2 * s, tj1 - 2 * k), value


def build_full_table(j1, j2, route: TableRoute | str) -> list[CoefficientRecord]:
    """All nonzero coefficients for (j1, j2), sorted by (J, M, m1).

    Every route produces the identical record set, each in that order; the
    iterative ladder route recomputes the values by repeated exact lowering
    precisely so it can defend the closed forms.  The records are the
    values of `_cell_values`, which reads each route's kernels and which
    the verification checks read too.  ``route`` is a TableRoute or its
    value; any other value, or a negative j, raises ValueError.
    """
    j1, j2 = HalfInt(j1), HalfInt(j2)
    route = TableRoute(route)
    tj1, tj2 = j1.twice, j2.twice
    if tj1 < 0 or tj2 < 0:
        raise ValueError("j1 and j2 must be nonnegative")
    # rows share one HalfInt per doubled value, which keeps the table small
    half = {t: HalfInt.from_twice(t) for t in range(-tj1 - tj2, tj1 + tj2 + 1)}
    return [
        CoefficientRecord(half[tJ], half[tM], half[tm1], half[tM - tm1], value)
        for (tJ, tM, tm1), value in _cell_values(tj1, tj2, route)
    ]
