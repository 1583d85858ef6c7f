"""Constructive route: |J,M> states rebuilt over the product basis.

Each subspace is built in integer coordinates over a scaled product basis,
where J+ and J- have integer elements.  Its highest-weight state |J, J>
comes from the J+ annihilation recurrence (`_top`), and the other states
from repeated exact lowering (`_integer_chain`: the iterative route, kept
deliberately independent so it can serve as an oracle).  `_ladder_walk`
turns each state's integer coordinates into the exact values of the
route's table of a cell.  `build_full_table` runs each route's walk.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from math import comb, gcd, perm

from . import formulas
from .formulas import CouplingSpec
from .numerics import HalfInt, RadicalSum, _CollectorPaused, _j_range, _times_radical, to_decimal

__all__ = [
    "CoefficientRecord",
    "TableRoute",
    "build_full_table",
    "cg_ladder",
]


def _scaled_lowering_element(tj: int, tm: int) -> int:
    """j + m, the J- element <j, m-1| J- |j, m> in the basis |j, m> scaled
    by 1 / sqrt(C(2j, j-m)), for doubled arguments of one parity: its
    square times C(2j, j-m) is j(j+1) - m(m-1) times C(2j, j-m+1)."""
    return (tj + tm) // 2


def _scaled_raising_element(tj: int, tm: int) -> int:
    """j - m, the J+ element <j, m+1| J+ |j, m> in the basis |j, m> scaled
    by 1 / sqrt(C(2j, j-m)), for doubled arguments of one parity: its
    square times C(2j, j-m) is j(j+1) - m(m+1) times C(2j, j-m-1)."""
    return (tj - tm) // 2


def _top(tj1: int, tj2: int, m: int) -> tuple[list[int], int, int]:
    """|J, J> at depth m = j1 + j2 - J in `_integer_chain`'s scaled basis:
    integer coordinates x_l, l = 0..m, and the radical (n, d) of its
    component x_l sqrt(n / (d C(2j1, l) C(2j2, m-l))) at m1 = j1 - l.

    There J+(1) and J+(2) have the elements j1 - m1 and j2 - m2
    (`_scaled_raising_element`), so J+ |J, J> = 0 is the recurrence
    x_(l+1) (l + 1) + x_l (m - l) = 0, an exact division from x_0 = 1 that
    gives x_l = (-1)^l C(m, l).  n / d inverts sum_l x_l^2 / (C(2j1, l)
    C(2j2, m-l)), summed in integers over the common multiple
    (2j1)! (2j2)! / ((2j1-m)! (2j2-m)!) of its denominators, one gcd.
    """
    xs = [1]
    for l in range(m):
        e1 = _scaled_raising_element(tj1, tj1 - 2 * (l + 1))  # J+(1) from k = l + 1
        e2 = _scaled_raising_element(tj2, tj2 - 2 * (m - l))  # J+(2) from k = l
        xs.append(-xs[l] * e2 // e1)
    common = perm(tj1, m) * perm(tj2, m)
    total = sum(x * x * (common // (comb(tj1, l) * comb(tj2, m - l))) for l, x in enumerate(xs))
    g = gcd(common, total)
    return xs, common // g, total // g


def _integer_chain(tj1: int, tj2: int, tJ: int) -> Iterator[tuple[int, list[int], int, int]]:
    """The states |J, J - s>, s = 0 .. 2J, of the subspace J of the
    (2j1, 2j2) cell, in integers: |J, J> from `_top`, and each state below
    it by normalized lowering.

    Over the product basis scaled by 1 / sqrt(C(2j1, k) C(2j2, m + s - k)),
    where m = j1 + j2 - J, k = j1 - m1 and m + s - k = j2 - m2, each state
    is integer coordinates times one radical: its component at k is
    x_k sqrt(n / (d C(2j1, k) C(2j2, m + s - k))).  In that basis J-(1)
    and J-(2) have the integer elements j1 + m1 and j2 + m2
    (`_scaled_lowering_element`), so J- takes integers to integers, and
    the normalized step only multiplies d by J(J+1) - M(M-1).  Yields
    (lo, xs, n, d) per state, xs the coordinates at k = lo, lo + 1, ...
    """
    m = (tj1 + tj2 - tJ) // 2
    up = [_scaled_lowering_element(tj1, tj1 - 2 * k) for k in range(tj1 + 1)]
    down = [_scaled_lowering_element(tj2, tj2 - 2 * k) for k in range(tj2 + 1)]
    xs, n, d = _top(tj1, tj2, m)
    lo = 0
    yield lo, xs, n, d
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


def _ladder_walk(tj1: int, tj2: int) -> Iterator[tuple[tuple[int, int, int], RadicalSum]]:
    """Every nonzero value of the ladder route's table of the (2j1, 2j2)
    cell, keyed by its doubled (J, M, m1), in increasing key order: each
    nonzero coordinate x of `_integer_chain`, read back up with |J, J> last,
    as x sqrt(n / (d C(2j1, k) C(2j2, m + s - k))).  Raises ArithmeticError
    naming (j1, j2, J) unless the chain has exactly 2J states below |J, J>.
    """
    w1 = [comb(tj1, k) for k in range(tj1 + 1)]
    w2 = [comb(tj2, k) for k in range(tj2 + 1)]
    for tJ in _j_range(tj1, tj2):
        states = list(_integer_chain(tj1, tj2, tJ))
        if len(states) != tJ + 1:
            j1, j2, J = (HalfInt.from_twice(t) for t in (tj1, tj2, tJ))
            raise ArithmeticError(
                f"the ladder chain of (j1={j1}, j2={j2}, J={J}) has {len(states) - 1} "
                f"states below |J, J>, not 2J = {tJ}"
            )
        m = (tj1 + tj2 - tJ) // 2
        for s in range(tJ, -1, -1):  # ascending M = J - s, then ascending m1
            lo, xs, n, d = states[s]
            for k in range(lo + len(xs) - 1, lo - 1, -1):
                if x := xs[k - lo]:
                    value = _times_radical(x, n, d * w1[k] * w2[m + s - k])
                    yield (tJ, tJ - 2 * s, tj1 - 2 * k), value


def cg_ladder(spec: CouplingSpec) -> RadicalSum:
    """Single coefficient by chain lowering from |J, J> in integer
    coordinates (`_integer_chain`); only the component returned is
    converted to its exact value."""
    if formulas._is_selection_zero(spec):
        return RadicalSum.zero()
    tj1, tj2, tJ = spec.j1.twice, spec.j2.twice, spec.J.twice
    m, s = (tj1 + tj2 - tJ) // 2, (tJ - spec.M.twice) // 2
    lo, xs, n, d = next(islice(_integer_chain(tj1, tj2, tJ), s, None))
    k = (tj1 - spec.m1.twice) // 2
    return _times_radical(xs[k - lo], n, d * comb(tj1, k) * comb(tj2, m + s - k))


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


@dataclass(frozen=True, slots=True, eq=False)
class CoefficientRecord:
    """One nonzero table row: (J, M, m1, m2) plus the exact value.

    Frozen, compared and hashed by value, and slotted: a record has no
    ``__dict__``, so the rows of a large table cost less to build and hold.
    Two records are equal when their quantum numbers have equal doubled
    values and their values equal canonical terms, compared in one frame:
    comparing two tables makes one ``==`` per row.  The hash is that of
    the tuple of the five fields.  ``CoefficientRecord(...)`` is the
    public constructor.  The table builders (`build_full_table` through
    `_record`, and the CLI's parsers in their row loop) set the same five
    slots through their member descriptors, without the frozen
    ``__init__``'s five ``object.__setattr__`` calls; the record is the
    same either way.
    """

    J: HalfInt
    M: HalfInt
    m1: HalfInt
    m2: HalfInt
    exact: RadicalSum

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoefficientRecord):
            return NotImplemented
        return (
            self.J.twice == other.J.twice
            and self.M.twice == other.M.twice
            and self.m1.twice == other.m1.twice
            and self.m2.twice == other.m2.twice
            and self.exact._terms == other.exact._terms
        )

    def __hash__(self) -> int:
        return hash((self.J, self.M, self.m1, self.m2, self.exact))

    @property
    def exact_text(self) -> str:
        return str(self.exact)

    @property
    def value_text(self) -> str:
        return to_decimal(self.exact, 5)


_new_record = object.__new__
_set_J, _set_M, _set_m1, _set_m2, _set_exact = (
    CoefficientRecord.__dict__[name].__set__ for name in CoefficientRecord.__slots__
)


def _record(
    J: HalfInt, M: HalfInt, m1: HalfInt, m2: HalfInt, exact: RadicalSum
) -> CoefficientRecord:
    """``CoefficientRecord(J, M, m1, m2, exact)``, each slot set through its
    member descriptor: a table builds one record per row, and the frozen
    ``__init__``'s ``object.__setattr__`` per field costs about twice as
    much.  The fields are not checked, as ``__init__`` does not check them."""
    record = _new_record(CoefficientRecord)
    _set_J(record, J)
    _set_M(record, M)
    _set_m1(record, m1)
    _set_m2(record, m2)
    _set_exact(record, exact)
    return record


#: each route's walk of a (2j1, 2j2) cell, as `build_full_table` reads it
_WALKS = {
    TableRoute.CLOSED_FORM: formulas._closed_form_walk,
    TableRoute.LADDER_ITERATIVE: _ladder_walk,
    TableRoute.BETA_CLOSED_FORM: formulas._closed_form_walk,
    TableRoute.RACAH: formulas._racah_walk,
}


def build_full_table(j1, j2, route: TableRoute | str) -> list[CoefficientRecord]:
    """All nonzero coefficients for (j1, j2), sorted by (J, M, m1).

    Every route produces the identical record set, each in that order; the
    iterative ladder route recomputes the values by repeated exact lowering
    precisely so it can defend the closed forms.  The records are the
    values of the route's walk in `_WALKS`, listed with the cyclic
    collector paused (`numerics._CollectorPaused`).  ``route`` is a
    TableRoute or its value; any other value, or a negative j, raises
    ValueError.
    """
    j1, j2 = HalfInt(j1), HalfInt(j2)
    route = TableRoute(route)
    tj1, tj2 = j1.twice, j2.twice
    if tj1 < 0 or tj2 < 0:
        raise ValueError("j1 and j2 must be nonnegative")
    # rows share one HalfInt per doubled value, which keeps the table small
    half = {t: HalfInt.from_twice(t) for t in range(-tj1 - tj2, tj1 + tj2 + 1)}
    with _CollectorPaused():
        return [
            _record(half[tJ], half[tM], half[tm1], half[tM - tm1], value)
            for (tJ, tM, tm1), value in _WALKS[route](tj1, tj2)
        ]
