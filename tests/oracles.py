"""Reference formulas as written, for tests to compare the package against.

Each oracle builds its values straight from binomials, term by term, and
shares no formula or cache with the routes it checks: only the exact
arithmetic of `cgexact.numerics` and the `StateVector` container.
"""

from fractions import Fraction

from cgexact.ladder import StateVector
from cgexact.numerics import HalfInt, RadicalSum, binomial


def norm_sum(tj1: int, tj2: int, m: int) -> Fraction:
    """sum_i C(2j2-m+i, i) C(m, i) / C(2j1, i) over i = 0..m, term by term:
    the inverse square of the leading coefficient of subspace J = j1+j2-m."""
    return sum(
        Fraction(binomial(tj2 - m + i, i) * binomial(m, i), binomial(tj1, i))
        for i in range(m + 1)
    )


def stretched_multiplet_state(j1, j2, n: int) -> StateVector:
    """|J=j1+j2, M=j1+j2-n> from n-fold lowering of the stretched state.

    The component at m1 = j1-k (m2 = j2-n+k) is
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
    components = {}
    for k in range(n + 1):
        numer = binomial(tj1, k) * binomial(tj2, n - k)
        if not numer:
            continue
        components[tj1 - 2 * k] = RadicalSum.sqrt(Fraction(numer, denom))
    return StateVector(j1, j2, HalfInt.from_twice(tj1 + tj2 - 2 * n), components)


def scaled(state: StateVector, factor: RadicalSum) -> StateVector:
    """``state`` with every component multiplied by ``factor`` through
    `RadicalSum` ``*``, not through the ladder's `sum_radicals` path."""
    components = {k: value * factor for k, value in state.components.items()}
    return StateVector(state.j1, state.j2, state.M, components)


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
    radicand = Fraction(numer, binomial(tj1, l) * binomial(tJ, s)) / norm_sum(tj1, tj2, m)
    value = RadicalSum.sqrt(radicand)
    return -value if l & 1 else value
