"""Reference formulas as written, for tests to compare the package against.

Each oracle builds its values straight from binomials or factorials, term
by term, and shares no formula with the routes it checks: only the exact
values of `cgexact.numerics`.  A state is a plain {doubled m1: value} dict
of its nonzero components, the form the table walk gives.  Sums and
products of values are taken here, by `merged_terms`, not by the package's
`sum_radicals`.  The one exception is `lower_normalized`, the lowering
step on exact states through the package's J- kernel
`ladder._apply_ladder`: the reference that the ladder route's integer
chain is held to, state by state.
"""

from fractions import Fraction
from math import comb, factorial, isqrt

from cgexact.formulas import CouplingSpec
from cgexact.ladder import _apply_ladder
from cgexact.numerics import HalfInt, RadicalSum, _from_terms


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the generalized-zero convention.

    Returns 0 for k < 0 or k > n, which lets the sums as written run over
    loose index ranges and truncate themselves.  n must be >= 0.
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def norm_sum(tj1: int, tj2: int, m: int) -> Fraction:
    """sum_i C(2j2-m+i, i) C(m, i) / C(2j1, i) over i = 0..m, term by term:
    the inverse square of the leading coefficient of subspace J = j1+j2-m."""
    return sum(
        Fraction(binomial(tj2 - m + i, i) * binomial(m, i), binomial(tj1, i))
        for i in range(m + 1)
    )


def stretched_multiplet_state(j1, j2, n: int) -> dict[int, RadicalSum]:
    """|J=j1+j2, M=j1+j2-n> from n-fold lowering of the stretched state,
    as {doubled m1: value}.

    The component at m1 = j1-k (m2 = j2-n+k) is
    sqrt(C(2j1,k) C(2j2,n-k) / C(2j1+2j2,n)); n = 0 is the stretched state
    itself.
    """
    tj1, tj2 = HalfInt(j1).twice, HalfInt(j2).twice
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
    return components


def lower_normalized(tj1: int, tj2: int, tJ: int, tM: int, components) -> dict[int, RadicalSum]:
    """The normalized |J, M-1> below the normalized |J, M> whose values
    ``components`` maps by doubled m1, from doubled 2j1, 2j2, 2J and 2M.

    J- |J, M> has norm sqrt(J(J+1) - M(M-1)), so this is the J- kernel
    with every element's square divided by that norm's square, with no
    separate scaling pass.  Raises ValueError unless M is one of
    J, J-1, ..., -J+1.
    """
    if tM > tJ or (tJ - tM) % 2:
        M, J = HalfInt.from_twice(tM), HalfInt.from_twice(tJ)
        raise ValueError(f"M={M} is not a projection of J={J}")
    if tM <= -tJ:
        raise ValueError(f"cannot lower below M = -J (J={HalfInt.from_twice(tJ)})")
    return _apply_ladder(tj1, tj2, tM, components, -1, (tJ * (tJ + 2) - tM * (tM - 2)) // 4)


def merged_terms(pairs) -> list[tuple[int, Fraction]]:
    """sum sign * sqrt(square) over (sign, square) pairs, merged pairwise.

    Each pair is compared with the classes found so far: sqrt(square / q)
    is rational exactly when the reduced ratio square / q has a square
    numerator and a square denominator, and then the pair adds its rational
    root to the class of q.  Returns the canonical terms of the sum, one
    (sign, square) per class whose sum is not 0, in order of square, as
    `RadicalSum.terms` gives them.  No `sum_radicals` and no `RadicalSum`
    addition is involved.
    """
    classes: list[list] = []  # [square of the class's first pair, sum in its root]
    for sign, square in pairs:
        for cls in classes:
            ratio = square / cls[0]
            num, den = isqrt(ratio.numerator), isqrt(ratio.denominator)
            if num * num == ratio.numerator and den * den == ratio.denominator:
                cls[1] += sign * Fraction(num, den)
                break
        else:
            classes.append([square, Fraction(sign)])
    terms = [(1 if c > 0 else -1, c * c * q) for q, c in classes if c]
    return sorted(terms, key=lambda term: term[1])


def from_merged(terms) -> RadicalSum:
    """The RadicalSum whose canonical terms are the (sign, square) pairs
    ``terms``, one per class in order of square, as `merged_terms` gives
    them; built directly, not through `sum_radicals`."""
    return _from_terms(tuple((s, q.numerator, q.denominator) for s, q in terms))


def summed(values) -> RadicalSum:
    """The exact sum of ``values``: all their terms, merged by
    `merged_terms`."""
    return from_merged(merged_terms(pair for value in values for pair in value.terms()))


def product(x: RadicalSum, y: RadicalSum) -> RadicalSum:
    """x * y: every product of a term of x and a term of y, merged by
    `merged_terms`."""
    return from_merged(merged_terms((s * t, p * q) for s, p in x.terms() for t, q in y.terms()))


def scaled(components, factor: RadicalSum) -> dict[int, RadicalSum]:
    """The state whose values ``components`` maps by doubled m1, with every
    component multiplied by ``factor`` through `product`, not through the
    ladder's `sum_radicals` path."""
    return {k: product(value, factor) for k, value in components.items()}


def weight_binomials(tj1, tj2, m: int, s: int, l, p, choose=binomial):
    """The square of the weight beta(l, p) times the norm sum, as the pair
    (numerator, denominator) of its binomials, from doubled 2j1 and 2j2.

    ``choose`` is the binomial taken: `binomial` for integers, or sympy's
    for the symbolic certificate of the closed form's term root.
    """
    numer = (
        choose(tj1 - l, p)
        * choose(tj2 - m + l, s - p)
        * choose(tj2 - m + l, l)
        * choose(l + p, p)
        * choose(m - l + s - p, s - p)
        * choose(m, l)
    )
    return numer, choose(tj1, l) * choose(tj1 + tj2 - 2 * m, s)


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
    if not 0 <= s <= tj1 + tj2 - 2 * m:
        return RadicalSum.zero()
    if l < 0 or p < 0 or l > m or p > s:
        return RadicalSum.zero()
    numer, denom = weight_binomials(tj1, tj2, m, s, l, p)
    if not numer:
        return RadicalSum.zero()
    radicand = Fraction(numer, denom) / norm_sum(tj1, tj2, m)
    value = RadicalSum.sqrt(radicand)
    return -value if l & 1 else value


def racah_as_written(spec: CouplingSpec) -> RadicalSum:
    """Racah's formula term by term, for a spec with |m| <= j and matching
    parities:

        C = sqrt((2J+1) (j1+j2-J)! (J+j1-j2)! (J+j2-j1)! / (j1+j2+J+1)!)
          * sqrt((j1+m1)! (j1-m1)! (j2+m2)! (j2-m2)! (J+M)! (J-M)!)
          * sum_z (-1)^z / (z! (j1+j2-J-z)! (j1-m1-z)! (j2+m2-z)!
                            (J-j2+m1+z)! (J-j1-m2+z)!)

    over every z that keeps all six factorial arguments nonnegative.  A spec
    outside the triangle rule, with j1+j2+J not an integer or with
    M != m1 + m2, gives 0.
    """
    tj1, tj2, tJ = spec.j1.twice, spec.j2.twice, spec.J.twice
    tm1, tm2, tM = spec.m1.twice, spec.m2.twice, spec.M.twice
    if tJ < abs(tj1 - tj2) or tJ > tj1 + tj2 or (tj1 + tj2 + tJ) % 2 or tM != tm1 + tm2:
        return RadicalSum.zero()
    g1, g2, g3 = (tj1 + tj2 - tJ) // 2, (tJ + tj1 - tj2) // 2, (tJ + tj2 - tj1) // 2
    total = Fraction(0)
    for z in range(g1 + 1):
        args = (z, g1 - z, (tj1 - tm1) // 2 - z, (tj2 + tm2) // 2 - z,
                (tJ - tj2 + tm1) // 2 + z, (tJ - tj1 - tm2) // 2 + z)
        if min(args) < 0:
            continue
        denominator = 1
        for arg in args:
            denominator *= factorial(arg)
        total += Fraction((-1) ** z, denominator)
    prefactor = Fraction(
        (tJ + 1) * factorial(g1) * factorial(g2) * factorial(g3),
        factorial((tj1 + tj2 + tJ) // 2 + 1),
    )
    for twice in (tj1 + tm1, tj1 - tm1, tj2 + tm2, tj2 - tm2, tJ + tM, tJ - tM):
        prefactor *= factorial(twice // 2)
    # sqrt(prefactor) * total, as one signed square root
    value = RadicalSum.sqrt(prefactor * total * total)
    return -value if total < 0 else value
