"""Reference formulas as written, for tests to compare the package against.

Each oracle builds its values straight from binomials or factorials, term
by term, and shares no formula with the routes it checks: only the exact
values of `cgexact.numerics`.  A state is a plain {doubled m1: value} dict
of its nonzero components, the form the table walk gives.  Sums and
products of values are taken here, by `merged_terms`, not by the package's
`sum_radicals`.  There are three exceptions.  `lower_normalized` is the
lowering step on exact states through the ladder check's J- kernel
`verification._apply_ladder`: the reference that the ladder route's
integer chain is held to, state by state.  `unitarity_by_dot` is the
unitarity check's Gram loop with every product taken by `numerics._dot`,
the reference that the check's integer bulk pass is held to.
`ladder_by_apply` is the ladder check with every relation acted out by
`_apply_ladder` and every norm taken by `_dot`, the reference that the
check's integer decisions are held to.  `agreement_by_key`,
`collapse_by_key` and `threej_by_label` are the agreement, collapse and
3j checks as loops over each key or symbol with `RadicalSum` equality,
the references that the checks' passes over canonical terms are held to.

`perturbed_tables` changes one value of a route's table at a time, so
that a test can see which checks catch which change.
"""

from fractions import Fraction
from itertools import permutations
from math import comb, factorial, isqrt

from cgexact.formulas import CouplingSpec, ThreeJSpec, _cell_keys, _key_spec, _racah_subspace
from cgexact.verification import Counterexample, _apply_ladder
from cgexact.numerics import HalfInt, RadicalSum, _dot, _from_terms


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


#: the kinds of change that `perturbed_tables` makes, in the order it makes them
PERTURBATIONS = ("negate", "drop", "double radicand", "double", "swap")


def perturbed_tables(items):
    """Every table one change away from a route's walk of a cell, given as
    ``items``, its list of (doubled (J, M, m1), value) in walk order, as
    (kind, key, changed items) with the keys left in walk order.

    Each value is negated, dropped, given twice its radicand (times
    sqrt(2), by `product`) and doubled; and each value is swapped with the
    next value of its state |J, M>, when the two differ: a swap of two
    equal values changes nothing, and is not made.
    """
    sqrt2, two = RadicalSum.sqrt(2), RadicalSum.rational(2)
    for i, (key, value) in enumerate(items):
        before, after = items[:i], items[i + 1:]
        yield "negate", key, before + [(key, -value)] + after
        yield "drop", key, before + after
        yield "double radicand", key, before + [(key, product(value, sqrt2))] + after
        yield "double", key, before + [(key, product(value, two))] + after
        if after and after[0][0][:2] == key[:2] and after[0][1] != value:
            (next_key, next_value), rest = after[0], after[1:]
            yield "swap", key, before + [(key, next_value), (next_key, value)] + rest


def unitarity_by_dot(tj1: int, tj2: int, items) -> tuple[int, Counterexample | None]:
    """The unitarity check's result on the (2j1, 2j2) cell whose
    closed-form walk is ``items``, with every Gram product taken by
    `numerics._dot`: the (case count, first counterexample) of its rows by
    J, in (J, M) order, then its columns by m1, in (M, m1) order, each
    vector meeting every vector of its M block at or after it.  The
    vectors are those of the cell, every |J, M> and every (m1, m2), and any
    other that ``items`` holds; one that ``items`` leaves out is empty."""
    j1, j2 = HalfInt.from_twice(tj1), HalfInt.from_twice(tj2)
    rows, columns = {}, {}
    for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        for tM in range(-tJ, tJ + 1, 2):
            rows.setdefault(tM, {})[tJ] = {}
    for tm1 in range(-tj1, tj1 + 1, 2):
        for tm2 in range(-tj2, tj2 + 1, 2):
            columns.setdefault(tm1 + tm2, {})[tm1] = {}
    for (tJ, tM, tm1), value in items:
        rows.setdefault(tM, {}).setdefault(tJ, {})[tm1] = value
        columns.setdefault(tM, {}).setdefault(tm1, {})[tJ] = value
    one, zero = RadicalSum.one(), RadicalSum.zero()
    count = 0
    for label, index, blocks, order in (
        ("row orthonormality", "J", rows, lambda vector: (vector[1], vector[0])),
        ("column completeness", "m1", columns, None),
    ):
        indices = {tM: sorted(block) for tM, block in blocks.items()}
        vectors = ((tM, t, i) for tM, ts in indices.items() for i, t in enumerate(ts))
        for tM, t, i in sorted(vectors, key=order):
            block = blocks[tM]
            for tb in indices[tM][i:]:
                count += 1
                inner = _dot(block[t], block[tb])
                if inner != (one if tb == t else zero):
                    return count, Counterexample(
                        description=(
                            f"{label} at (j1={j1}, j2={j2}): "
                            f"{index}={HalfInt.from_twice(t)}, "
                            f"{index}'={HalfInt.from_twice(tb)}, M={HalfInt.from_twice(tM)}"
                        ),
                        values={"inner product": str(inner)},
                    )
    return count, None


def ladder_by_apply(
    tj1: int, tj2: int, ladder_items, closed_items
) -> tuple[int, Counterexample | None]:
    """The ladder check's result on the (2j1, 2j2) cell whose ladder and
    closed-form walks are ``ladder_items`` and ``closed_items``, with every
    relation acted out by `verification._apply_ladder` and every norm taken
    by `numerics._dot`: the (chain count, first counterexample) of J+
    annihilation of each |J, J>, the norm and J+ relation of each ladder
    state and the J- relation of each closed-form state, chain by chain in
    ascending J.  A state that a walk leaves out is empty."""
    j1, j2 = HalfInt.from_twice(tj1), HalfInt.from_twice(tj2)
    chains, closed_states = {}, {}
    for states, items in ((chains, ladder_items), (closed_states, closed_items)):
        for (tJ, tM, tm1), value in items:
            states.setdefault(tJ, {}).setdefault(tM, {})[tm1] = value
    one = RadicalSum.one()
    count = 0
    for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        count += 1
        J = HalfInt.from_twice(tJ)
        chain, closed = (
            [states.get(tJ, {}).get(tM, {}) for tM in range(tJ, -tJ - 1, -2)]
            for states in (chains, closed_states)
        )
        raised = _apply_ladder(tj1, tj2, tJ, chain[0], +1)
        if raised:
            return count, Counterexample(
                f"J+ annihilation fails for (j1={j1}, j2={j2}, J={J})",
                {"J+ |J,J>": str(dict(sorted(raised.items(), reverse=True)))},
            )
        for step, state in enumerate(chain):
            tM = tJ - 2 * step
            norm_squared = _dot(state, state)
            if norm_squared != one:
                return count, Counterexample(
                    f"norm of |J={J}, M={HalfInt.from_twice(tM)}> at (j1={j1}, j2={j2})",
                    {"norm^2": str(norm_squared)},
                )
            # J(J+1) - M(M+1), the square of the J+ element from |J, M>
            divisor = (tJ * (tJ + 2) - tM * (tM + 2)) // 4
            if step > 0 and _apply_ladder(tj1, tj2, tM, state, +1, divisor) != chain[step - 1]:
                return count, Counterexample(
                    f"J+ ladder relation at (j1={j1}, j2={j2}, J={J}, M={HalfInt.from_twice(tM)})"
                )
        for s in range(1, tJ + 1):
            tM = tJ - 2 * s
            divisor = (tJ * (tJ + 2) - tM * (tM + 2)) // 4
            if _apply_ladder(tj1, tj2, tM + 2, closed[s - 1], -1, divisor) != closed[s]:
                return count, Counterexample(
                    f"J- relation on beta states at (j1={j1}, j2={j2}, J={J}, s={s})"
                )
    return count, None


def agreement_by_key(tj1: int, tj2: int, closed_items, racah_items, ladder_items):
    """The agreement check's result on the (2j1, 2j2) cell whose closed-form,
    Racah and ladder walks are the three lists of items: the (case count,
    first counterexample) of comparing the three values key by key over
    `_cell_keys`, a key missing from a walk reading 0."""
    closed, racahs, iterative = dict(closed_items), dict(racah_items), dict(ladder_items)
    zero = RadicalSum.zero()
    count = 0
    for key in _cell_keys(tj1, tj2):
        count += 1
        values = [walk.get(key, zero) for walk in (closed, racahs, iterative)]
        if not values[0] == values[1] == values[2]:
            return count, Counterexample(
                str(_key_spec(tj1, tj2, key)),
                dict(zip(("alternative", "racah", "ladder"), map(str, values))),
            )
    return count, None


def collapse_by_key(tj1: int, tj2: int, items):
    """The collapse check's result on the (2j1, 2j2) cell whose closed-form
    walk is ``items``: the (case count, first counterexample) of requiring
    at most one term of the value at each key of `_cell_keys`."""
    closed = dict(items)
    count = 0
    for key in _cell_keys(tj1, tj2):
        count += 1
        value = closed.get(key)
        if value is not None and value.num_terms > 1:
            return count, Counterexample(str(_key_spec(tj1, tj2, key)), {"value": str(value)})
    return count, None


def threej_by_label(unit, wigner3j):
    """The 3j check's result on the doubled j-triple ``unit`` with the 3j
    symbols of ``wigner3j(subspace, ma, mb)``, on the `_racah_subspace` of
    each column order of ``unit`` and doubled ma and mb: the
    (symbol count, first counterexample) of comparing each symbol with its
    six labeled images, then requiring the sign (-1)^(ja-jb+jc) of a
    stretched symbol, which a value of several terms does not have."""
    symbols = {}
    for ja, jb, jc in sorted(set(permutations(unit))):
        subspace = _racah_subspace(ja, jb, jc)
        for ma in range(-ja, ja + 1, 2):
            for mb in range(-jb, jb + 1, 2):
                if abs(ma + mb) <= jc:
                    symbols[ja, jb, jc, ma, mb, -ma - mb] = wigner3j(subspace, ma, mb)
    odd = sum(unit) // 2 % 2
    count = 0
    for key, base in symbols.items():
        count += 1
        ja, jb, jc, ma, mb, mc = key
        spec = ThreeJSpec(*map(HalfInt.from_twice, key))
        flipped = -base if odd else base
        for label, image, expected in (
            ("cyclic (231)", (jb, jc, ja, mb, mc, ma), base),
            ("cyclic (312)", (jc, ja, jb, mc, ma, mb), base),
            ("swap (213)", (jb, ja, jc, mb, ma, mc), flipped),
            ("swap (132)", (ja, jc, jb, ma, mc, mb), flipped),
            ("swap (321)", (jc, jb, ja, mc, mb, ma), flipped),
            ("m negation", (ja, jb, jc, -ma, -mb, -mc), flipped),
        ):
            if symbols[image] != expected:
                return count, Counterexample(
                    f"{label} of {spec}", {"base": str(base), "permuted": str(symbols[image])}
                )
        sign = (-1) ** ((ja - jb + jc) // 2)
        if ma == ja and mc == -jc and (base.num_terms != 1 or base.sign() != sign):
            return count, Counterexample(
                f"sign of the stretched {spec}", {"base": str(base), "expected sign": f"{sign:+d}"}
            )
    return count, None
