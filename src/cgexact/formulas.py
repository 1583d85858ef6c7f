"""Closed-form Clebsch-Gordan computation and quantum-number validation.

Two independent closed forms are implemented: a binomial-ratio summation
derived from ladder-operator subspace reconstruction (`cg_alternative`) and
Racah's classical single-sum factorial formula (`cg_racah`).  They are kept
algorithmically disjoint on purpose; the verification module certifies their
exact agreement.  The Wigner 3j symbol is obtained from the Racah route via
the standard phase-and-normalization conversion.

All index arithmetic happens on doubled integers (``HalfInt.twice``), so
every loop bound is a plain int and no rounding can occur, and every
binomial is a `math.comb` of nonnegative arguments.  The closed form's
norm sum is the Chu-Vandermonde ratio C(2J+m+1, m) / C(2j1, m), computed
per state (`_shared_factor`), so nothing is cached.

Validation happens only at the public entry points: `cg_alternative`,
`cg_racah` and `wigner3j` pass their spec to `_is_selection_zero`, which
raises MalformedCouplingError for a malformed spec, and then call the
kernels `_closed_form_steps`, `_racah` and `_wigner3j`, which take doubled
integers and assume arguments that are well-formed and pass the selection
rules.  The verification sweeps call those kernels directly, over the
doubled (J, M, m1) keys of `_cell_keys`, the one walk of a cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from typing import Iterator

from .numerics import HalfInt, RadicalSum, _radical, sum_radicals, sum_signed_sqrts

__all__ = [
    "CouplingSpec",
    "MalformedCouplingError",
    "ThreeJSpec",
    "cell_specs",
    "cg_alternative",
    "cg_racah",
    "wigner3j",
]


class MalformedCouplingError(ValueError):
    """Arguments that no Clebsch-Gordan coefficient is defined for.

    Raised for negative j, |m| > j or half-integer parity violations; these
    signal caller bugs.  Physically forbidden but well-formed arguments are
    not errors, they give coefficient 0.
    """


@dataclass(frozen=True)
class CouplingSpec:
    """Argument list of a Clebsch-Gordan coefficient <j1 m1 j2 m2 | J M>."""

    j1: HalfInt
    j2: HalfInt
    m1: HalfInt
    m2: HalfInt
    J: HalfInt
    M: HalfInt

    @classmethod
    def of(cls, j1, j2, m1, m2, J, M) -> "CouplingSpec":
        """Coercing constructor: accepts ints, 'p/q' strings, Fractions."""
        return cls(
            HalfInt(j1), HalfInt(j2), HalfInt(m1), HalfInt(m2), HalfInt(J), HalfInt(M)
        )

    def __str__(self) -> str:
        return (
            f"C(j1={self.j1}, j2={self.j2}, m1={self.m1}, m2={self.m2}, "
            f"J={self.J}, M={self.M})"
        )


@dataclass(frozen=True)
class ThreeJSpec:
    """Argument matrix of a Wigner 3j symbol (columns (j_i, m_i))."""

    j1: HalfInt
    j2: HalfInt
    j3: HalfInt
    m1: HalfInt
    m2: HalfInt
    m3: HalfInt

    @classmethod
    def of(cls, j1, j2, j3, m1, m2, m3) -> "ThreeJSpec":
        return cls(
            HalfInt(j1), HalfInt(j2), HalfInt(j3), HalfInt(m1), HalfInt(m2), HalfInt(m3)
        )

    def __str__(self) -> str:
        return f"3j({self.j1} {self.j2} {self.j3}; {self.m1} {self.m2} {self.m3})"


def _is_selection_zero(spec: CouplingSpec) -> bool:
    """Whether a well-formed spec is physically forbidden (triangle rule,
    integer total, M = m1 + m2), so that its coefficient is exactly 0.

    Raises MalformedCouplingError for arguments that signal caller bugs:
    negative j, |m| > j or a parity mismatch.
    """
    tj1, tj2 = spec.j1.twice, spec.j2.twice
    tm1, tm2 = spec.m1.twice, spec.m2.twice
    tJ, tM = spec.J.twice, spec.M.twice
    for name, tj in (("j1", tj1), ("j2", tj2), ("J", tJ)):
        if tj < 0:
            raise MalformedCouplingError(f"{spec}: {name} is negative")
    for jname, mname, tj, tm in (
        ("j1", "m1", tj1, tm1),
        ("j2", "m2", tj2, tm2),
        ("J", "M", tJ, tM),
    ):
        if (tj + tm) % 2:
            raise MalformedCouplingError(
                f"{spec}: parity of {mname} inconsistent with {jname} "
                f"({jname}+{mname} not an integer)"
            )
        if abs(tm) > tj:
            raise MalformedCouplingError(f"{spec}: |{mname}| exceeds {jname}")
    return (
        tJ < abs(tj1 - tj2)
        or tJ > tj1 + tj2
        or (tj1 + tj2 + tJ) % 2 == 1
        or tM != tm1 + tm2
    )


def _cell_keys(tj1: int, tj2: int) -> Iterator[tuple[int, int, int]]:
    """The doubled (J, M, m1) of every well-formed spec of the (2j1, 2j2)
    cell, in increasing (J, M, m1) order: |j1 - j2| <= J <= j1 + j2 in unit
    steps, |M| <= J, and M = m1 + m2 with |m1| <= j1 and |m2| <= j2."""
    for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        for tM in range(-tJ, tJ + 1, 2):
            for tm1 in range(max(-tj1, tM - tj2), min(tj1, tM + tj2) + 1, 2):
                yield tJ, tM, tm1


def _key_spec(tj1: int, tj2: int, key: tuple[int, int, int]) -> CouplingSpec:
    """The spec of the doubled (J, M, m1) ``key`` in the (2j1, 2j2) cell."""
    tJ, tM, tm1 = key
    half = HalfInt.from_twice
    return CouplingSpec(
        half(tj1), half(tj2), half(tm1), half(tM - tm1), half(tJ), half(tM)
    )


def cell_specs(j1, j2) -> Iterator[CouplingSpec]:
    """Every well-formed spec of the (j1, j2) cell, in increasing (J, M, m1)
    order (`_cell_keys`); raises ValueError for a negative j."""
    tj1, tj2 = HalfInt(j1).twice, HalfInt(j2).twice
    if tj1 < 0 or tj2 < 0:
        raise ValueError("j1 and j2 must be nonnegative")
    return (_key_spec(tj1, tj2, key) for key in _cell_keys(tj1, tj2))


def _shared_factor(tj1: int, tj2: int, m: int, s: int) -> tuple[int, int]:
    """1 / (C(2J, s) * norm sum) as an integer pair (numerator, denominator):
    the factor of every closed-form weight of |J, J - s> in the subspace of
    depth m = j1 + j2 - J.

    The norm sum sum_i C(2j2-m+i, i) C(m, i) / C(2j1, i) over i = 0..m is
    the inverse square of the highest-weight leading coefficient; by
    Chu-Vandermonde it equals C(2J+m+1, m) / C(2j1, m).
    """
    tJ = tj1 + tj2 - 2 * m
    return comb(tj1, m), comb(tJ, s) * comb(tJ + m + 1, m)


def _term_ratio(tj1, tj2, m, s, k, l):
    """R_(l+1) / R_l of the closed form at (m, s, k), as the unreduced pair
    (numerator, denominator): one factor ratio per binomial of R_l, never
    simplified by hand.  Written with ``*``, ``+`` and ``-`` only, so that
    symbols go through it as well as ints."""
    return (
        (k - l) * (tj2 - m + l + 1) * (tj2 - m + l + 1) * (k - l)
        * (m - l) * (m - l) * (l + 1),
        (tj1 - l) * (s - k + l + 1) * (l + 1) * (l + 1)
        * (s - k + l + 1) * (l + 1) * (tj1 - l),
    )


def _closed_form_steps(
    tj1: int, tj2: int, m: int, s: int, k: int, shared: tuple[int, int]
) -> Iterator[tuple[int, int, int]]:
    """The `sum_signed_sqrts` steps of the closed-form component at depth
    m = j1 + j2 - J, s = J - M and k = j1 - m1, from doubled 2j1 and 2j2.

    The component is ``sum_{l=K}^{N} (-1)^l sqrt(R_l)`` with K = max(0, k-s)
    and N = min(m, k); for k in the component range, every R_l in that
    range is nonzero.  Only R_K is built from binomials, times ``shared``
    (`_shared_factor`).  Each later step is the term ratio R_(l+1) / R_l of
    `_term_ratio`, and one integer square root in `sum_signed_sqrts` tests
    that it is the square of a rational; that is how the sum collapses to
    one radical.
    """
    q2 = tj2 - m                       # 2j2 - m  (= j2 - j1 + J)
    d = s - k                          # J - j1 - m2
    lo = max(0, -d)
    yield (
        -1 if lo & 1 else 1,
        comb(tj1 - lo, k - lo)
        * comb(q2 + lo, d + lo)
        * comb(q2 + lo, lo)
        * comb(k, lo)
        * comb(m + d, d + lo)
        * comb(m, lo)
        * shared[0],
        comb(tj1, lo) * shared[1],
    )
    # term l + 1: the sign flips
    for l in range(lo, min(m, k)):
        num, den = _term_ratio(tj1, tj2, m, s, k, l)
        yield (1 if l & 1 else -1, num, den)


def cg_alternative(spec: CouplingSpec) -> RadicalSum:
    """Clebsch-Gordan coefficient via the binomial-ratio summation.

    One `sum_signed_sqrts` over the closed form's steps at depth
    m = j1+j2-J, s = J-M and k = j1-m1 (`_closed_form_steps`).
    Selection-zero specs give exactly 0.
    """
    if _is_selection_zero(spec):
        return RadicalSum.zero()
    tj1, tj2 = spec.j1.twice, spec.j2.twice
    m = (tj1 + tj2 - spec.J.twice) // 2
    s = (spec.J.twice - spec.M.twice) // 2
    k = (tj1 - spec.m1.twice) // 2
    return sum_signed_sqrts(
        _closed_form_steps(tj1, tj2, m, s, k, _shared_factor(tj1, tj2, m, s))
    )


def cg_racah(spec: CouplingSpec) -> RadicalSum:
    """Clebsch-Gordan coefficient via Racah's single-sum factorial formula
    (`_racah`).  Selection-zero specs give exactly 0."""
    if _is_selection_zero(spec):
        return RadicalSum.zero()
    return _racah(
        spec.j1.twice, spec.j2.twice, spec.J.twice, spec.M.twice, spec.m1.twice
    )


def _racah(tj1: int, tj2: int, tJ: int, tM: int, tm1: int) -> RadicalSum:
    """Racah's formula at doubled (j1, j2, J, M, m1), with m2 = M - m1, for
    arguments that are well-formed and obey the triangle rule with
    j1 + j2 + J an integer; only the public entry points validate.

    A common square-root prefactor multiplies an alternating rational sum
    over every z that keeps all factorial arguments nonnegative.  Only the
    first term is built from factorials; the sum is taken in Horner form
    from the last term through the small-integer term ratios, as one
    integer fraction.  Prefactor and sum are then squared together in
    integers, so the value costs one gcd: the reduced pair of its square.
    The result is structurally a single-term RadicalSum, which is what makes
    this route the collapse oracle for `cg_alternative`.
    """
    tm2 = tM - tm1
    g1 = (tj1 + tj2 - tJ) // 2         # j1 + j2 - J
    g2 = (tJ + tj1 - tj2) // 2         # J + j1 - j2
    g3 = (tJ + tj2 - tj1) // 2         # J + j2 - j1
    gs = (tj1 + tj2 + tJ) // 2 + 1     # j1 + j2 + J + 1
    a_p = (tj1 + tm1) // 2             # j1 + m1
    a_m = (tj1 - tm1) // 2             # j1 - m1
    b_p = (tj2 + tm2) // 2             # j2 + m2
    b_m = (tj2 - tm2) // 2             # j2 - m2
    c_p = (tJ + tM) // 2               # J + M
    c_m = (tJ - tM) // 2               # J - M
    d1 = (tJ - tj2 + tm1) // 2         # J - j2 + m1
    d2 = (tJ - tj1 - tm2) // 2         # J - j1 - m2

    z_lo = max(0, -d1, -d2)
    z_hi = min(g1, a_m, b_p)
    if z_lo > z_hi:
        return RadicalSum.zero()

    # the sum relative to the z_lo term is num/den; the term ratio from z to
    # z + 1 is -(g1-z)(a_m-z)(b_p-z) / ((z+1)(d1+z+1)(d2+z+1))
    num = den = 1
    for z in range(z_hi - 1, z_lo - 1, -1):
        below = (z + 1) * (d1 + z + 1) * (d2 + z + 1)
        num, den = den * below - (g1 - z) * (a_m - z) * (b_p - z) * num, den * below
    if not num:
        return RadicalSum.zero()
    if z_lo & 1:
        num = -num
    den *= (
        factorial(z_lo) * factorial(g1 - z_lo) * factorial(a_m - z_lo)
        * factorial(b_p - z_lo) * factorial(d1 + z_lo) * factorial(d2 + z_lo)
    )
    # C = sqrt(prefactor) * num / den, with the prefactor (2J+1) times nine
    # factorials over (j1+j2+J+1)!, taken as one signed square
    return _radical(
        1 if num > 0 else -1,
        (tJ + 1)
        * factorial(g1) * factorial(g2) * factorial(g3)
        * factorial(a_p) * factorial(a_m)
        * factorial(b_p) * factorial(b_m)
        * factorial(c_p) * factorial(c_m)
        * num * num,
        factorial(gs) * den * den,
    )


def _racah_to_3j(value: RadicalSum, tj1: int, tj2: int, tJ: int, tM: int) -> RadicalSum:
    """3j(j1 j2 J; m1 m2 -M) = (-1)^(M+j1-j2) / sqrt(2J+1) * C, from doubled
    arguments with M + j1 - j2 an integer: each term of C times the one
    radical phase * sqrt(1 / (2J+1))."""
    phase = -1 if ((tM + tj1 - tj2) // 2) & 1 else 1
    return sum_radicals((s * phase, n, d * (tJ + 1)) for s, n, d in value._terms)


def _wigner3j(ja: int, jb: int, jc: int, ma: int, mb: int) -> RadicalSum:
    """3j(ja jb jc; ma mb -ma-mb) from doubled columns that `_racah` takes
    at J = jc and M = ma + mb, converted by `_racah_to_3j`."""
    tM = ma + mb
    return _racah_to_3j(_racah(ja, jb, jc, tM, ma), ja, jb, jc, tM)


def wigner3j(spec: ThreeJSpec) -> RadicalSum:
    """Wigner 3j symbol with standard selection rules.

    Computed from the Racah route through the CG conversion so that the 3j
    symmetry suite stays an independent check on the other formulas.  The
    coupling spec has J = j3 and M = -m3, so its validation rejects
    malformed columns and gives 0 when m1 + m2 + m3 != 0 or the triangle
    rule fails; every other symbol is `_wigner3j`.
    """
    coupling = CouplingSpec(spec.j1, spec.j2, spec.m1, spec.m2, spec.j3, -spec.m3)
    if _is_selection_zero(coupling):
        return RadicalSum.zero()
    return _wigner3j(
        spec.j1.twice, spec.j2.twice, spec.j3.twice, spec.m1.twice, spec.m2.twice
    )
