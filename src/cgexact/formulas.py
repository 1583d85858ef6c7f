"""Closed-form Clebsch-Gordan computation and quantum-number validation.

Two independent closed forms are implemented: a binomial-ratio summation
derived from ladder-operator subspace reconstruction (`cg_alternative`) and
Racah's classical single sum, its factorials regrouped into binomials so
that the sum is taken in integers (`cg_racah`).  They are kept
algorithmically disjoint on purpose; the verification module certifies their
exact agreement.  The Wigner 3j symbol is obtained from the Racah route via
the standard phase-and-normalization conversion.

All index arithmetic happens on doubled integers (``HalfInt.twice``), so
every loop bound is a plain int and no rounding can occur, and every
binomial is a `math.comb` of nonnegative arguments.  The closed form's
norm sum is the Chu-Vandermonde ratio C(2J+m+1, m) / C(2j1, m), computed
per state (`_shared_factor`), so nothing is cached.  Each route's value
is an integer sum times the square root of one rational, so one radical by
construction: each term is a product of binomials, stepped from the one
before by exact division through its term ratio, which each kernel writes
in its own loop from its own binomials.

Validation happens only at the public entry points: `cg_alternative`,
`cg_racah` and `wigner3j` pass their spec to `_is_selection_zero`, which
raises MalformedCouplingError for a malformed spec, and then call the
kernels `_closed_form_component`, `_racah` and `_wigner3j`, which take
doubled integers and assume arguments that are well-formed and pass the
selection rules.  The table walk `ladder._cell_values`, which
`build_full_table` and the verification checks read, calls them directly:
`_racah` per doubled (J, M, m1) key of `_cell_keys`, the keys of a cell in
order, and `_closed_form_component` per k = j1 - m1 of each |J, J - s>,
with one `_shared_factor` per s and no state object.  The 3j check calls
`_wigner3j` on doubled columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator

from .numerics import HalfInt, RadicalSum, _from_terms, _j_range, _radical, sum_signed_sqrts

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
    for tJ in _j_range(tj1, tj2):
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


def _closed_form_component(
    tj1: int, tj2: int, m: int, s: int, k: int, shared: tuple[int, int]
) -> RadicalSum:
    """The closed-form component at depth m = j1 + j2 - J, s = J - M and
    k = j1 - m1, from doubled 2j1 and 2j2 and the state's `_shared_factor`.

    The component is ``sum_{l=K}^{N} (-1)^l sqrt(R_l)`` with K = max(0, k-s)
    and N = min(m, k), every R_l nonzero.  With the integers T_l =
    C(2j1-l, k-l) C(2j2-m+l, s-k+l) C(m, l), R_l / R_K = (T_l / T_K)^2, so it
    is sqrt(U) sum_l (-1)^l T_l, one radical, with U = R_K / T_K^2.  Only
    T_K is built from binomials.  Each later term is the exact division
    T_(l+1) = T_l a_l // b_l, with a_l = (k-l)(2j2-m+l+1)(m-l) and
    b_l = (2j1-l)(s-k+l+1)(l+1) written in the loop, both positive for
    K <= l < N: `tests/test_symbolic.py` reads them from this source and
    proves that a_l / b_l is T_(l+1) / T_l.
    """
    q2 = tj2 - m                       # 2j2 - m  (= j2 - j1 + J)
    d = s - k                          # J - j1 - m2
    lo = max(0, -d)
    first = comb(tj1 - lo, k - lo) * comb(q2 + lo, d + lo) * comb(m, lo)
    # the signed terms (-1)^l T_l; each step flips the sign
    term = -first if lo & 1 else first
    terms = [term]
    for l in range(lo, min(m, k)):
        term = -term * ((k - l) * (q2 + l + 1) * (m - l)) // ((tj1 - l) * (d + l + 1) * (l + 1))
        terms.append(term)
    return sum_signed_sqrts(
        terms,
        comb(q2 + lo, lo) * comb(k, lo) * comb(m + d, d + lo) * shared[0],
        comb(tj1, lo) * first * shared[1],
    )


def cg_alternative(spec: CouplingSpec) -> RadicalSum:
    """Clebsch-Gordan coefficient via the binomial-ratio summation.

    The closed-form component at depth m = j1+j2-J, s = J-M and k = j1-m1
    (`_closed_form_component`): an integer sum of binomial terms, each
    stepped from the one before by exact division, times the square root
    of one rational.  Selection-zero specs give exactly 0.
    """
    if _is_selection_zero(spec):
        return RadicalSum.zero()
    tj1, tj2 = spec.j1.twice, spec.j2.twice
    m = (tj1 + tj2 - spec.J.twice) // 2
    s = (spec.J.twice - spec.M.twice) // 2
    k = (tj1 - spec.m1.twice) // 2
    return _closed_form_component(tj1, tj2, m, s, k, _shared_factor(tj1, tj2, m, s))


def cg_racah(spec: CouplingSpec) -> RadicalSum:
    """Clebsch-Gordan coefficient via Racah's single-sum formula in binomial
    form (`_racah`).  Selection-zero specs give exactly 0."""
    if _is_selection_zero(spec):
        return RadicalSum.zero()
    return _racah(
        spec.j1.twice, spec.j2.twice, spec.J.twice, spec.M.twice, spec.m1.twice
    )


def _racah(tj1: int, tj2: int, tJ: int, tM: int, tm1: int) -> RadicalSum:
    """Racah's formula at doubled (j1, j2, J, M, m1), with m2 = M - m1, in
    binomial form, for arguments that are well-formed and obey the triangle
    rule with j1 + j2 + J an integer; only the public entry points validate.

    Let g1 = j1+j2-J, g2 = J+j1-j2 and g3 = J+j2-j1, so that 2j1 = g1+g2,
    2j2 = g1+g3 and 2J = g2+g3.  The six factorials of each term of
    Racah's sum pair up: z!(g1-z)! = g1!/C(g1, z), (j1-m1-z)!(J-j2+m1+z)! =
    g2!/C(g2, j1-m1-z) and (j2+m2-z)!(J-j1-m2+z)! = g3!/C(g3, j2+m2-z).  So
    the sum is S / (g1! g2! g3!) with the integer S = sum_z (-1)^z t_z,
    t_z = C(g1, z) C(g2, j1-m1-z) C(g3, j2+m2-z), over the z where all
    three are nonzero: a range that the selection rules make nonempty.
    With C(2j1, g1) = (2j1)!/(g1! g2!), C(2j2, g1) = (2j2)!/(g1! g3!) and
    C(j1+j2+J+1, g1) = (j1+j2+J+1)!/(g1! (2J+1)!), the factorials of the
    prefactor regroup into binomials as well:

        C^2 = S^2 C(2j1, g1) C(2j2, g1) / (C(j1+j2+J+1, g1) C(2j1, j1-m1)
              C(2j2, j2+m2) C(2J, J+M)),  C of the sign of S.

    Only the first term is built from binomials.  Each later one is
    t_(z+1) = t_z (g1-z)(j1-m1-z)(j2+m2-z) // ((z+1)(d1+z+1)(d2+z+1)),
    with d1 = J-j2+m1 and d2 = J-j1-m2: the ratio of the three binomials.
    The division is exact, since its quotient t_(z+1) is a product of
    binomials.  So S is an integer sum with no factorial and no fraction,
    and C is the square root of one rational: structurally a single-term
    RadicalSum, reduced by one gcd, as each value of `cg_alternative` is.
    """
    g1 = (tj1 + tj2 - tJ) // 2         # j1 + j2 - J
    g2 = (tJ + tj1 - tj2) // 2         # J + j1 - j2
    g3 = (tJ + tj2 - tj1) // 2         # J + j2 - j1
    a = (tj1 - tm1) // 2               # j1 - m1
    b = (tj2 + tM - tm1) // 2          # j2 + m2
    d1, d2 = g2 - a, g3 - b            # J - j2 + m1, J - j1 - m2

    z_lo = max(0, -d1, -d2)
    # the signed terms (-1)^z t_z; each step flips the sign
    term = comb(g1, z_lo) * comb(g2, a - z_lo) * comb(g3, b - z_lo)
    total = term = -term if z_lo & 1 else term
    for z in range(z_lo, min(g1, a, b)):
        term = -term * ((g1 - z) * (a - z) * (b - z)) // ((z + 1) * (d1 + z + 1) * (d2 + z + 1))
        total += term
    if not total:
        return RadicalSum.zero()
    return _radical(
        1 if total > 0 else -1,
        total * total * comb(tj1, g1) * comb(tj2, g1),
        comb(g1 + tJ + 1, g1) * comb(tj1, a) * comb(tj2, b) * comb(tJ, (tJ + tM) // 2),
    )


def _racah_to_3j(value: RadicalSum, tj1: int, tj2: int, tJ: int, tM: int) -> RadicalSum:
    """3j(j1 j2 J; m1 m2 -M) = (-1)^(M+j1-j2) / sqrt(2J+1) * C, from doubled
    arguments with M + j1 - j2 an integer: each term of C times the one
    radical phase * sqrt(1 / (2J+1)) by `_radical`, so no classes merge."""
    phase = -1 if ((tM + tj1 - tj2) // 2) & 1 else 1
    # one factor on every term keeps their classes apart and in order; 0 stays 0
    scaled = (_radical(s * phase, n, d * (tJ + 1))._terms[0] for s, n, d in value._terms)
    return _from_terms(tuple(scaled))


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
