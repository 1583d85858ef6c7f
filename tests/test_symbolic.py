"""Symbolic certificates of route 1, the closed form, for every j.

`cg_alternative` and the closed-form states sum ``(-1)^l sqrt(R_l)`` over
l = K..N, with R_l the weight as `oracles.beta_closed_form` writes it from
binomials (`oracles.weight_binomials`), at p = k - l.  The kernel
`formulas._closed_form_component` writes that sum as sqrt(U) times the
integer sum of (-1)^l T_l, with T_l a product of three binomials and
U = R_K / T_K^2, and steps T_l to T_(l+1) by the root (a_l, b_l) that
`formulas._term_root` returns, as an exact integer division.

`_route1_binomials` transcribes T_l and U_l from the kernel.  The
certificates prove, with symbols, that the root is the ratio of the T_l,
so the division is exact, and that U_l T_l^2 is the radicand R_l.  A
numeric test holds the transcription to the kernel's own arguments, so
that neither can drift from the other.
"""

import pytest

sympy = pytest.importorskip("sympy")

from cgexact import formulas, ladder  # noqa: E402
from cgexact.formulas import _term_root  # noqa: E402
from cgexact.numerics import HalfInt  # noqa: E402
from oracles import binomial, weight_binomials  # noqa: E402


def _route1_binomials(tj1, tj2, m, s, k, l, choose=binomial):
    """T_l and the pair (numerator, denominator) of U_l = R_l / T_l^2 of the
    closed-form component at (m, s, k), as `_closed_form_component` writes
    them at l = K, with q2 = 2j2 - m, d = s - k and 2J = 2j1 + 2j2 - 2m.
    The factors C(2j1, m) and C(2J, s) C(2J+m+1, m) are `_shared_factor`."""
    q2, d, tJ = tj2 - m, s - k, tj1 + tj2 - 2 * m
    term = choose(tj1 - l, k - l) * choose(q2 + l, d + l) * choose(m, l)
    numer = choose(q2 + l, l) * choose(k, l) * choose(m + d, d + l) * choose(tj1, m)
    denom = choose(tj1, l) * term * choose(tJ, s) * choose(tJ + m + 1, m)
    return term, numer, denom


_SYMBOLS = "tj1 tj2 m s k l"


def test_closed_form_term_root_is_the_ratio_of_the_binomial_terms():
    tj1, tj2, m, s, k, l = sympy.symbols(_SYMBOLS, integer=True)

    def term(i):
        return _route1_binomials(tj1, tj2, m, s, k, i, sympy.binomial)[0]

    ratio = sympy.combsimp(term(l + 1) / term(l))
    a, b = _term_root(tj1, tj2, m, s, k, l)
    assert sympy.cancel(ratio - a / b) == 0


def test_closed_form_radical_times_the_term_squared_is_the_radicand():
    tj1, tj2, m, s, k, l = sympy.symbols(_SYMBOLS, integer=True)
    term, numer, denom = _route1_binomials(tj1, tj2, m, s, k, l, sympy.binomial)
    r_numer, r_denom = weight_binomials(tj1, tj2, m, s, l, k - l, sympy.binomial)
    tJ = tj1 + tj2 - 2 * m
    radicand = r_numer / r_denom * sympy.binomial(tj1, m) / sympy.binomial(tJ + m + 1, m)
    ratio = sympy.combsimp(numer / denom * term**2 / radicand)
    assert sympy.cancel(ratio - 1) == 0


def test_closed_form_term_root_squared_is_the_weight_ratio():
    tj1, tj2, m, s, k, l = sympy.symbols(_SYMBOLS, integer=True)

    def weight(i):
        numer, denom = weight_binomials(tj1, tj2, m, s, i, k - i, sympy.binomial)
        return numer / denom

    ratio = sympy.combsimp(weight(l + 1) / weight(l))
    a, b = _term_root(tj1, tj2, m, s, k, l)
    assert sympy.cancel(ratio - a**2 / b**2) == 0


def test_the_kernel_sums_the_transcribed_terms_over_the_transcribed_radical(monkeypatch):
    recorded = []
    original = formulas.sum_signed_sqrts

    def recording(terms, n, d):
        terms = list(terms)
        recorded.append((terms, n, d))
        return original(terms, n, d)

    monkeypatch.setattr(formulas, "sum_signed_sqrts", recording)
    components = 0
    for tj1 in range(9):
        for tj2 in range(9):
            for m in range(min(tj1, tj2) + 1):
                for s in range(tj1 + tj2 - 2 * m + 1):
                    recorded.clear()
                    ladder._closed_form_state(
                        HalfInt.from_twice(tj1), HalfInt.from_twice(tj2), m, s
                    )
                    expected = []
                    for k in range(max(0, s + m - tj2), min(tj1, m + s) + 1):
                        lo = max(0, k - s)
                        _, numer, denom = _route1_binomials(tj1, tj2, m, s, k, lo)
                        terms = [
                            (-1) ** l * _route1_binomials(tj1, tj2, m, s, k, l)[0]
                            for l in range(lo, min(m, k) + 1)
                        ]
                        expected.append((terms, numer, denom))
                    assert recorded == expected, (tj1, tj2, m, s)
                    components += len(expected)
    # one component per well-formed spec: the agreement check's 7809 cases
    assert components == 7809
