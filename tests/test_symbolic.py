"""Symbolic certificate of the radical collapse, for every j.

`cg_alternative` and the closed-form states sum ``(-1)^l sqrt(R_l)``, and
`sum_signed_sqrts` keeps one radical as long as each term ratio
R_(l+1) / R_l = n / d is the square of a rational.  That holds for all
arguments when n * d is the square of a polynomial with a square constant:
every irreducible factor of n and d together has an even exponent.  The
route's own `_term_ratio`, called with symbols, gives n and d as
polynomials; each side is expanded and factored on its own, which is much
faster than factoring their product.
"""

from collections import Counter

import pytest

sympy = pytest.importorskip("sympy")

from cgexact.formulas import _term_ratio  # noqa: E402


def _odd_factors(n, d) -> list:
    """The irreducible factors of n * d with an odd total exponent, plus the
    constant of n * d when it is not the square of a rational."""
    constant = sympy.Integer(1)
    exponents: Counter = Counter()
    for side in (n, d):
        coefficient, factors = sympy.factor_list(sympy.expand(side))
        constant *= coefficient
        for factor, exponent in factors:
            exponents[factor] += exponent
    odd = [factor for factor, exponent in exponents.items() if exponent % 2]
    root = sympy.sqrt(constant)
    if constant <= 0 or not root.is_rational:
        odd.append(constant)
    return odd


def test_closed_form_term_ratio_is_a_square_for_all_arguments():
    tj1, tj2, m, s, k, l = sympy.symbols("tj1 tj2 m s k l")
    n, d = _term_ratio(tj1, tj2, m, s, k, l)
    assert _odd_factors(n, d) == []


def test_odd_factor_search_rejects_a_ratio_that_is_no_square():
    k, l, m = sympy.symbols("k l m")
    assert _odd_factors((k - l) * (l + 1) ** 2, (m - l) ** 2) == [k - l]
    assert _odd_factors(2 * (l + 1), 8 * (l + 1)) == []
    assert _odd_factors(2 * (l + 1), 4 * (l + 1)) == [8]
