"""Symbolic certificate of the closed form's term root, for every j.

`cg_alternative` and the closed-form states sum ``(-1)^l sqrt(R_l)`` over
l, and `sum_signed_sqrts` steps from sqrt(R_l) to sqrt(R_(l+1)) by the
rational root (a_l, b_l) that `formulas._term_root` returns, so that every
closed-form value is one radical by construction.  The certificate holds
that root to the formula: called with symbols, its square equals
R_(l+1) / R_l, with R_l the weight as `oracles.beta_closed_form` writes it
from binomials (`oracles.weight_binomials`), at p = k - l.
"""

import pytest

sympy = pytest.importorskip("sympy")

from cgexact.formulas import _term_root  # noqa: E402
from oracles import weight_binomials  # noqa: E402


def test_closed_form_term_root_squared_is_the_weight_ratio():
    tj1, tj2, m, s, k, l = sympy.symbols("tj1 tj2 m s k l", integer=True)

    def weight(i):
        numer, denom = weight_binomials(tj1, tj2, m, s, i, k - i, sympy.binomial)
        return numer / denom

    ratio = sympy.combsimp(weight(l + 1) / weight(l))
    a, b = _term_root(tj1, tj2, m, s, k, l)
    assert sympy.cancel(ratio - a**2 / b**2) == 0
