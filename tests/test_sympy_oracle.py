"""Outside oracle: sympy's Clebsch-Gordan coefficients and 3j symbols
against the in-house routes and `wigner3j`, compared by sign and square.

The 3j symmetry check cannot see a fault that keeps every symmetry, such
as a global sign or a sign on every symbol with j1 + j2 + j3 odd; these
comparisons can."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.physics.wigner import clebsch_gordan, wigner_3j  # noqa: E402

from cgexact.formulas import (  # noqa: E402
    CouplingSpec,
    ThreeJSpec,
    _wigner3j,
    cg_alternative,
    cg_racah,
    wigner3j,
)
from cgexact.ladder import cg_ladder  # noqa: E402
from cgexact.numerics import HalfInt  # noqa: E402


MAX_TWICE_J = 60


@st.composite
def well_formed_specs(draw):
    """Doubled (j1, j2, m1, m2, J, M) with nonzero selection rules."""
    tj1 = draw(st.integers(0, MAX_TWICE_J))
    tj2 = draw(st.integers(0, MAX_TWICE_J))
    tJ = draw(st.sampled_from(range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)))
    tM = draw(st.sampled_from(range(-tJ, tJ + 1, 2)))
    tm1 = draw(st.sampled_from(range(max(-tj1, tM - tj2), min(tj1, tM + tj2) + 1, 2)))
    return tj1, tj2, tm1, tM - tm1, tJ, tM


def _sign_and_square(value) -> tuple[int, Fraction]:
    terms = list(value.terms())
    assert len(terms) <= 1, f"{value} is not a single radical"
    return terms[0] if terms else (0, Fraction(0))


def _sympy_sign_and_square(expected) -> tuple[int, Fraction]:
    square = expected**2
    assert square.is_Rational
    return int(sympy.sign(expected)), Fraction(int(square.p), int(square.q))


@settings(max_examples=150, deadline=None)
@given(well_formed_specs())
def test_routes_match_sympy_sign_and_square(twice):
    j1, j2, m1, m2, J, M = (sympy.Rational(t, 2) for t in twice)
    expected_pair = _sympy_sign_and_square(clebsch_gordan(j1, j2, J, m1, m2, M))
    spec = CouplingSpec(*(HalfInt.from_twice(t) for t in twice))
    assert _sign_and_square(cg_racah(spec)) == expected_pair
    assert _sign_and_square(cg_alternative(spec)) == expected_pair
    assert _sign_and_square(cg_ladder(spec)) == expected_pair


@settings(max_examples=150, deadline=None)
@given(well_formed_specs())
def test_wigner3j_matches_sympy_sign_and_square(twice):
    # the coupling spec (j1, j2, m1, m2, J, M) is the symbol 3j(j1 j2 J; m1 m2 -M)
    tj1, tj2, tm1, tm2, tJ, tM = twice
    columns = (tj1, tj2, tJ, tm1, tm2, -tM)
    expected = wigner_3j(*(sympy.Rational(t, 2) for t in columns))
    spec = ThreeJSpec(*(HalfInt.from_twice(t) for t in columns))
    assert _sign_and_square(wigner3j(spec)) == _sympy_sign_and_square(expected)


def test_every_3j_symbol_up_to_2j_8_matches_sympy_sign_and_square():
    # every symbol that the 3j check evaluates at 2j <= 8, zeros included
    count = 0
    for ja in range(9):
        for jb in range(9):
            for jc in range(abs(ja - jb), min(ja + jb, 8) + 1, 2):
                for ma in range(-ja, ja + 1, 2):
                    for mb in range(max(-jb, -ma - jc), min(jb, jc - ma) + 1, 2):
                        half = (sympy.Rational(t, 2) for t in (ja, jb, jc, ma, mb, -ma - mb))
                        expected = _sympy_sign_and_square(wigner_3j(*half))
                        value = _wigner3j(ja, jb, jc, ma, mb)
                        assert _sign_and_square(value) == expected, (ja, jb, jc, ma, mb)
                        count += 1
    assert count == 4451
