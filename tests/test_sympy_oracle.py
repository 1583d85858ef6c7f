"""Outside oracle: sympy's Clebsch-Gordan coefficients against the
in-house routes, compared by sign and square."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.physics.wigner import clebsch_gordan  # noqa: E402

from cgexact.formulas import CouplingSpec, cg_alternative, cg_racah  # noqa: E402
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


@settings(max_examples=150, deadline=None)
@given(well_formed_specs())
def test_routes_match_sympy_sign_and_square(twice):
    j1, j2, m1, m2, J, M = (sympy.Rational(t, 2) for t in twice)
    expected = clebsch_gordan(j1, j2, J, m1, m2, M)
    square = expected**2
    assert square.is_Rational
    expected_pair = (
        int(sympy.sign(expected)),
        Fraction(int(square.p), int(square.q)),
    )
    spec = CouplingSpec(*(HalfInt.from_twice(t) for t in twice))
    assert _sign_and_square(cg_racah(spec)) == expected_pair
    assert _sign_and_square(cg_alternative(spec)) == expected_pair
    assert _sign_and_square(cg_ladder(spec)) == expected_pair
