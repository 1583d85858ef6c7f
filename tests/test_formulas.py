"""Tests for the closed-form coefficient routes and the 3j conversion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgexact.formulas import (
    CouplingSpec,
    MalformedCouplingError,
    ThreeJSpec,
    Validity,
    cell_specs,
    cg_alternative,
    cg_racah,
    cg_to_wigner3j,
    validate,
    wigner3j,
)
from cgexact.ladder import cg_ladder
from cgexact.numerics import HalfInt, RadicalSum, binomial, to_decimal
from oracles import beta_closed_form, norm_sum


def spec(j1, j2, m1, m2, J, M) -> CouplingSpec:
    return CouplingSpec.of(j1, j2, m1, m2, J, M)


SQRT = RadicalSum.sqrt


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_well_formed():
    assert validate(spec(2, 1, 0, 0, 3, 0)).is_well_formed


def test_validate_selection_zero_reasons():
    result = validate(spec(1, 1, 1, 1, 1, 0))
    assert result.is_selection_zero
    assert "M != m1 + m2" in result.reason
    triangle = validate(spec(2, 1, 0, 0, 0, 0))
    assert triangle.is_selection_zero
    assert "triangle" in triangle.reason


def test_validate_integer_total_rule():
    # j1=1/2, j2=1, J=1: j1+j2+J = 5/2 not an integer, but every (j, m)
    # pair is individually consistent, so this is selection-zero
    result = validate(spec("1/2", 1, "1/2", 0, 1, 1))
    assert result.is_selection_zero
    assert "not an integer" in result.reason


def test_validate_malformed_cases():
    parity = validate(spec("1/2", "1/2", 0, "1/2", 1, "1/2"))
    assert parity.is_malformed
    assert "m1" in parity.reason
    negative = validate(CouplingSpec.of(-1, 1, 0, 0, 1, 0))
    assert negative.is_malformed and "j1" in negative.reason
    out_of_range = validate(spec(1, 1, 2, 0, 2, 2))
    assert out_of_range.is_malformed and "m1" in out_of_range.reason
    big_m = validate(spec(1, 1, 0, 0, 1, 2))
    assert big_m.is_malformed and "M" in big_m.reason


def test_validity_enum_values():
    assert validate(spec(0, 0, 0, 0, 0, 0)).validity is Validity.WELL_FORMED


# ---------------------------------------------------------------------------
# cg_alternative
# ---------------------------------------------------------------------------


def test_alternative_reference_values():
    assert cg_alternative(spec(1, 1, 0, 0, 2, 0)) == SQRT(Fraction(2, 3))
    assert to_decimal(cg_alternative(spec(1, 1, 0, 0, 2, 0)), 5) == "0.81650"
    assert cg_alternative(spec(2, 1, 2, 1, 3, 3)) == RadicalSum.one()
    assert cg_alternative(spec(1, 1, 0, 0, 0, 0)) == -SQRT(Fraction(1, 3))
    assert to_decimal(cg_alternative(spec(1, 1, 0, 0, 0, 0)), 5) == "-0.57735"
    # zero by term cancellation, not by an empty summation range
    assert cg_alternative(spec(1, 1, 0, 0, 1, 0)).is_zero


def test_alternative_selection_zero_inputs():
    assert cg_alternative(spec(1, 1, 1, 1, 1, 0)).is_zero
    assert cg_alternative(spec(2, 1, 0, 0, 0, 0)).is_zero
    assert cg_alternative(spec("1/2", 1, "1/2", 0, 1, 1)).is_zero


def test_alternative_malformed_raises():
    with pytest.raises(MalformedCouplingError):
        cg_alternative(spec("1/2", "1/2", 0, "1/2", 1, "1/2"))
    with pytest.raises(MalformedCouplingError):
        cg_alternative(CouplingSpec.of(-1, 0, 0, 0, 1, 0))


def test_alternative_agrees_with_racah_at_j20():
    s = spec(20, 20, 0, 0, 0, 0)
    assert cg_alternative(s) == cg_racah(s)
    assert not cg_alternative(s).is_zero


def _alternative_as_written(s: CouplingSpec) -> tuple[RadicalSum, int]:
    """The closed form as the paper writes it: sum_l (-1)^l sqrt(R_l) over
    the loose range l = 0..j1+j2-J, every R_l from its binomials, added term
    by term.  Also returns how many R_l vanish through a zero binomial."""
    tj1, tj2, tm1, tm2, tJ, tM = (x.twice for x in (s.j1, s.j2, s.m1, s.m2, s.J, s.M))
    m = (tj1 + tj2 - tJ) // 2
    norm = norm_sum(tj1, tj2, m)
    a1 = (tj1 - tm1) // 2
    q2 = (tj2 - tj1 + tJ) // 2
    d = (tJ - tj1 - tm2) // 2
    total, vanished = RadicalSum.zero(), 0
    for l in range(m + 1):
        numer = (
            binomial(tj1 - l, a1 - l)
            * binomial(q2 + l, d + l)
            * binomial(q2 + l, l)
            * binomial(a1, l)
            * binomial((tj2 - tm2) // 2, d + l)
            * binomial(m, l)
        )
        vanished += not numer
        term = RadicalSum.sqrt(
            Fraction(numer, binomial(tj1, l) * binomial(tJ, (tJ - tM) // 2)) / norm
        )
        total = total + (-term if l & 1 else term)
    return total, vanished


def _well_formed_specs(tj1: int, tj2: int):
    for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        for tM in range(-tJ, tJ + 1, 2):
            for tm1 in range(max(-tj1, tM - tj2), min(tj1, tM + tj2) + 1, 2):
                yield _from_twice(tj1, tj2, tm1, tM - tm1, tJ, tM)


def _from_twice(*twice) -> CouplingSpec:
    return CouplingSpec(*(HalfInt.from_twice(t) for t in twice))


def test_alternative_equals_sum_as_written_up_to_2j_10():
    vanishing = 0
    for tj1 in range(11):
        for tj2 in range(11):
            for s in _well_formed_specs(tj1, tj2):
                expected, vanished = _alternative_as_written(s)
                assert cg_alternative(s) == expected, str(s)
                vanishing += vanished > 0
    assert vanishing > 0


def test_alternative_where_the_loose_l_range_has_vanishing_terms():
    # l = 0 and 1 vanish through C(j2-j1+J+l, J-j1-m2+l) with J-j1-m2 = -2
    s = spec(2, 1, 0, 1, 1, 1)
    expected, vanished = _alternative_as_written(s)
    assert vanished == 2
    assert cg_alternative(s) == expected == cg_racah(s) == SQRT(Fraction(1, 10))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 300), st.integers(0, 300), st.data())
def test_alternative_equals_sum_as_written_up_to_2j_300(tj1, tj2, data):
    tJ = data.draw(st.sampled_from(range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)))
    tM = data.draw(st.sampled_from(range(-tJ, tJ + 1, 2)))
    tm1 = data.draw(st.sampled_from(range(max(-tj1, tM - tj2), min(tj1, tM + tj2) + 1, 2)))
    s = _from_twice(tj1, tj2, tm1, tM - tm1, tJ, tM)
    assert cg_alternative(s) == _alternative_as_written(s)[0]


# ---------------------------------------------------------------------------
# cg_racah
# ---------------------------------------------------------------------------


def test_racah_reference_values():
    value = cg_racah(spec(2, 1, -1, 0, 1, -1))
    assert value == -SQRT(Fraction(3, 10))
    assert value.num_terms == 1
    assert to_decimal(value, 5) == "-0.54772"
    assert cg_racah(spec(1, 1, 1, -1, 0, 0)) == SQRT(Fraction(1, 3))
    assert to_decimal(cg_racah(spec(1, 1, 1, -1, 0, 0)), 5) == "0.57735"


def test_racah_singlet_vs_ladder_oracle():
    s = spec("1/2", "1/2", "1/2", "-1/2", 0, 0)
    assert cg_racah(s) == SQRT(Fraction(1, 2))
    assert cg_racah(s) == cg_ladder(s)


def test_racah_malformed_and_zero():
    with pytest.raises(MalformedCouplingError):
        cg_racah(spec("1/2", "1/2", 0, "1/2", 1, "1/2"))
    assert cg_racah(spec(1, 1, 1, 1, 1, 0)).is_zero   # M != m1 + m2
    assert cg_racah(spec(3, 1, 0, 0, 1, 0)).is_zero   # J below |j1 - j2|


def test_racah_single_term_structure():
    for tj1 in range(5):
        for tj2 in range(5):
            s = spec(
                Fraction(tj1, 2), Fraction(tj2, 2),
                Fraction(tj1, 2), Fraction(-tj2, 2),
                Fraction(abs(tj1 - tj2), 2), Fraction(tj1 - tj2, 2),
            )
            assert cg_racah(s).num_terms <= 1


def test_routes_agree_where_j1_plus_j2_plus_J_exceeds_1000():
    # j1 + j2 + J = 1030: a radicand here has prime factors near 1000
    s = spec(260, 260, 3, -3, 510, 0)
    alternative = cg_alternative(s)
    racah = cg_racah(s)
    # |510, 0> at depth m = 10 has m1 = 3 at l + p = 257
    beta = sum(
        (beta_closed_form(260, 260, 10, 510, l, 257 - l) for l in range(11)),
        RadicalSum.zero(),
    )
    assert not alternative.is_zero
    assert alternative == racah == beta
    assert RadicalSum.parse(str(alternative)) == alternative


def test_selection_rule_sweep():
    # every well-formed spec with M != m1 + m2 gives exactly 0 on both routes
    for tm1 in (-2, 0, 2):
        for tm2 in (-2, 0, 2):
            for tM in (-2, 0, 2):
                if tM == tm1 + tm2:
                    continue
                s = spec(1, 1, tm1 // 2, tm2 // 2, 2, tM // 2)
                assert cg_alternative(s).is_zero
                assert cg_racah(s).is_zero


# ---------------------------------------------------------------------------
# 3j conversion and symbol
# ---------------------------------------------------------------------------


def test_cg_to_wigner3j_examples():
    s = spec(1, 1, 1, 1, 2, 2)
    threej, value = cg_to_wigner3j(s, RadicalSum.one())
    assert threej == ThreeJSpec.of(1, 1, 2, 1, 1, -2)
    assert value == SQRT(Fraction(1, 5))
    assert to_decimal(value, 5) == "0.44721"

    identity = spec(0, 0, 0, 0, 0, 0)
    _, one = cg_to_wigner3j(identity, RadicalSum.one())
    assert one == RadicalSum.one()

    _, zero = cg_to_wigner3j(s, RadicalSum.zero())
    assert zero.is_zero


def test_wigner3j_values():
    assert wigner3j(ThreeJSpec.of(1, 1, 2, 1, 1, -2)) == SQRT(Fraction(1, 5))
    value = wigner3j(ThreeJSpec.of(1, 1, 2, 1, -1, 0))
    assert (value * value).as_fraction() == Fraction(1, 30)
    assert wigner3j(ThreeJSpec.of(1, 1, 1, 0, 0, 0)).is_zero
    assert wigner3j(ThreeJSpec.of(0, 0, 0, 0, 0, 0)) == RadicalSum.one()


def test_wigner3j_selection_zeros():
    assert wigner3j(ThreeJSpec.of(1, 1, 2, 1, 1, -1)).is_zero  # m sum nonzero
    assert wigner3j(ThreeJSpec.of(1, 1, 3, 0, 0, 0)).is_zero   # triangle


def test_wigner3j_malformed_columns():
    with pytest.raises(MalformedCouplingError):
        wigner3j(ThreeJSpec.of(1, 1, 2, "1/2", 0, "-1/2"))
    with pytest.raises(MalformedCouplingError):
        wigner3j(ThreeJSpec.of(-1, 1, 2, 0, 0, 0))
    with pytest.raises(MalformedCouplingError):
        wigner3j(ThreeJSpec.of(1, 1, 2, 2, 0, -2))


def test_condon_shortley_small():
    for tj1, tj2 in [(2, 2), (4, 2), (3, 1), (5, 3)]:
        for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
            tm2 = tJ - tj1
            if abs(tm2) > tj2:
                continue
            s = CouplingSpec.of(
                Fraction(tj1, 2), Fraction(tj2, 2),
                Fraction(tj1, 2), Fraction(tm2, 2),
                Fraction(tJ, 2), Fraction(tJ, 2),
            )
            assert cg_alternative(s).sign() == 1
            assert cg_racah(s).sign() == 1


# ---------------------------------------------------------------------------
# Cell walk
# ---------------------------------------------------------------------------


def _well_formed_grid(tj1, tj2):
    """Brute force: every (m1, m2, J, M) over loose ranges, kept when valid."""
    grid = []
    for tJ in range(0, tj1 + tj2 + 2):
        for tM in range(-tJ, tJ + 1, 2):
            for tm1 in range(-tj1, tj1 + 1, 2):
                for tm2 in range(-tj2, tj2 + 1, 2):
                    candidate = CouplingSpec(
                        *(HalfInt.from_twice(t) for t in (tj1, tj2, tm1, tm2, tJ, tM))
                    )
                    if validate(candidate).is_well_formed:
                        grid.append(candidate)
    grid.sort(key=lambda c: (c.J.twice, c.M.twice, c.m1.twice))
    return grid


def test_cell_specs_is_the_well_formed_grid():
    for tj1 in range(7):
        for tj2 in range(7):
            j1, j2 = HalfInt.from_twice(tj1), HalfInt.from_twice(tj2)
            assert list(cell_specs(j1, j2)) == _well_formed_grid(tj1, tj2)
    assert list(cell_specs("3/2", 1)) == list(
        cell_specs(HalfInt.from_twice(3), HalfInt.from_twice(2))
    )
    total = sum(
        1
        for tj1 in range(9)
        for tj2 in range(9)
        for _ in cell_specs(HalfInt.from_twice(tj1), HalfInt.from_twice(tj2))
    )
    assert total == 7809
