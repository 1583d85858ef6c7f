"""Tests for the closed-form coefficient routes and the 3j conversion."""

import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgexact import formulas, numerics
from cgexact.formulas import (
    CouplingSpec,
    MalformedCouplingError,
    ThreeJSpec,
    _cell_keys,
    _closed_form_walk,
    _is_selection_zero,
    _key_spec,
    _racah_subspace,
    _racah_sum,
    _shared_factor,
    _wigner3j,
    cell_specs,
    cg_alternative,
    cg_racah,
    wigner3j,
)
from cgexact.ladder import cg_ladder
from cgexact.numerics import HalfInt, RadicalSum, _times_radical, to_decimal
from oracles import (
    beta_closed_form,
    binomial,
    from_merged,
    merged_terms,
    norm_sum,
    racah_as_written,
    summed,
)


def spec(j1, j2, m1, m2, J, M) -> CouplingSpec:
    return CouplingSpec.of(j1, j2, m1, m2, J, M)


SQRT = RadicalSum.sqrt


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_validate_well_formed():
    assert _is_selection_zero(spec(2, 1, 0, 0, 3, 0)) is False
    assert _is_selection_zero(spec(0, 0, 0, 0, 0, 0)) is False


def test_validate_selection_zero_specs():
    assert _is_selection_zero(spec(1, 1, 1, 1, 1, 0)) is True   # M != m1 + m2
    assert _is_selection_zero(spec(2, 1, 0, 0, 0, 0)) is True   # triangle rule
    assert _is_selection_zero(spec(1, 1, 0, 0, 3, 0)) is True   # J above j1 + j2


def test_validate_integer_total_rule():
    # j1=1/2, j2=1, J=1: j1+j2+J = 5/2 not an integer, but every (j, m)
    # pair is individually consistent, so this is selection-zero
    assert _is_selection_zero(spec("1/2", 1, "1/2", 0, 1, 1)) is True


def test_validate_malformed_cases():
    # each reason, in the text the CLI prints after "error: "
    cases = [
        (("1/2", "1/2", 0, "1/2", 1, "1/2"),
         "parity of m1 inconsistent with j1 (j1+m1 not an integer)"),
        ((1, "1/2", 1, 0, "1/2", 1), "parity of m2 inconsistent with j2 (j2+m2 not an integer)"),
        ((1, 1, 0, 0, 1, "1/2"), "parity of M inconsistent with J (J+M not an integer)"),
        ((-1, 1, 0, 0, 1, 0), "j1 is negative"),
        ((1, -1, 0, 0, 1, 0), "j2 is negative"),
        ((1, 1, 0, 0, -1, 0), "J is negative"),
        ((1, 1, 2, 0, 2, 2), "|m1| exceeds j1"),
        ((1, 1, 0, 2, 2, 2), "|m2| exceeds j2"),
        ((1, 1, 0, 0, 1, 2), "|M| exceeds J"),
    ]
    for args, reason in cases:
        s = CouplingSpec.of(*args)
        with pytest.raises(MalformedCouplingError) as excinfo:
            _is_selection_zero(s)
        assert str(excinfo.value) == f"{s}: {reason}"


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


def test_shared_factor_norm_sum_is_the_sum_as_written_up_to_2j_40():
    # at s = 0 the factor is 1 / norm sum, the Vandermonde ratio
    # C(2j1, m) / C(2J+m+1, m), against the sum term by term
    count = 0
    for tj1 in range(41):
        for tj2 in range(41):
            for m in range(min(tj1, tj2) + 1):
                num, den = _shared_factor(tj1, tj2, m, 0)
                assert Fraction(den, num) == norm_sum(tj1, tj2, m), (tj1, tj2, m)
                count += 1
    assert count == 23821


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
    pairs, vanished = [], 0
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
        if numer:
            square = Fraction(numer, binomial(tj1, l) * binomial(tJ, (tJ - tM) // 2)) / norm
            pairs.append((-1 if l & 1 else 1, square))
    return from_merged(merged_terms(pairs)), vanished


def _well_formed_specs(tj1: int, tj2: int):
    for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        for tM in range(-tJ, tJ + 1, 2):
            for tm1 in range(max(-tj1, tM - tj2), min(tj1, tM + tj2) + 1, 2):
                yield _from_twice(tj1, tj2, tm1, tM - tm1, tJ, tM)


def _from_twice(*twice) -> CouplingSpec:
    return CouplingSpec(*(HalfInt.from_twice(t) for t in twice))


def _drawn_spec(tj1: int, tj2: int, data) -> CouplingSpec:
    """A well-formed spec of the (2j1, 2j2) cell drawn by Hypothesis."""
    tJ = data.draw(st.sampled_from(range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)))
    tM = data.draw(st.sampled_from(range(-tJ, tJ + 1, 2)))
    tm1 = data.draw(st.sampled_from(range(max(-tj1, tM - tj2), min(tj1, tM + tj2) + 1, 2)))
    return _from_twice(tj1, tj2, tm1, tM - tm1, tJ, tM)


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


def test_closed_form_kernel_builds_only_the_binomials_that_are_not_1(monkeypatch):
    # K = max(0, k - s): with k <= s the kernel builds T_0 and U from three
    # binomials, with k > s from five; the two that are C(x, 0) at K >= 1
    # and the four at K = 0 are not built
    calls = []

    def counting(n, r):
        calls.append((n, r))
        return comb(n, r)

    monkeypatch.setattr(formulas, "comb", counting)
    regions = {True: 0, False: 0}
    for tj1 in range(9):
        for tj2 in range(9):
            for tJ, tM, tm1 in _cell_keys(tj1, tj2):
                m, s, k = (tj1 + tj2 - tJ) // 2, (tJ - tM) // 2, (tj1 - tm1) // 2
                shared = _shared_factor(tj1, tj2, m, s)
                calls.clear()
                formulas._closed_form_component(tj1, tj2, m, s, k, shared)
                assert len(calls) == (3 if k <= s else 5), (tj1, tj2, tJ, tM, tm1)
                regions[k <= s] += 1
    assert regions[True] + regions[False] == 7809 and all(regions.values())


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 300), st.integers(0, 300), st.data())
def test_alternative_equals_sum_as_written_up_to_2j_300(tj1, tj2, data):
    s = _drawn_spec(tj1, tj2, data)
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
    beta = summed(beta_closed_form(260, 260, 10, 510, l, 257 - l) for l in range(11))
    assert not alternative.is_zero
    assert alternative == racah == beta
    assert RadicalSum.parse(str(alternative)) == alternative


def test_racah_equals_the_formula_as_written_up_to_2j_8():
    for tj1 in range(9):
        for tj2 in range(9):
            for s in cell_specs(HalfInt.from_twice(tj1), HalfInt.from_twice(tj2)):
                assert cg_racah(s) == racah_as_written(s), str(s)


# 2j up to 800; the first four have j1 + j2 + J above 1000
_LARGE_SPECS = [
    (400, 400, 0, 0, 800, 0),
    (400, 400, 0, 0, 400, 0),
    (400, 400, 400, -1, 799, 399),
    (260, 260, 3, -3, 510, 0),
    ("205/2", "337/2", "-89/2", "-311/2", 265, -200),
    (257, 279, 191, -218, 140, -27),
    ("57/2", 316, "15/2", -50, "609/2", "-85/2"),
    (95, "749/2", -83, "371/2", "835/2", "205/2"),
    ("245/2", "129/2", "-95/2", "-39/2", 86, -67),
    ("227/2", "621/2", "221/2", "-565/2", 389, -172),
    (280, "513/2", 68, "-263/2", "175/2", "-127/2"),
    ("703/2", 248, "-97/2", -36, "207/2", "-169/2"),
    (52, "705/2", 28, "-515/2", "643/2", "-459/2"),
    (298, "43/2", -277, "-7/2", "625/2", "-561/2"),
    (280, "729/2", -181, "259/2", "403/2", "-103/2"),
    (289, "59/2", 209, "-7/2", "529/2", "411/2"),
    ("233/2", 383, "29/2", 100, "775/2", "229/2"),
    ("441/2", "531/2", "67/2", "-329/2", 146, -131),
    ("585/2", "693/2", "-541/2", "429/2", 258, -56),
    (68, 268, 35, -109, 230, -74),
    ("205/2", 19, "31/2", -4, "167/2", "23/2"),
]


@pytest.mark.parametrize("args", _LARGE_SPECS)
def test_racah_equals_the_formula_as_written_up_to_2j_800(args):
    s = spec(*args)
    assert not _is_selection_zero(s)
    value = cg_racah(s)
    assert value == racah_as_written(s)
    assert value.num_terms == 1


@pytest.mark.parametrize("args", _LARGE_SPECS)
def test_closed_form_equals_racah_as_written_at_the_large_corners(args):
    # four of these specs have j1 + j2 + J above 1000
    s = spec(*args)
    value = cg_alternative(s)
    assert value == racah_as_written(s)
    assert value.num_terms == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 800), st.integers(0, 800), st.data())
def test_racah_equals_the_formula_as_written_up_to_2j_800_drawn(tj1, tj2, data):
    s = _drawn_spec(tj1, tj2, data)
    assert cg_racah(s) == racah_as_written(s)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 120), st.integers(0, 120), st.data())
def test_ladder_racah_and_closed_form_agree_up_to_2j_120_drawn(tj1, tj2, data):
    s = _drawn_spec(tj1, tj2, data)
    assert cg_ladder(s) == cg_racah(s) == cg_alternative(s)


def test_racah_sum_that_cancels_to_zero_at_large_j():
    # <j1 0 j2 0 | J 0> = 0 for odd j1 + j2 + J: well-formed and allowed by
    # the selection rules, so the zero comes from the sum itself
    s = spec(400, 300, 0, 0, 101, 0)
    assert not _is_selection_zero(s)
    for value in (cg_racah(s), cg_alternative(s), racah_as_written(s)):
        assert value.is_zero


def test_racah_walk_builds_a_value_only_for_a_nonzero_sum(monkeypatch):
    built = []

    def counting(x, n, d):
        built.append(x)
        return _times_radical(x, n, d)

    monkeypatch.setattr(formulas, "_times_radical", counting)
    keys = values = 0
    for tj1 in range(9):
        for tj2 in range(9):
            keys += sum(1 for _ in _cell_keys(tj1, tj2))
            values += sum(1 for _ in formulas._racah_walk(tj1, tj2))
    assert len(built) == values and all(built)
    assert (keys, keys - values) == (7809, 160)


def test_racah_kernel_builds_the_binomials_of_j_once_per_subspace(monkeypatch):
    # `_racah_subspace` builds C(2j1, g1), C(2j2, g1) and C(j1+j2+J+1, g1)
    # once per J; a key builds C(2j1, j1-m1), C(2j2, j2+m2), C(2J, J+M) and
    # its first term, whose C(g1, z_lo) = 1 is not built at z_lo = 0
    calls = []

    def counting(n, r):
        calls.append((n, r))
        return comb(n, r)

    monkeypatch.setattr(formulas, "comb", counting)
    regions = {True: 0, False: 0}
    for tj1 in range(9):
        for tj2 in range(9):
            expected = 0
            for tJ, keys in itertools.groupby(_cell_keys(tj1, tj2), lambda key: key[0]):
                calls.clear()
                subspace = _racah_subspace(tj1, tj2, tJ)
                assert len(calls) == 3, (tj1, tj2, tJ)
                expected += 3
                for _, tM, tm1 in keys:
                    z_lo = max(0, (tj2 - tJ - tm1) // 2, (tj1 + tM - tm1 - tJ) // 2)
                    calls.clear()
                    _racah_sum(subspace, tM, tm1)
                    assert len(calls) == (5 if z_lo == 0 else 6), (tj1, tj2, tJ, tM, tm1)
                    expected += len(calls)
                    regions[z_lo == 0] += 1
            calls.clear()
            for _ in formulas._racah_walk(tj1, tj2):
                pass
            assert len(calls) == expected, (tj1, tj2)
    assert regions[True] + regions[False] == 7809 and all(regions.values())


def test_route_one_and_racah_end_in_the_same_integer_sum_over_one_radical(monkeypatch):
    """Route 1's integer sum S1 = sum_l (-1)^l T_l and Racah's S3 =
    sum_z (-1)^z t_z have different summands, yet the (S, n, d) that each
    kernel hands to `_times_radical` agree: S1 == S3 and n1/d1 == n3/d3 as
    rationals, on every component with 2j1, 2j2 <= 10, zeros included."""
    recorded = []
    original = numerics._times_radical

    def recording(x, n, d):
        recorded.append((x, Fraction(n, d)))
        return original(x, n, d)

    # route 1 reaches it through `sum_signed_sqrts`, Racah from `formulas`
    monkeypatch.setattr(numerics, "_times_radical", recording)
    monkeypatch.setattr(formulas, "_times_radical", recording)
    components = zeros = 0
    for tj1 in range(11):
        for tj2 in range(11):
            for key in _cell_keys(tj1, tj2):
                recorded.clear()
                closed = cg_alternative(_key_spec(tj1, tj2, key))
                racah = cg_racah(_key_spec(tj1, tj2, key))
                (s1, r1), (s3, r3) = recorded
                assert (s1, r1) == (s3, r3), (tj1, tj2, key)
                assert closed == racah and racah.is_zero == (s1 == 0), (tj1, tj2, key)
                components += 1
                zeros += not s1
    assert (components, zeros) == (20240, 381)


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


def test_wigner3j_values():
    assert wigner3j(ThreeJSpec.of(1, 1, 2, 1, 1, -2)) == SQRT(Fraction(1, 5))
    assert to_decimal(wigner3j(ThreeJSpec.of(1, 1, 2, 1, 1, -2)), 5) == "0.44721"
    assert wigner3j(ThreeJSpec.of(1, 1, 2, 1, -1, 0)) == SQRT(Fraction(1, 30))
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
                    if not _is_selection_zero(candidate):
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


def test_cell_specs_rejects_a_negative_j():
    # as build_full_table does, rather than walk an empty cell
    for j1, j2 in ((-1, 2), (2, "-1/2")):
        with pytest.raises(ValueError, match="nonnegative"):
            cell_specs(j1, j2)


# ---------------------------------------------------------------------------
# Public entry points against the doubled-integer kernels
# ---------------------------------------------------------------------------


def test_public_routes_equal_the_kernels_over_every_cell_up_to_2j_6():
    """The sweeps read the table walk, whose closed form calls the kernel
    per component, and Racah's integers; the public functions must give the
    same value for every spec, zeros included."""
    zero = RadicalSum.zero()
    for tj1 in range(7):
        for tj2 in range(7):
            j1, j2 = HalfInt.from_twice(tj1), HalfInt.from_twice(tj2)
            closed = dict(_closed_form_walk(tj1, tj2))
            for s in cell_specs(j1, j2):
                key = (s.J.twice, s.M.twice, s.m1.twice)
                assert cg_alternative(s) == closed.get(key, zero), s
                racah = _racah_sum(_racah_subspace(tj1, tj2, key[0]), *key[1:])
                assert cg_racah(s) == _times_radical(*racah), s


def test_wigner3j_equals_the_kernel_for_every_symbol_up_to_2j_4():
    count = 0
    for a in range(5):
        for b in range(a, 5):
            for c in range(b + (a & 1), min(a + b, 4) + 1, 2):
                for ja, jb, jc in set(itertools.permutations((a, b, c))):
                    for ma in range(-ja, ja + 1, 2):
                        for mb in range(-jb, jb + 1, 2):
                            mc = -ma - mb
                            if abs(mc) > jc:
                                continue
                            count += 1
                            h = [HalfInt.from_twice(t) for t in (ja, jb, jc, ma, mb, mc)]
                            value = wigner3j(ThreeJSpec(*h))
                            assert value == _wigner3j(_racah_subspace(ja, jb, jc), ma, mb)
    assert count == 303


@pytest.mark.parametrize(
    "columns",
    [
        (1, 1, 2, "1/2", 0, "-1/2"),   # m parity
        (-1, 1, 2, 0, 0, 0),           # negative j
        (1, 1, 2, 2, 0, -2),           # |m| > j
        (1, 1, 2, 0, 0, 3),            # |m3| > j3
        ("1/2", 1, 1, 0, 0, 0),        # m1 parity against j1
    ],
)
def test_malformed_specs_raise_from_racah_and_wigner3j(columns):
    j1, j2, j3, m1, m2, m3 = columns
    with pytest.raises(MalformedCouplingError):
        wigner3j(ThreeJSpec.of(j1, j2, j3, m1, m2, m3))
    with pytest.raises(MalformedCouplingError):
        cg_racah(CouplingSpec.of(j1, j2, m1, m2, j3, -HalfInt(m3)))
