"""Tests for the ladder-operator state construction and table builder."""

import dataclasses
import pickle
from fractions import Fraction
from math import comb

import pytest

import cgexact.formulas as formulas
import cgexact.ladder as ladder
import cgexact.verification as verification
from cgexact.cli import parse_table_csv, parse_table_json, records_to_csv, records_to_json
from cgexact.formulas import CouplingSpec, MalformedCouplingError, cg_racah
from cgexact.ladder import (
    CoefficientRecord,
    TableRoute,
    build_full_table,
    cg_ladder,
)
from cgexact.numerics import HalfInt, RadicalSum, _dot, to_decimal
from cgexact.verification import _subspaces
from oracles import (
    beta_closed_form,
    binomial,
    lower_normalized,
    product,
    scaled,
    stretched_multiplet_state,
    summed,
)

SQRT = RadicalSum.sqrt
HALF = Fraction(1, 2)


def components_of(state, tM):
    """The components of the state at doubled M, keyed by doubled
    (m1, m2), with m2 = M - m1."""
    return {(tm1, tM - tm1): value for tm1, value in state.items()}


def top_state(j1, j2, J):
    """The ladder route's |J, J> as the walk reads it: the first state of
    its subspace in `walk_states`, a {doubled m1: value} dict."""
    return walk_states(j1, j2, TableRoute.LADDER_ITERATIVE)[HalfInt(J).twice][0]


def alphas(j1, j2, m: int):
    """alpha_l, l = 0..m: the components of `top_state` at m1 = j1 - l for
    J = j1 + j2 - m, which has no other component."""
    tj1, tj2 = HalfInt(j1).twice, HalfInt(j2).twice
    top = top_state(j1, j2, HalfInt.from_twice(tj1 + tj2 - 2 * m))
    keys = [tj1 - 2 * l for l in range(m + 1)]
    assert sorted(top, reverse=True) == keys
    return [top[key] for key in keys]


def walk_states(j1, j2, route):
    """The states |J, M>, M = J .. -J, of every subspace of the (j1, j2)
    cell as {doubled m1: value} dicts, keyed by doubled J: the walk of
    ``route`` grouped as the ladder check groups it, a (J, M) that the
    walk leaves out an empty state."""
    subspaces = _subspaces(ladder._WALKS[TableRoute(route)](HalfInt(j1).twice, HalfInt(j2).twice))
    return {
        tJ: [states.get(tM, {}) for tM in range(tJ, -tJ - 1, -2)]
        for tJ, states in subspaces.items()
    }


# ---------------------------------------------------------------------------
# Stretched multiplet
# ---------------------------------------------------------------------------


def test_stretched_top_state():
    state = stretched_multiplet_state("1/2", "1/2", 0)
    assert components_of(state, 2) == {(1, 1): RadicalSum.one()}


def test_stretched_one_lowering_half_half():
    state = stretched_multiplet_state("1/2", "1/2", 1)
    assert components_of(state, 0) == {(-1, 1): SQRT(HALF), (1, -1): SQRT(HALF)}


def test_stretched_reference_row():
    state = stretched_multiplet_state(2, 1, 3)
    expected = {
        (-2, 2): SQRT(Fraction(1, 5)),
        (0, 0): SQRT(Fraction(3, 5)),
        (2, -2): SQRT(Fraction(1, 5)),
    }
    assert components_of(state, 0) == expected
    rendered = {key: to_decimal(v, 5) for key, v in components_of(state, 0).items()}
    assert rendered == {(-2, 2): "0.44721", (0, 0): "0.77460", (2, -2): "0.44721"}


def test_stretched_lowering_once_matches_reference():
    state = stretched_multiplet_state(2, 1, 1)
    assert components_of(state, 4) == {
        (4, 0): SQRT(Fraction(1, 3)),
        (2, 2): SQRT(Fraction(2, 3)),
    }


def test_stretched_norm_and_range():
    for n in range(7):
        state = stretched_multiplet_state(2, 1, n)
        assert _dot(state, state) == 1
    with pytest.raises(ValueError):
        stretched_multiplet_state(2, 1, 7)
    with pytest.raises(ValueError):
        stretched_multiplet_state(2, 1, -1)


# ---------------------------------------------------------------------------
# Alpha sequence
# ---------------------------------------------------------------------------


def test_alpha_singlet():
    assert alphas("1/2", "1/2", 1) == [SQRT(HALF), -SQRT(HALF)]


def test_alpha_depth_zero_is_trivial():
    for j1, j2 in [(0, 0), (1, 1), ("3/2", 2), (5, "1/2")]:
        assert alphas(j1, j2, 0) == [RadicalSum.one()]


def test_alpha_reference_values():
    seq = alphas(1, 1, 1)
    assert seq == [SQRT(HALF), -SQRT(HALF)]
    assert [to_decimal(a, 5) for a in seq] == ["0.70711", "-0.70711"]


def test_alpha_invariants_small_sweep():
    for tj1 in range(0, 7):
        for tj2 in range(0, 7):
            for m in range(min(tj1, tj2) + 1):
                seq = alphas(HalfInt.from_twice(tj1), HalfInt.from_twice(tj2), m)
                assert len(seq) == m + 1
                assert seq[0].sign() == 1
                assert summed(product(alpha, alpha) for alpha in seq) == RadicalSum.one()
                # two-term recurrence with exact radical coefficients
                for l in range(1, m + 1):
                    ratio = Fraction(tj2 - m + l, tj1 - l + 1)
                    root = SQRT(
                        Fraction(
                            binomial(tj2, tj2 - m + l) * binomial(tj1, tj1 - l),
                            binomial(tj2, tj2 - m + l - 1)
                            * binomial(tj1, tj1 - l + 1),
                        )
                    )
                    expected = -product(product(seq[l - 1], root), RadicalSum.rational(ratio))
                    assert seq[l] == expected


# ---------------------------------------------------------------------------
# Highest-weight states
# ---------------------------------------------------------------------------


def test_highest_weight_examples():
    assert components_of(top_state(1, 1, 2), 4) == {(2, 2): RadicalSum.one()}
    assert components_of(top_state(1, 1, 1), 2) == {
        (2, 0): SQRT(HALF),
        (0, 2): -SQRT(HALF),
    }
    state = components_of(top_state(2, 1, 2), 4)
    assert state == {
        (4, 0): SQRT(Fraction(2, 3)),
        (2, 2): -SQRT(Fraction(1, 3)),
    }
    rendered = {key: to_decimal(v, 5) for key, v in state.items()}
    assert rendered == {(4, 0): "0.81650", (2, 2): "-0.57735"}


def test_jplus_annihilates_highest_weight():
    for tj1 in range(0, 9):
        for tj2 in range(0, 9):
            for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                state = top_state(
                    HalfInt.from_twice(tj1),
                    HalfInt.from_twice(tj2),
                    HalfInt.from_twice(tJ),
                )
                assert verification._apply_ladder(tj1, tj2, tJ, state, +1) == {}
                assert _dot(state, state) == 1


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def test_lowering_reference_row():
    state = lower_normalized(2, 2, 2, 2, top_state(1, 1, 1))
    assert components_of(state, 0) == {(-2, 2): -SQRT(HALF), (2, -2): SQRT(HALF)}


def test_lowering_matches_ladder_equation():
    tj1, tj2, tJ = 4, 3, 3
    state = top_state(2, "3/2", "3/2")
    for step in range(tJ):
        tM = tJ - 2 * step
        lowered = verification._apply_ladder(tj1, tj2, tM, state, -1)
        next_state = lower_normalized(tj1, tj2, tJ, tM, state)
        scale = SQRT(Fraction(tJ * (tJ + 2) - tM * (tM - 2), 4))
        assert lowered == scaled(next_state, scale)
        state = next_state


def _divided_action_states():
    """Single-class states of both routes as (2j1, 2j2, 2M, state), and
    one state whose components fall in two classes: the m1 = 0 component
    of |2, 0> at (1, 1) times sqrt(2)."""
    states = []
    for j1, j2, J in [(1, 1, 1), (2, "3/2", "3/2"), ("5/2", 1, "5/2")]:
        tj1, tj2, tJ = (HalfInt(j).twice for j in (j1, j2, J))
        for route in (TableRoute.LADDER_ITERATIVE, TableRoute.BETA_CLOSED_FORM):
            chain = walk_states(j1, j2, route)[tJ]
            states.extend((tj1, tj2, tJ - 2 * s, state) for s, state in enumerate(chain))
    middle = dict(walk_states(1, 1, TableRoute.LADDER_ITERATIVE)[4][2])
    assert middle[0] == SQRT(Fraction(2, 3))
    middle[0] = SQRT(Fraction(4, 3))
    states.append((2, 2, 0, middle))
    return states


@pytest.mark.parametrize("divisor", [1, 2, 3, 4, 12])
def test_divided_actions_are_undivided_actions_over_sqrt_divisor(divisor):
    factor = SQRT(Fraction(1, divisor))
    two_class_components = 0
    for tj1, tj2, tM, state in _divided_action_states():
        for direction in (+1, -1):
            undivided = verification._apply_ladder(tj1, tj2, tM, state, direction)
            divided = verification._apply_ladder(tj1, tj2, tM, state, direction, divisor)
            assert divided == scaled(undivided, factor)
            two_class_components += sum(v.num_terms == 2 for v in undivided.values())
    # the two-class state reaches the multi-class path of both actions
    assert two_class_components >= 2


def test_lowering_is_the_divided_jminus():
    for tj1 in range(5):
        for tj2 in range(5):
            j1, j2 = HalfInt.from_twice(tj1), HalfInt.from_twice(tj2)
            chains = walk_states(j1, j2, TableRoute.LADDER_ITERATIVE)
            for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                J = HalfInt.from_twice(tJ)
                for s, state in enumerate(chains[tJ][:-1]):
                    tM = tJ - 2 * s
                    M = HalfInt.from_twice(tM).as_fraction
                    norm_squared = J.as_fraction * (J.as_fraction + 1) - M * (M - 1)
                    assert norm_squared.denominator == 1
                    divisor = norm_squared.numerator
                    assert lower_normalized(tj1, tj2, tJ, tM, state) == verification._apply_ladder(
                        tj1, tj2, tM, state, -1, divisor
                    )


def test_the_integer_chain_is_repeated_normalized_lowering():
    # every subspace of every cell with 2j <= 12, state by state
    states = 0
    for tj1 in range(13):
        for tj2 in range(13):
            j1, j2 = HalfInt.from_twice(tj1), HalfInt.from_twice(tj2)
            chains = walk_states(j1, j2, TableRoute.LADDER_ITERATIVE)
            assert sorted(chains) == list(range(abs(tj1 - tj2), tj1 + tj2 + 1, 2))
            for tJ, chain in chains.items():
                state = top_state(j1, j2, HalfInt.from_twice(tJ))
                assert chain[0] == state
                for s, lowered in enumerate(chain[1:]):
                    state = lower_normalized(tj1, tj2, tJ, tJ - 2 * s, state)
                    assert lowered == state, (tj1, tj2, tJ, tJ - 2 * s - 2)
                states += len(chain)
    assert states == 8281


def test_top_coordinates_are_signed_binomials():
    for j1, j2, J in [(0, 0, 0), ("1/2", "1/2", 0), (3, "5/2", "3/2"), (4, 4, 0)]:
        tj1, tj2 = HalfInt(j1).twice, HalfInt(j2).twice
        m = (tj1 + tj2 - HalfInt(J).twice) // 2
        coordinates, n, d = ladder._top(tj1, tj2, m)
        assert coordinates == [(-1) ** l * comb(m, l) for l in range(m + 1)]
        # sqrt(n / d) normalizes the state
        weights = [comb(tj1, l) * comb(tj2, m - l) for l in range(m + 1)]
        assert sum(Fraction(x * x * n, d * w) for x, w in zip(coordinates, weights)) == 1


@pytest.mark.parametrize("divisor", [0, -1, -4])
def test_ladder_actions_reject_divisor_below_one(divisor):
    state = top_state(1, 1, 1)
    zero = verification._apply_ladder(2, 2, 2, state, +1)
    assert zero == {}
    for direction in (+1, -1):
        for tM, s in ((2, state), (4, zero)):
            with pytest.raises(ValueError, match="divisor"):
                verification._apply_ladder(2, 2, tM, s, direction, divisor)


def test_the_kernel_annihilates_both_walks_tops():
    # the ladder check calls `_apply_ladder` on the walk's plain dicts: on
    # every cell with 2j <= 6, J+ annihilates each route's |J, J>
    states = 0
    for tj1 in range(7):
        for tj2 in range(7):
            for route in (TableRoute.LADDER_ITERATIVE, TableRoute.CLOSED_FORM):
                for tJ, subspace in _subspaces(ladder._WALKS[route](tj1, tj2)).items():
                    assert verification._apply_ladder(tj1, tj2, tJ, subspace[tJ], +1) == {}
                    states += len(subspace)
    assert states == 2 * 28 * 28
    with pytest.raises(ValueError, match="divisor 0 of a ladder action must be at least 1"):
        verification._apply_ladder(2, 2, 2, {2: RadicalSum.one()}, +1, 0)


def test_lowering_below_bottom_rejected():
    state = top_state(1, 1, 1)
    state = lower_normalized(2, 2, 2, 2, state)
    state = lower_normalized(2, 2, 2, 0, state)
    with pytest.raises(ValueError):
        lower_normalized(2, 2, 2, -2, state)


@pytest.mark.parametrize("J", [1, "1/2", "3/2", 0, -2])
def test_lowering_rejects_M_that_is_no_projection_of_J(J):
    # |M| > J or J + M not an integer: the norm J(J+1) - M(M-1) of the
    # lowered state would be 0, negative or not that of a state of J
    state = top_state(1, 1, 2)
    with pytest.raises(ValueError, match="is not a projection of J") as excinfo:
        lower_normalized(2, 2, HalfInt(J).twice, 4, state)
    assert type(excinfo.value) is ValueError


# ---------------------------------------------------------------------------
# Beta closed form
# ---------------------------------------------------------------------------


def test_beta_reduces_to_stretched_coefficients():
    for tj1, tj2 in [(4, 2), (3, 3), (2, 5)]:
        j1, j2 = HalfInt.from_twice(tj1), HalfInt.from_twice(tj2)
        for n in range(tj1 + tj2 + 1):
            for k in range(n + 1):
                numer = binomial(tj1, k) * binomial(tj2, n - k)
                expected = SQRT(Fraction(numer, binomial(tj1 + tj2, n)))
                assert beta_closed_form(j1, j2, 0, n, 0, k) == expected


def test_beta_state_matches_lowering_oracle():
    chain = lower_normalized(2, 2, 2, 2, top_state(1, 1, 1))
    weights = {}
    for l in range(2):
        for p in range(2):
            key = (2 - 2 * (l + p), 2 - 2 * (1 - l + 1 - p))
            weights.setdefault(key, []).append(beta_closed_form(1, 1, 1, 1, l, p))
    beta_components = {k: v for k, w in weights.items() if not (v := summed(w)).is_zero}
    assert beta_components == components_of(chain, 0)


def test_beta_matches_reference_table_rows():
    # (j1=2, j2=1), J=2, M=0: reference values -0.70711 and 0.70711 with a
    # vanishing (0, 0) component produced by cancellation across l
    weights = {}
    for l in range(2):
        for p in range(3):
            key = (4 - 2 * (l + p), 2 - 2 * (1 - l + 2 - p))
            weights.setdefault(key, []).append(beta_closed_form(2, 1, 1, 2, l, p))
    state_components = {k: v for k, w in weights.items() if not (v := summed(w)).is_zero}
    assert state_components == {(-2, 2): -SQRT(HALF), (2, -2): SQRT(HALF)}


def test_beta_state_equals_sum_of_closed_form_weights():
    # every (m, s) with 2j <= 8, against beta_closed_form weight by weight
    for tj1 in range(9):
        for tj2 in range(9):
            j1, j2 = HalfInt.from_twice(tj1), HalfInt.from_twice(tj2)
            closed = walk_states(j1, j2, TableRoute.CLOSED_FORM)
            for m in range(min(tj1, tj2) + 1):
                for s in range(tj1 + tj2 - 2 * m + 1):
                    weights = {}
                    for l in range(m + 1):
                        for p in range(s + 1):
                            key = (tj1 - 2 * (l + p), tj2 - 2 * (m - l + s - p))
                            weights.setdefault(key, []).append(
                                beta_closed_form(j1, j2, m, s, l, p)
                            )
                    expected = {
                        k: v for k, w in weights.items() if not (v := summed(w)).is_zero
                    }
                    tJ = tj1 + tj2 - 2 * m
                    assert components_of(closed[tJ][s], tJ - 2 * s) == expected


def test_beta_out_of_range_indices_are_zero():
    assert beta_closed_form(1, 1, 1, 1, 5, 0).is_zero
    assert beta_closed_form(1, 1, 1, 1, 0, 9).is_zero
    assert beta_closed_form(1, 1, 1, 9, 0, 0).is_zero
    with pytest.raises(ValueError):
        beta_closed_form(1, 1, 7, 0, 0, 0)


# ---------------------------------------------------------------------------
# cg_ladder
# ---------------------------------------------------------------------------


def test_cg_ladder_reference_and_errors():
    assert cg_ladder(CouplingSpec.of(2, 1, 0, 0, 3, 0)) == SQRT(Fraction(3, 5))
    assert cg_ladder(CouplingSpec.of(1, 1, 1, 1, 1, 0)).is_zero
    with pytest.raises(MalformedCouplingError):
        cg_ladder(CouplingSpec.of("1/2", "1/2", 0, "1/2", 1, "1/2"))


def test_cg_ladder_matches_racah_small_sweep():
    for tj1, tj2 in [(1, 1), (2, 1), (3, 2), (2, 2)]:
        j1, j2 = HalfInt.from_twice(tj1), HalfInt.from_twice(tj2)
        for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
            for tM in range(-tJ, tJ + 1, 2):
                for tm1 in range(max(-tj1, tM - tj2), min(tj1, tM + tj2) + 1, 2):
                    spec = CouplingSpec(
                        j1, j2,
                        HalfInt.from_twice(tm1), HalfInt.from_twice(tM - tm1),
                        HalfInt.from_twice(tJ), HalfInt.from_twice(tM),
                    )
                    assert cg_ladder(spec) == cg_racah(spec)


# ---------------------------------------------------------------------------
# Full tables
# ---------------------------------------------------------------------------


def test_table_sizes_and_sorting():
    records = build_full_table(2, 1, TableRoute.CLOSED_FORM)
    assert len(records) == 36
    keys = [(r.J.twice, r.M.twice, r.m1.twice) for r in records]
    assert keys == sorted(keys)
    assert len(build_full_table(1, 1, TableRoute.CLOSED_FORM)) == 18
    # every route's walk yields its keys in strictly increasing order
    for route in TableRoute:
        for tj1 in range(11):
            for tj2 in range(11):
                keys = [key for key, _ in ladder._WALKS[route](tj1, tj2)]
                assert all(a < b for a, b in zip(keys, keys[1:])), (route, tj1, tj2)


def test_table_route_equivalence_small():
    for tj1 in range(0, 7):
        for tj2 in range(0, 7):
            j1, j2 = HalfInt.from_twice(tj1), HalfInt.from_twice(tj2)
            reference = build_full_table(j1, j2, TableRoute.CLOSED_FORM)
            for route in (
                TableRoute.LADDER_ITERATIVE,
                TableRoute.BETA_CLOSED_FORM,
                TableRoute.RACAH,
            ):
                assert build_full_table(j1, j2, route) == reference


def test_closed_form_table_equals_per_spec_coefficients():
    # the table walk folds the shared factor once per state, and
    # cg_alternative once per spec: both must give every value alike
    for tj1 in range(9):
        for tj2 in range(9):
            j1, j2 = HalfInt.from_twice(tj1), HalfInt.from_twice(tj2)
            expected = [
                CoefficientRecord(spec.J, spec.M, spec.m1, spec.m2, value)
                for spec in formulas.cell_specs(j1, j2)
                if not (value := formulas.cg_alternative(spec)).is_zero
            ]
            assert build_full_table(j1, j2, TableRoute.CLOSED_FORM) == expected


def test_table_identity_for_trivial_second_factor():
    for j1 in [0, "1/2", 1, "3/2", 2]:
        records = build_full_table(j1, 0, TableRoute.LADDER_ITERATIVE)
        j1_half = HalfInt(j1)
        assert len(records) == j1_half.twice + 1
        for r in records:
            assert r.J == j1_half
            assert r.m2 == HalfInt(0)
            assert r.M == r.m1
            assert r.exact == RadicalSum.one()


def test_table_zero_dimensional_cell():
    records = build_full_table(0, 0, TableRoute.BETA_CLOSED_FORM)
    assert len(records) == 1
    record = records[0]
    assert (record.J, record.M, record.m1, record.m2) == (
        HalfInt(0), HalfInt(0), HalfInt(0), HalfInt(0)
    )
    assert record.exact == RadicalSum.one()
    assert record.exact_text == "1"
    assert record.value_text == "1.00000"


def test_record_value_text_is_five_place_rendering():
    for record in build_full_table("3/2", 1, TableRoute.CLOSED_FORM):
        assert record.value_text == to_decimal(record.exact, 5)
        assert len(record.value_text.split(".")[1]) == 5


def test_records_are_frozen_and_slotted():
    # the table builders set each record's slots in their row loops, through
    # `ladder._new_record` and the `_set_*` descriptors, not the public
    # constructor: each must be the record that constructor makes
    built = build_full_table("3/2", 1, TableRoute.RACAH)
    parsed = parse_table_csv(records_to_csv(built)) + parse_table_json(records_to_json(built))
    for record in built + parsed:
        fields = (record.J, record.M, record.m1, record.m2, record.exact)
        public = CoefficientRecord(*fields)
        assert type(record) is CoefficientRecord
        assert record == public and hash(record) == hash(public)
        assert dataclasses.astuple(record) == fields
        for name in ("J", "M", "m1", "m2", "exact"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, getattr(record, name))
        assert not hasattr(record, "__dict__")
    assert CoefficientRecord.__slots__ == ("J", "M", "m1", "m2", "exact")


def test_records_replace_pickle_compare_and_hash_by_value():
    records = build_full_table(1, "1/2", TableRoute.RACAH)
    record = records[0]
    flipped = dataclasses.replace(record, exact=-record.exact)
    assert type(flipped) is CoefficientRecord
    assert (flipped.J, flipped.M, flipped.m1, flipped.m2) == (
        record.J, record.M, record.m1, record.m2
    )
    assert flipped.exact == -record.exact
    assert flipped != record
    # protocols 0 and 1 cannot pickle the slotted HalfInt and RadicalSum
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(records, protocol)) == records
    # equal fields, built apart, give an equal record with the hash of
    # its fields' tuple
    copy = CoefficientRecord(
        *(HalfInt(str(number)) for number in (record.J, record.M, record.m1, record.m2)),
        RadicalSum.parse(str(record.exact)),
    )
    assert copy == record and copy is not record
    assert hash(copy) == hash(record) == hash(
        (record.J, record.M, record.m1, record.m2, record.exact)
    )
    assert len({*records, copy}) == len(records)
    assert record != (record.J, record.M, record.m1, record.m2, record.exact)
    assert record.__eq__(record.exact) is NotImplemented
    # a change to any one field, quantum number or value, is a different row
    changed = {
        **{
            name: HalfInt.from_twice(getattr(record, name).twice + 2)
            for name in ("J", "M", "m1", "m2")
        },
        "exact": -record.exact,
    }
    for name, value in changed.items():
        other = dataclasses.replace(record, **{name: value})
        assert other != record and record != other, name
        assert not other == record, name


def test_single_m_support_everywhere():
    for route in (TableRoute.LADDER_ITERATIVE, TableRoute.BETA_CLOSED_FORM):
        for record in build_full_table("5/2", "3/2", route):
            assert record.M == record.m1 + record.m2


def test_table_route_is_coerced_and_checked(monkeypatch):
    def no_racah(spec):
        raise AssertionError("the closed-form route must not call cg_racah")

    monkeypatch.setattr(formulas, "cg_racah", no_racah)
    assert build_full_table(1, 1, "closed-form") == build_full_table(
        1, 1, TableRoute.CLOSED_FORM
    )
    with pytest.raises(ValueError):
        build_full_table(1, 1, "nonsense")


@pytest.mark.parametrize("route", list(TableRoute))
@pytest.mark.parametrize("j1, j2", [(-1, 1), (1, "-1/2")])
def test_build_full_table_rejects_a_negative_j(route, j1, j2):
    # the CLI rejects a negative j before it builds a table
    with pytest.raises(ValueError, match="^j1 and j2 must be nonnegative$"):
        build_full_table(j1, j2, route)


def test_subspace_states_by_both_routes():
    for j1, j2, J in [(0, 0, 0), ("1/2", "1/2", 0), (2, 1, 2), ("5/2", "3/2", 3)]:
        tj1, tj2, tJ = (HalfInt(j).twice for j in (j1, j2, J))
        chain = walk_states(j1, j2, TableRoute.LADDER_ITERATIVE)[tJ]
        closed = walk_states(j1, j2, TableRoute.CLOSED_FORM)[tJ]
        beta = walk_states(j1, j2, "beta")[tJ]
        assert len(chain) == tJ + 1
        assert chain[0] == top_state(j1, j2, J)
        # the walk holds a nonzero state at each M = J .. -J
        subspace = _subspaces(ladder._ladder_walk(tj1, tj2))[tJ]
        assert sorted(subspace) == list(range(-tJ, tJ + 1, 2))
        assert all(chain)
        assert closed == beta == chain
