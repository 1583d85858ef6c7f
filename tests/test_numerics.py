"""Tests for the exact arithmetic foundation."""

import decimal
import operator
import random
import threading
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cgexact.numerics as numerics
from cgexact.formulas import _cell_keys, _racah, _wigner3j
from cgexact.numerics import (
    HalfInt,
    NegativeRadicandError,
    RadicalSum,
    _dot,
    _irrational_decimal,
    sum_radicals,
    sum_signed_sqrts,
    to_decimal,
)
from oracles import binomial, merged_terms

# ---------------------------------------------------------------------------
# HalfInt
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, twice",
    [
        ("2", 4), ("3/2", 3), ("1.5", 3), ("-1/2", -1), ("0", 0), ("-3", -6),
        ("4/2", 4), ("-0", 0), ("03", 6), ("+3", 6), (" 3/2 ", 3), ("6/4", 3),
        ("-5/2", -5),
    ],
)
def test_halfint_parse_forms(text, twice):
    assert HalfInt(text).twice == twice


def test_halfint_reads_back_its_own_text():
    # every doubled value a coefficient can take, 2j up to 800
    for twice in range(-801, 802):
        assert HalfInt(str(HalfInt.from_twice(twice))).twice == twice


def test_halfint_coercions():
    assert HalfInt(2).twice == 4
    assert HalfInt(Fraction(3, 2)).twice == 3
    assert HalfInt(1.5).twice == 3
    assert HalfInt(HalfInt("1/2")).twice == 1
    assert HalfInt.from_twice(5) == HalfInt("5/2")


@pytest.mark.parametrize(
    "bad", ["1.25", "abc", "", "1/3", Fraction(2, 3), 0.3, "3/4", "--1"]
)
def test_halfint_rejects_non_halfintegers(bad):
    with pytest.raises(ValueError):
        HalfInt(bad)


def test_halfint_integrality_and_str():
    assert HalfInt(2).is_integer
    assert not HalfInt("3/2").is_integer
    assert str(HalfInt("3/2")) == "3/2"
    assert str(HalfInt(-2)) == "-2"
    assert str(HalfInt("-1/2")) == "-1/2"
    assert HalfInt("3/2").as_fraction == Fraction(3, 2)


@given(st.integers(-200, 200), st.integers(-200, 200))
def test_halfint_sum_difference_exact(ta, tb):
    a, b = HalfInt.from_twice(ta), HalfInt.from_twice(tb)
    assert ((a + b) - b) == a
    assert (a - a).twice == 0
    assert (-a).twice == -ta
    assert abs(a).twice == abs(ta)
    assert (a < b) == (ta < tb)


def test_halfint_orders_only_what_it_equals():
    half = HalfInt("1/2")
    # == rejects Fraction (the hashes differ), so ordering must reject it too
    assert half != Fraction(1, 2)
    for other in (Fraction(1, 2), "3/2", 0.75):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(half, other)
            with pytest.raises(TypeError):
                compare(other, half)
    assert half < 1 and half <= HalfInt("1/2") and half >= 0 and half > -1
    assert 0 < half and 1 > half and not half < half and half >= half


@given(st.integers(-10**30, 10**30))
def test_halfint_hash_agrees_with_equality(twice):
    value = HalfInt.from_twice(twice)
    assert value in {HalfInt.from_twice(twice)}
    if twice % 2 == 0:
        assert value == twice // 2
        assert hash(value) == hash(twice // 2)
        assert twice // 2 in {value} and value in {twice // 2}


# ---------------------------------------------------------------------------
# binomial (the oracles' generalized-zero binomial)
# ---------------------------------------------------------------------------


def _pascal_rows(n_max):
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        rows.append(
            [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
        )
    return rows


def test_binomial_examples():
    assert binomial(4, 2) == 6
    assert binomial(4, 5) == 0
    assert binomial(4, -1) == 0
    assert binomial(0, 0) == 1
    # brute-force Pascal triangle oracle
    rows = _pascal_rows(40)
    assert rows[40][20] == 137846528820
    assert binomial(40, 20) == 137846528820


def test_binomial_pascal_identity_up_to_100():
    rows = _pascal_rows(100)
    for n in range(101):
        for k in range(n + 1):
            assert binomial(n, k) == rows[n][k]
            if 0 < k:
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_binomial_negative_n_rejected():
    with pytest.raises(ValueError):
        binomial(-1, 0)


# ---------------------------------------------------------------------------
# Square roots: RadicalSum.sqrt
# ---------------------------------------------------------------------------

SQRT = RadicalSum.sqrt


def test_radicalsum_sqrt_examples():
    assert SQRT(Fraction(4, 9)) == RadicalSum.rational(Fraction(2, 3))
    assert list(SQRT(Fraction(8, 9)).terms()) == [(1, Fraction(8, 9))]
    # 2 sqrt(2) / 3, as two terms of one class
    assert SQRT(Fraction(8, 9)) == sum_radicals([(1, 2, 9), (1, 2, 9)])
    # sqrt(15) / 5, from unreduced text
    assert SQRT(Fraction(3, 5)) == RadicalSum.parse("sqrt(15/25)")
    assert SQRT(0).is_zero
    # 8/18 reduces to 4/9, so its square root is exactly 2/3
    assert SQRT(Fraction(8, 18)).is_rational
    assert SQRT(Fraction(8, 18)).as_fraction() == Fraction(2, 3)


def test_radicalsum_sqrt_negative_rejected():
    with pytest.raises(NegativeRadicandError):
        SQRT(Fraction(-1, 4))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 10**6), st.integers(1, 50))
def test_radicalsum_sqrt_roundtrip(num, den, k):
    r = Fraction(num, den)
    x = SQRT(r)
    assert x.sign() >= 0
    assert list(x.terms()) == ([(1, r)] if r else [])
    # sqrt(k**2 * r) == k * sqrt(r), as k terms of one class: equal values
    # have equal terms
    if r:
        assert SQRT(r * k * k) == sum_radicals([(1, r.numerator, r.denominator)] * k)
    assert RadicalSum.parse(str(x)) == x


def test_radicalsum_sqrt_large_prime_residuals():
    # radicands with large prime factors need no factoring bound
    p, q = 1009, 1013
    mersenne = 2**127 - 1
    # p sqrt(p) - sqrt(p) = (p - 1) sqrt(p)
    assert sum_radicals([(1, p**3, 1), (-1, p, 1)]) == SQRT(p * (p - 1) ** 2)
    # p sqrt(q) + q sqrt(p): two classes
    assert sum_radicals([(1, p * p * q, 1), (1, q * q * p, 1)]).num_terms == 2
    assert SQRT(p * p) == p
    assert sum_radicals([(1, mersenne**3, 1), (1, mersenne, 1)]) == SQRT(
        mersenne * (mersenne + 1) ** 2
    )
    # sqrt(mersenne) / p + sqrt(mersenne) = (p + 1) sqrt(mersenne) / p
    assert sum_radicals([(1, mersenne, p * p), (1, mersenne, 1)]) == SQRT(
        Fraction(mersenne * (p + 1) ** 2, p * p)
    )
    value = sum_radicals([(1, mersenne**3, p**5), (-1, mersenne, 1)])
    assert value.num_terms == 2
    assert RadicalSum.parse(str(value)) == value


# ---------------------------------------------------------------------------
# RadicalSum as a value, and the sums that make values
# ---------------------------------------------------------------------------

SQRT2 = RadicalSum.sqrt(2)


def test_radical_examples():
    assert RadicalSum() == RadicalSum.zero()
    assert -SQRT2 == RadicalSum.parse("-sqrt(2)")
    assert -(-SQRT2) == SQRT2
    assert -RadicalSum.zero() == RadicalSum.zero()
    assert sum_radicals([(1, 2, 1), (1, 2, 1)]) == SQRT(8)
    assert sum_radicals([(1, 2, 1), (-1, 2, 1)]).is_zero
    assert sum_radicals([(1, 2, 1), (-1, 2, 1)]) == RadicalSum.zero()
    assert not RadicalSum.zero() and SQRT2


def test_radical_kernel_recanonicalization():
    # sqrt(60) = 2 sqrt(15)
    assert SQRT(60) == sum_radicals([(1, 15, 1), (1, 15, 1)])
    # commensurable radicands merge into one term: sqrt(8) = 2 sqrt(2)
    assert SQRT(8) == sum_radicals([(1, 2, 1), (1, 2, 1)])
    assert sum_radicals([(1, 8, 1), (1, 2, 1)]) == SQRT(18)
    assert list(sum_radicals([(1, 8, 1), (1, 2, 1)]).terms()) == [(1, Fraction(18))]
    assert sum_radicals([(1, 1, 2), (-1, 8, 1)]) == -SQRT(Fraction(9, 2))
    assert sum_radicals([(1, 4, 4)]) == RadicalSum.one()
    assert RadicalSum.parse("sqrt(9) - 3").is_zero
    # incommensurable radicands stay apart, in order of square
    assert list(sum_radicals([(1, 3, 1), (1, 2, 1)]).terms()) == [
        (1, Fraction(2)), (1, Fraction(3))
    ]
    assert sum_radicals([(1, 12, 1), (-1, 3, 1), (-1, 3, 1), (1, 2, 1)]).num_terms == 1


def test_radical_hash_agrees_with_equality():
    for value in (Fraction(1, 2), Fraction(-7, 3), Fraction(0), Fraction(5)):
        radical = RadicalSum.rational(value)
        assert radical == value
        assert hash(radical) == hash(value)
        assert value in {radical} and radical in {value}
    assert RadicalSum.zero() == 0
    assert SQRT2 != 2
    assert hash(SQRT(Fraction(9, 4))) == hash(Fraction(3, 2))
    assert hash(RadicalSum.zero()) == hash(0)
    assert hash(sum_radicals([(1, 2, 1), (1, 8, 1)])) == hash(SQRT(18))
    values = {SQRT(2), SQRT(3), sum_radicals([(1, 2, 1), (1, 3, 1)]), SQRT(Fraction(8, 4))}
    assert len(values) == 3


def test_radical_sign_and_as_fraction():
    assert RadicalSum.zero().sign() == 0
    assert SQRT2.sign() == 1
    assert (-SQRT2).sign() == -1
    with pytest.raises(ValueError):
        sum_radicals([(1, 2, 1), (1, 3, 1)]).sign()
    assert RadicalSum.rational(Fraction(-3, 4)).as_fraction() == Fraction(-3, 4)
    with pytest.raises(ValueError):
        SQRT2.as_fraction()


# radicands with commensurable pairs (2, 8, 1/2; 3, 12; 1, 4, 9/4), and
# squares and non-squares
_radicands = st.sampled_from(
    [Fraction(1), Fraction(2), Fraction(3), Fraction(5), Fraction(6), Fraction(8),
     Fraction(10), Fraction(12), Fraction(15), Fraction(1, 2), Fraction(4),
     Fraction(9, 4)]
)
_coeffs = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
)


@settings(max_examples=200, deadline=None)
@given(_radicands, _coeffs)
def test_radical_self_product_is_rational(radicand, coeff):
    # coeff * sqrt(radicand) times itself, on the product path that state
    # norms and unitarity inner products take
    square = coeff * coeff * radicand
    x = RadicalSum.sqrt(square) if coeff >= 0 else -RadicalSum.sqrt(square)
    product = _dot({0: x}, {0: x})
    assert product.num_terms <= 1
    assert product.is_rational
    assert product.as_fraction() == coeff * coeff * radicand


# integer terms over a common radical sqrt(n / d): small terms that repeat
# or cancel, and radicands in commensurable groups
_SIGNED_TERMS = st.lists(st.integers(-9, 9) | st.integers(-10**6, 10**6), max_size=9)
_RADICAND_PAIRS = st.sampled_from([(1, 1), (4, 1), (9, 4), (2, 1), (1, 2), (3, 1)]) | st.tuples(
    st.integers(1, 2000), st.integers(1, 2000)
)


def _term_by_term(terms, n, d):
    """The terms of sum_t sqrt(n / d) * t, each taken as the pair
    (sign t, t**2 * n / d) on its own and merged by the pairwise oracle."""
    return merged_terms((1 if t > 0 else -1, t * t * Fraction(n, d)) for t in terms if t)


@settings(max_examples=300, deadline=None)
@given(_SIGNED_TERMS, _RADICAND_PAIRS)
def test_sum_signed_sqrts_matches_term_by_term(terms, radicand):
    value = sum_signed_sqrts(terms, *radicand)
    assert list(value.terms()) == _term_by_term(terms, *radicand)
    assert value.num_terms <= 1


def test_sum_signed_sqrts_examples():
    # (9 - 6 + 4) / 9, and sqrt(1/2) (2 - 1 + 3) == 2 sqrt(2)
    assert sum_signed_sqrts([9, -6, 4], 1, 81) == Fraction(7, 9)
    assert sum_signed_sqrts([2, -1, 3], 1, 2) == SQRT(8)
    # no terms, and terms that cancel, give 0
    assert sum_signed_sqrts([], 2, 3).is_zero
    assert sum_signed_sqrts([3, -1, -2], 2, 3).is_zero
    assert sum_signed_sqrts([-1], 9, 4) == Fraction(-3, 2)
    # a generator is consumed once
    assert sum_signed_sqrts((t for t in (1, 1, -1)), 1, 1) == 1


def test_sum_signed_sqrts_gives_one_term_by_construction():
    # sqrt(2) + 3 sqrt(2) - sqrt(2), with the terms of a 41-term sum far
    # from 1 and an unreduced radicand, each end as one reduced term
    assert list(sum_signed_sqrts([1, 3, -1], 2, 1).terms()) == [(1, Fraction(18))]
    terms = [(-1) ** i * (10**6 + i) * (3 * i + 1) for i in range(41)]
    value = sum_signed_sqrts(terms, 6, 4)
    assert value.num_terms == 1
    assert list(value.terms()) == _term_by_term(terms, 6, 4)


def test_sum_signed_sqrts_rejects_nonpositive():
    for n, d in ((0, 1), (-1, 1), (1, 0), (-1, 4), (1, -4)):
        for terms in ([1, 2], [], [1, -1]):
            with pytest.raises(NegativeRadicandError, match=rf"^radicand {n}/{d} must be positive$"):
                sum_signed_sqrts(terms, n, d)


# radicands in commensurable groups (1, 4, 9/4; 2, 8, 1/2, 9/8; 3, 12, 1/3)
# and unrelated ones, so that sums open several classes and merge in them
_RADICANDS = st.sampled_from(
    [(1, 1), (4, 1), (9, 4), (2, 1), (8, 1), (1, 2), (9, 8), (3, 1), (12, 1), (1, 3)]
) | st.tuples(st.integers(1, 60), st.integers(1, 60))
_RADICAL_TERMS = st.lists(
    st.tuples(st.sampled_from([1, -1]), _RADICANDS), max_size=7
).map(lambda pairs: [(sign, n, d) for sign, (n, d) in pairs])


@settings(max_examples=300, deadline=None)
@given(_RADICAL_TERMS)
def test_sum_radicals_matches_term_by_term(terms):
    expected = merged_terms((sign, Fraction(n, d)) for sign, n, d in terms)
    assert list(sum_radicals(terms).terms()) == expected
    # every term beside its negation: each class cancels to exactly 0
    assert sum_radicals([*terms, *((-s, n, d) for s, n, d in terms)]).is_zero


def test_sum_radicals_examples():
    # a square ratio (8/2 = 2**2): one class, one term
    value = sum_radicals([(1, 2, 1), (1, 8, 1)])
    assert value == SQRT(18) and value.num_terms == 1
    # a non-square ratio opens a second class
    assert sum_radicals([(1, 2, 1), (-1, 3, 1)]) == RadicalSum.parse("sqrt(2) - sqrt(3)")
    # five terms in two classes: (1 - 1/2 + 2) sqrt(2) + (1 - 2) sqrt(3)
    value = sum_radicals([(1, 2, 1), (-1, 1, 2), (1, 3, 1), (1, 8, 1), (-1, 12, 1)])
    assert value == RadicalSum.parse("sqrt(25/2) - sqrt(3)")
    # exact cancellation, unreduced squares, the empty sum, and a generator
    assert sum_radicals([(1, 8, 4), (-1, 2, 1)]).is_zero
    assert sum_radicals([(-1, 18, 8)]) == Fraction(-3, 2)
    assert sum_radicals([]).is_zero
    assert sum_radicals((s, 1, 1) for s in (1, 1, -1)) == 1


def test_sum_radicals_rejects_nonpositive():
    for n, d in ((0, 1), (-1, 1), (1, 0), (-1, 4), (1, -4)):
        with pytest.raises(NegativeRadicandError, match="must be positive"):
            sum_radicals([(1, 1, 1), (1, n, d)])


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------


def _assert_canonical(value):
    """Every term (sign, n, d) has sign +-1 and n, d positive and coprime,
    and the terms are strictly increasing in n / d."""
    terms = value._terms
    for sign, n, d in terms:
        assert sign in (1, -1) and n > 0 and d > 0 and gcd(n, d) == 1, terms
    for (_, n1, d1), (_, n2, d2) in zip(terms, terms[1:]):
        assert n1 * d2 < n2 * d1, terms


_FRACTIONS = st.fractions(min_value=-12, max_value=12, max_denominator=12)


@settings(max_examples=300, deadline=None)
@given(
    _RADICAL_TERMS, _RADICAL_TERMS, _SIGNED_TERMS, _RADICAND_PAIRS,
    _FRACTIONS, _FRACTIONS, st.integers(-9, 9),
)
def test_every_constructor_gives_the_canonical_form(a, b, terms, radicand, p, q, k):
    x, y = sum_radicals(a), sum_radicals(b)
    # the terms of a as parse text, unreduced and unmerged
    text = " + ".join(f"{'-' if s < 0 else ''}sqrt({n}/{d})" for s, n, d in a) or "0"
    sign = -1 if k < 0 else 1
    values = [
        x, y, sum_signed_sqrts(terms, *radicand), SQRT(abs(p)), RadicalSum.rational(p),
        SQRT(abs(p * q) * k * k), -x,
        RadicalSum.parse(str(x)), RadicalSum.parse(f"{x} + {RadicalSum.rational(-p)}"),
        RadicalSum.parse(text),
        # x + y, x * y and k * x as sum_radicals terms
        sum_radicals([*a, *b]),
        sum_radicals([(s * t, n * m, d * e) for s, n, d in a for t, m, e in b]),
        sum_radicals([(sign * s, n, d) for s, n, d in a] * abs(k)),
    ]
    for value in values:
        _assert_canonical(value)


_KEYS = [
    (tj1, tj2, *key) for tj1 in range(7) for tj2 in range(7) for key in _cell_keys(tj1, tj2)
]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_KEYS))
def test_racah_and_3j_kernels_give_the_canonical_form(key):
    tj1, tj2, tJ, tM, tm1 = key
    _assert_canonical(_racah(*key))
    _assert_canonical(_wigner3j(tj1, tj2, tJ, tm1, tM - tm1))


def test_equal_values_from_unreduced_pairs_are_equal_and_hash_equal():
    values = [SQRT(Fraction(1, 2)), sum_radicals([(1, 2, 4)]), sum_signed_sqrts([1], 6, 12)]
    assert all(value == values[0] and hash(value) == hash(values[0]) for value in values)
    assert list(sum_signed_sqrts([1], 6, 12).terms()) == [(1, Fraction(1, 2))]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 9), st.sampled_from([1, -1]))
def test_equal_values_from_different_paths_are_equal_and_hash_equal(n, d, k, sign):
    x = SQRT(Fraction(n, d)) if sign > 0 else -SQRT(Fraction(n, d))
    minus = "-" if sign < 0 else ""
    paths = [
        sum_radicals([(sign, n * k, d * k)]),
        sum_signed_sqrts([sign], n * k, d * k),
        # 2x - x, merged in one class, and as integer terms over x
        sum_radicals([(sign, 4 * n * k, d * k), (-sign, n, d)]),
        sum_signed_sqrts([2 * sign, -sign], n * k, d * k),
        RadicalSum.parse(str(x)),
        RadicalSum.parse(f"{minus}sqrt({n * k}/{d * k})"),
        # k terms sqrt(n / (d k**2)), merged in one class
        sum_radicals([(sign, n, d * k * k)] * k),
        RadicalSum.parse(" + ".join([f"{minus}sqrt({n}/{d * k * k})"] * k)),
    ]
    for value in paths:
        _assert_canonical(value)
        assert value == x and hash(value) == hash(x)
    root = isqrt(n * d)
    if root * root == n * d:  # a rational value equals, and hashes as, its Fraction
        assert x == Fraction(sign * root, d) and hash(x) == hash(Fraction(sign * root, d))


# ---------------------------------------------------------------------------
# Rendering and parsing
# ---------------------------------------------------------------------------


def test_exact_rendering():
    assert str(RadicalSum.zero()) == "0"
    assert str(RadicalSum.one()) == "1"
    assert str(RadicalSum.rational(Fraction(-2, 3))) == "-2/3"
    assert str(RadicalSum.sqrt(Fraction(3, 5))) == "sqrt(3/5)"
    assert str(-RadicalSum.sqrt(Fraction(1, 2))) == "-sqrt(1/2)"
    assert str(RadicalSum.sqrt(2)) == "sqrt(2)"
    assert str(RadicalSum.sqrt(Fraction(15, 25))) == "sqrt(3/5)"
    assert str(RadicalSum.sqrt(Fraction(8, 18))) == "2/3"
    # terms in increasing order of square, each as a sign and a square:
    # sqrt(2) / 2 - sqrt(3) / 3, and 1/2 + sqrt(2) / 3
    multi = sum_radicals([(1, 2, 4), (-1, 3, 9)])
    assert str(multi) == "-sqrt(1/3) + sqrt(1/2)"
    mixed = sum_radicals([(1, 1, 4), (1, 2, 9)])
    assert str(mixed) == "sqrt(2/9) + 1/2"


@pytest.mark.parametrize(
    "text",
    ["0", "1", "-2/3", "sqrt(3/5)", "-sqrt(1/2)", "sqrt(2)", "sqrt(8/9)"],
)
def test_parse_simple_forms(text):
    value = RadicalSum.parse(text)
    assert str(value) == text


def test_parse_roundtrip_multiterm():
    multi = sum_radicals([(1, 2, 4), (-1, 3, 9), (-1, 49, 1)])
    assert str(multi) == "-sqrt(1/3) + sqrt(1/2) - 7"
    assert RadicalSum.parse(str(multi)) == multi


def test_parse_rejects_junk():
    for bad in ["", "sqrt(-1)", "sqrt(1/2", "two", "1 ++ 2", "2*sqrt(3)", "sqrt(1/0)"]:
        with pytest.raises(ValueError):
            RadicalSum.parse(bad)


# ---------------------------------------------------------------------------
# Decimal rendering
# ---------------------------------------------------------------------------


def test_to_decimal_reference_values():
    assert to_decimal(RadicalSum.sqrt(Fraction(15, 25)), 5) == "0.77460"
    assert to_decimal(RadicalSum.one(), 5) == "1.00000"
    assert to_decimal(-RadicalSum.sqrt(Fraction(3, 9)), 5) == "-0.57735"
    assert to_decimal(RadicalSum.sqrt(Fraction(9, 16)), 5) == "0.75000"
    assert to_decimal(RadicalSum.zero(), 5) == "0.00000"


def test_to_decimal_rational_half_even_ties():
    assert to_decimal(Fraction(1, 2), 1) == "0.5"
    assert to_decimal(Fraction(5, 100), 1) == "0.0"   # 0.05 -> even 0
    assert to_decimal(Fraction(15, 100), 1) == "0.2"  # 0.15 -> even 2
    assert to_decimal(Fraction(25, 100), 1) == "0.2"  # 0.25 -> even 2
    assert to_decimal(Fraction(-25, 100), 1) == "-0.2"
    assert to_decimal(Fraction(999995, 10**6), 5) == "1.00000"


def test_to_decimal_places_contract():
    assert to_decimal(Fraction(1), 3) == "1.000"
    with pytest.raises(ValueError):
        to_decimal(Fraction(1), 0)


def _decimal_by_interval(value, places, guard):
    """Independent fixed-guard interval evaluation (no refinement loop)."""
    shift = 10**guard
    scale = 10 ** (places + guard)
    lo = hi = 0
    for sign, square in value.terms():
        # sqrt(n/d) * scale = sqrt(n * d * scale**2) / d
        num, den = square.numerator, square.denominator
        floor = isqrt(num * den * scale**2) // den
        if sign > 0:
            lo += floor
            hi += floor + 1
        else:
            lo -= floor + 1
            hi -= floor

    def round_half_even(n, d):
        sign = -1 if n < 0 else 1
        n = abs(n)
        q, r = divmod(n, d)
        if 2 * r > d or (2 * r == d and q & 1):
            q += 1
        return sign * q

    a, b = round_half_even(lo, shift), round_half_even(hi, shift)
    return (a, b)


def test_to_decimal_against_doubled_precision_intervals():
    rng = random.Random(20250811)
    kernels = [1, 2, 3, 5, 6, 7, 10, 11, 13, 15, 21, 30]
    for _ in range(10_000):
        terms = []
        for kernel in rng.sample(kernels, rng.randint(1, 3)):
            # coeff * sqrt(kernel), as one signed square root
            coeff = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
            if coeff:
                square = coeff * coeff * kernel
                terms.append((1 if coeff > 0 else -1, square.numerator, square.denominator))
        value = sum_radicals(terms)
        rendered = to_decimal(value, 5)
        lo, hi = _decimal_by_interval(value, 5, guard=40)
        assert lo == hi, f"interval oracle ambiguous for {value}"
        sign = "-" if lo < 0 else ""
        whole, frac = divmod(abs(lo), 10**5)
        assert rendered == f"{sign}{whole}.{frac:05d}"


def test_to_decimal_never_renders_negative_zero():
    tiny = RadicalSum.rational(Fraction(-1, 10**9))
    assert to_decimal(tiny, 5) == "0.00000"
    assert to_decimal(-RadicalSum.sqrt(Fraction(2, 10**18)), 5) == "0.00000"


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([1, -1]),
    st.integers(1, 10**40),
    st.integers(1, 10**40),
    st.integers(1, 12),
)
def test_one_term_decimal_matches_the_interval_path(sign, n, d, places):
    g = gcd(n, d)
    n, d = n // g, d // g
    if isqrt(n) ** 2 == n and isqrt(d) ** 2 == d:
        n += 1  # a non-square value: the interval path never terminates on a tie
    g = gcd(n, d)
    term = (sign, n // g, d // g)
    assert to_decimal(sum_radicals([term]), places) == _irrational_decimal((term,), places)


@settings(max_examples=300, deadline=None)
@given(st.fractions(max_denominator=10**6), st.integers(1, 8))
def test_one_term_rational_decimal_matches_the_fraction(value, places):
    assert to_decimal(RadicalSum.rational(value), places) == to_decimal(value, places)


@pytest.mark.parametrize(
    "n, d, expected",
    [
        # 0.25 and 0.75, the midpoints between one-place decimals: exactly
        # on them (rational, ties to even), then 1e-13 above and below
        (1, 16, "0.2"),
        (10**12 + 1, 16 * 10**12, "0.3"),
        (10**12 - 1, 16 * 10**12, "0.2"),
        (9, 16, "0.8"),
        (9 * 10**12 + 1, 16 * 10**12, "0.8"),
        (9 * 10**12 - 1, 16 * 10**12, "0.7"),
    ],
)
def test_one_term_decimal_near_a_rounding_midpoint(n, d, expected):
    value = RadicalSum.sqrt(Fraction(n, d))
    assert to_decimal(value, 1) == expected
    assert to_decimal(-value, 1) == "-" + expected


def test_two_term_decimal_within_the_first_guard_of_a_midpoint(monkeypatch):
    # sqrt(10^30 + 3 10^10) - 10^15 = 0.0000149999999999999999998875...,
    # about 1.1e-25 below the midpoint between 0.00001 and 0.00002: the
    # 12-digit brackets straddle it, so a second round takes 24 digits
    value = RadicalSum.parse("sqrt(1000000000000000000030000000000) - 1000000000000000")
    assert value.num_terms == 2
    shifts = []
    original = numerics._round_half_even

    def recording(n, d):
        shifts.append(d)
        return original(n, d)

    monkeypatch.setattr(numerics, "_round_half_even", recording)
    assert to_decimal(value, 5) == "0.00001"
    assert shifts == [10**12, 10**12, 10**24, 10**24]
    with decimal.localcontext() as context:
        context.prec = 80
        exact = decimal.Decimal(1000000000000000000030000000000).sqrt() - 10**15
        rounded = exact.quantize(decimal.Decimal("0.00001"), decimal.ROUND_HALF_EVEN)
    assert str(rounded) == "0.00001"


# ---------------------------------------------------------------------------
# Concurrency smoke test: pure functions, no shared state
# ---------------------------------------------------------------------------


def test_concurrent_cache_consistency():
    results = [None] * 8

    def worker(slot):
        acc = []
        for n in range(1, 80):
            acc.append(str(sum_radicals([(1, n, 97), (-1, 4 * n, 97), (1, n + 1, 1)])))
            acc.append(to_decimal(sum_radicals([(1, n, 97), (-1, n + 1, 97)]), 5))
        results[slot] = acc

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
