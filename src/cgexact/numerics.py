"""Exact arithmetic foundation: half-integer quantum numbers and exact sums
of signed square roots of rationals.

Every value in this package is exact.  Rational numbers are
:class:`fractions.Fraction`; irrational values are :class:`RadicalSum`,
finite sums ``sum_i s_i * sqrt(n_i / d_i)`` with signs s_i = +-1 and
positive integers n_i and d_i.  Two square roots sqrt(a) and sqrt(b) are
commensurable when a/b is the square of a rational; a RadicalSum keeps one
term per commensurability class.  Each term is stored as its sign and the
reduced integer pair (n, d) of its square, so the form is canonical without
factoring any integer, and equality of two RadicalSums is equality of their
terms, tuples of ints.

A RadicalSum is a value: it is built, negated, compared, hashed, rendered
and parsed, and has no other arithmetic.  Arithmetic on values lives in two
functions on ``(sign, n, d)`` integer terms: `sum_radicals`, the one
function that merges classes, and `sum_signed_sqrts`, which sums a chain of
radicands given by their ratios.  `Fraction` appears only where a value
enters or leaves as a rational: `RadicalSum.sqrt`, `rational`, the rational
pieces of `parse`, `terms` and `as_fraction`.  Agreement checks carry no
tolerance anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cmp_to_key, total_ordering
from math import gcd, isqrt
from typing import Iterable, Iterator, Union

__all__ = [
    "HalfInt",
    "NegativeRadicandError",
    "RadicalSum",
    "Rationalish",
    "sum_radicals",
    "sum_signed_sqrts",
    "to_decimal",
]

Rationalish = Union[int, Fraction]

#: One term of a RadicalSum: (sign, n, d) stands for sign * sqrt(n / d),
#: with sign +1 or -1 and (n, d) the reduced integer pair of the square:
#: n and d positive and coprime.
Term = tuple[int, int, int]


class NegativeRadicandError(ValueError):
    """Raised when a square root of a negative rational is requested.

    No radicand in the coupling formulas is ever negative; hitting this means
    an upstream index bug, so it is an error rather than a NaN-like value.
    """


# ---------------------------------------------------------------------------
# Half-integers
# ---------------------------------------------------------------------------


@total_ordering
class HalfInt:
    """An angular-momentum quantum number, stored exactly as its doubled value.

    ``HalfInt("3/2").twice == 3``.  Sums, differences and comparisons are
    exact integer arithmetic on the doubled representation; loop bounds in
    the coupling algebra therefore stay plain integers.
    """

    __slots__ = ("twice",)

    def __init__(self, value: Union["HalfInt", int, str, float, Fraction]):
        self.twice = _coerce_twice(value)

    @classmethod
    def from_twice(cls, twice: int) -> "HalfInt":
        """Build from the doubled integer value (``from_twice(3)`` is 3/2)."""
        if not isinstance(twice, int):
            raise TypeError(f"doubled value must be an int, got {twice!r}")
        obj = object.__new__(cls)
        obj.twice = twice
        return obj

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    @property
    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    def __add__(self, other: Union["HalfInt", int]) -> "HalfInt":
        return HalfInt.from_twice(self.twice + _coerce_twice(other))

    def __sub__(self, other: Union["HalfInt", int]) -> "HalfInt":
        return HalfInt.from_twice(self.twice - _coerce_twice(other))

    def __neg__(self) -> "HalfInt":
        return HalfInt.from_twice(-self.twice)

    def __abs__(self) -> "HalfInt":
        return HalfInt.from_twice(abs(self.twice))

    # == and < take exactly HalfInt and int, and total_ordering derives the
    # rest from them; == must reject Fraction, or hashing would break
    def __eq__(self, other: object) -> bool:
        if isinstance(other, (HalfInt, int)):
            return self.twice == _coerce_twice(other)
        return NotImplemented

    def __lt__(self, other: Union["HalfInt", int]) -> bool:
        if isinstance(other, (HalfInt, int)):
            return self.twice < _coerce_twice(other)
        return NotImplemented

    def __hash__(self) -> int:
        # the hash of the floor: an integral value equals, so must hash as,
        # its int; k + 1/2 shares k's hash, but quantum numbers of one j
        # never mix the two parities
        return hash(self.twice >> 1)

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({str(self)!r})"


_HALF_INT_RE = re.compile(r"(-?[0-9]+)(/2)?")


def _coerce_twice(value) -> int:
    """Doubled-integer value of anything that denotes a half-integer."""
    if isinstance(value, HalfInt):
        return value.twice
    if isinstance(value, int):
        return 2 * value
    if isinstance(value, str):
        # the forms str(HalfInt) emits, without a Fraction
        match = _HALF_INT_RE.fullmatch(value)
        if match:
            whole = int(match.group(1))
            return whole if match.group(2) else 2 * whole
    if isinstance(value, (str, float, Fraction)):
        try:
            frac = Fraction(value)
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ValueError(f"not a half-integer: {value!r}") from None
        if frac.denominator == 1:
            return 2 * frac.numerator
        if frac.denominator == 2:
            return frac.numerator
        raise ValueError(f"not a half-integer: {value!r}")
    raise TypeError(f"cannot interpret {value!r} as a half-integer")


# ---------------------------------------------------------------------------
# Commensurability of square roots
# ---------------------------------------------------------------------------


def _rational_root(n: int, d: int) -> tuple[int, int] | None:
    """(sqrt(n), sqrt(d)) when both are integers, else None; for a reduced
    pair that is exactly when sqrt(n / d) is rational."""
    num_root, den_root = isqrt(n), isqrt(d)
    if num_root * num_root == n and den_root * den_root == d:
        return num_root, den_root
    return None


def _ratio_text(n: int, d: int) -> str:
    """n/d as str(Fraction(n, d)) renders it, for a reduced pair."""
    return str(n) if d == 1 else f"{n}/{d}"


def _from_terms(terms: tuple[Term, ...]) -> "RadicalSum":
    """Internal constructor for canonical terms: one per class, in
    increasing order of n / d."""
    obj = object.__new__(RadicalSum)
    obj._terms = terms
    return obj


def _radical(sign: int, n: int, d: int) -> "RadicalSum":
    """sign * sqrt(n / d) for positive ints n and d, as one term reduced by
    one gcd."""
    g = gcd(n, d)
    return _from_terms(((sign, n // g, d // g),))


def _term_products(a: "RadicalSum", b: "RadicalSum") -> Iterator[tuple[int, int, int]]:
    """Each product of a term of ``a`` and a term of ``b``, as a
    `sum_radicals` term."""
    return (
        (s * t, n * m, d * e) for s, n, d in a._terms for t, m, e in b._terms
    )


#: sort key of terms by the value n / d, compared in integers
_BY_VALUE = cmp_to_key(lambda a, b: a[1] * b[2] - b[1] * a[2])


def _ratio(value: Rationalish) -> tuple[int, int]:
    """The reduced (numerator, denominator) of an int, a Fraction, or
    anything else that Fraction accepts."""
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return value.numerator, value.denominator


# ---------------------------------------------------------------------------
# RadicalSum
# ---------------------------------------------------------------------------


class RadicalSum:
    """Exact number of the form ``sum_i s_i * sqrt(n_i / d_i)``.

    Each term is a (sign, n, d) triple, with (n, d) the reduced integer pair
    of the term's square.  No two squares of one value have a ratio that is
    the square of a rational, and the terms are sorted by n / d, so two
    values are equal iff their terms are equal as tuples of ints.  A
    rational value is a single term whose n and d are perfect squares.
    ``RadicalSum()`` is exactly 0; other values come from :meth:`rational`,
    :meth:`sqrt`, :meth:`parse`, unary ``-``, `sum_radicals` and
    `sum_signed_sqrts`.  Instances are immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self) -> None:
        self._terms: tuple[Term, ...] = ()

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "RadicalSum":
        return cls()

    @classmethod
    def one(cls) -> "RadicalSum":
        return _from_terms(((1, 1, 1),))

    @classmethod
    def rational(cls, value: Rationalish) -> "RadicalSum":
        num, den = _ratio(value)
        if not num:
            return cls()
        return _from_terms(((1 if num > 0 else -1, num * num, den * den),))

    @classmethod
    def sqrt(cls, value: Rationalish) -> "RadicalSum":
        """Exact square root of a nonnegative rational."""
        num, den = _ratio(value)
        if num < 0:
            raise NegativeRadicandError(f"negative radicand {_ratio_text(num, den)}")
        if not num:
            return cls()
        return _from_terms(((1, num, den),))

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_rational(self) -> bool:
        terms = self._terms
        return not terms or (len(terms) == 1 and _rational_root(*terms[0][1:]) is not None)

    @property
    def num_terms(self) -> int:
        """Number of commensurability classes in the sum."""
        return len(self._terms)

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        """(sign, square) pairs, each square a Fraction, in increasing order
        of square; the value is the sum of sign * sqrt(square) over them."""
        return ((s, Fraction(n, d)) for s, n, d in self._terms)

    def as_fraction(self) -> Fraction:
        """The exact rational value; raises if the value is irrational."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1:
            ((sign, n, d),) = self._terms
            root = _rational_root(n, d)
            if root is not None:
                return Fraction(sign * root[0], root[1])
        raise ValueError(f"{self} is not rational")

    def sign(self) -> int:
        """-1, 0 or +1.  Defined for sums with at most one term."""
        if not self._terms:
            return 0
        if len(self._terms) == 1:
            return self._terms[0][0]
        raise ValueError(f"sign of multi-term sum {self} is not structural")

    # -- value semantics ---------------------------------------------------

    def __neg__(self) -> "RadicalSum":
        return _from_terms(tuple((-s, n, d) for s, n, d in self._terms))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RadicalSum):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == RadicalSum.rational(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        # a rational value equals, so must hash as, its Fraction
        if self.is_rational:
            return hash(self.as_fraction())
        return hash(self._terms)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        """'0', or terms 'p/q' (rational) or 'sqrt(p/q)' joined by ' + ' and
        ' - ', the first one carrying a leading '-' when negative; 'p/q' is
        'p' when q is 1, as str(Fraction) renders it."""
        text = ""
        for sign, n, d in self._terms:
            root = _rational_root(n, d)
            body = _ratio_text(*root) if root is not None else f"sqrt({_ratio_text(n, d)})"
            if text:
                text += (" - " if sign < 0 else " + ") + body
            else:
                text = ("-" if sign < 0 else "") + body
        return text or "0"

    def __repr__(self) -> str:
        return f"<RadicalSum {self}>"

    @classmethod
    def parse(cls, text: str) -> "RadicalSum":
        """Inverse of str(): terms '[-]p/q' or '[-]sqrt(p/q)' joined by
        ' + ' or ' - ', summed by one `sum_radicals` call."""
        stripped = text.strip()
        if not stripped:
            raise ValueError("empty exact-value text")
        terms = [
            term
            for piece in stripped.replace(" - ", " + -").split(" + ")
            if (term := _parse_term(piece.strip())) is not None
        ]
        return sum_radicals(terms)


_SQRT_RE = re.compile(r"(-)?sqrt\(([0-9]+)(?:/([0-9]+))?\)")


def _parse_term(piece: str) -> Term | None:
    """The `sum_radicals` term of one piece of `RadicalSum.parse` text, or
    None for a piece whose value is 0."""
    match = _SQRT_RE.fullmatch(piece)
    try:
        if match:
            negative, num, den = match.groups()
            n, d = int(num), int(den) if den else 1
            if not d:
                raise ValueError(piece)
            return (-1 if negative else 1, n, d) if n else None
        value = Fraction(piece)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"unparseable exact-value text: {piece!r}") from None
    num, den = value.numerator, value.denominator
    return (1 if num > 0 else -1, num * num, den * den) if num else None


def sum_signed_sqrts(steps: Iterable[tuple[int, int, int]]) -> RadicalSum:
    """Exact ``sum_i sign_i * sqrt(r_i)`` over a chain of radicands.

    Each step is ``(sign, n, d)`` with sign +1 or -1 and positive ints n and
    d; r_0 = n_0 / d_0 and r_i = r_(i-1) * n_i / d_i.  Pass ``steps``
    positionally: ``benchmark/tracing.py`` counts the items of the first
    positional argument as radicands.

    sqrt(r_i / r_(i-1)) = k / d_i is rational exactly when n_i * d_i = k**2
    is a perfect square, which one integer square root per step decides.  A
    run of such ratios stays in one commensurability class and is summed in
    plain integers, with the radicand that opened the class kept as an
    integer pair; the first step, and every ratio that is not a square,
    opens a new class at r_i.  A chain of one class ends as one term, the
    square of its sum reduced by one gcd; the classes of a longer chain
    merge as in `sum_radicals`, one gcd per class.  So the sum is exact for
    any input.
    """
    classes: list[tuple[int, int, int]] = []  # closed classes, as sum_radicals terms
    rn = rd = 0          # the radicand that opened the current class, rn / rd
    top = bottom = 1     # sqrt(r_i / (rn / rd)) == top / bottom
    total = 0            # the class's sum so far, in units of sqrt(rn / rd) / bottom
    for sign, n, d in steps:
        if n <= 0 or d <= 0:
            what = "first radicand" if not rd else "term ratio"
            raise NegativeRadicandError(f"{what} {n}/{d} must be positive")
        if not rd:
            rn, rd = n, d
        else:
            product = n * d
            k = isqrt(product)
            if k * k == product:
                g = gcd(k, d)
                d //= g
                top *= k // g
                bottom *= d
                total = total * d + sign * top
                continue
            if total:
                classes.append(
                    (1 if total > 0 else -1, total * total * rn, bottom * bottom * rd)
                )
            rn *= top * top * n
            rd *= bottom * bottom * d
            top = bottom = 1
        total = sign
    if total:
        classes.append((1 if total > 0 else -1, total * total * rn, bottom * bottom * rd))
    if len(classes) == 1:
        return _radical(*classes[0])
    return sum_radicals(classes)


def sum_radicals(terms: Iterable[tuple[int, int, int]]) -> RadicalSum:
    """Exact ``sum_i sign_i * sqrt(n_i / d_i)`` of independent radicals.

    Each term is ``(sign, n, d)`` with sign +1 or -1 and positive ints n and
    d; unlike `sum_signed_sqrts`, each radicand is given whole.  The first
    term opens a class at n_0 / d_0, and each later term is tested against
    the open classes in turn: sqrt(n / d) = sqrt(n_0 / d_0) * k / (n_0 * d)
    with k = isqrt(n_0 * d_0 * n * d) exactly when that integer is a perfect
    square, so one integer square root decides each pair tested.  A term
    that fits no class opens one of its own.  Each class is summed in plain
    integers, and each class whose sum is not 0 becomes one term: the
    reduced integer pair of its square, one gcd per class, in increasing
    order of value.  So one or two terms of one class, as in a ladder step,
    cost at most one square root and one gcd, and any input gets its exact
    sum on this same path.

    This is the one function that merges commensurability classes:
    `RadicalSum.parse`, the ladder actions, the state norms, the unitarity
    inner products and `sum_signed_sqrts` all end here.
    """
    classes: list[list[int]] = []  # [n0, d0, top, bottom]: sqrt(n0/d0) * top/bottom
    for sign, n, d in terms:
        if n <= 0 or d <= 0:
            raise NegativeRadicandError(f"radicand {n}/{d} must be positive")
        for cls in classes:
            n0, d0, top, bottom = cls
            product = n0 * d0 * n * d
            k = isqrt(product)
            if k * k == product:
                # top / bottom += sign * k / unit, bottom kept the lcm of the units
                unit = n0 * d
                g = gcd(k, unit)
                k //= g
                unit //= g
                g = gcd(bottom, unit)
                unit //= g
                cls[2] = top * unit + sign * k * (bottom // g)
                cls[3] = bottom * unit
                break
        else:
            classes.append([n, d, sign, 1])
    out: list[Term] = []
    for n0, d0, top, bottom in classes:
        if top:
            n, d = top * top * n0, bottom * bottom * d0
            g = gcd(n, d)
            out.append((1 if top > 0 else -1, n // g, d // g))
    if len(out) > 1:
        out.sort(key=_BY_VALUE)
    return _from_terms(tuple(out))


# ---------------------------------------------------------------------------
# Decimal rendering
# ---------------------------------------------------------------------------


def to_decimal(value: Union[RadicalSum, Rationalish], places: int) -> str:
    """Correctly rounded decimal string with exactly ``places`` fraction digits.

    Rounding is round-half-even.  Rational values are rounded exactly;
    irrational sums are bracketed by integer square-root intervals at
    increasing guard precision until the rounding is unambiguous (an
    irrational value is never exactly on a rounding boundary, so this
    terminates).
    """
    if places < 1:
        raise ValueError(f"places must be >= 1, got {places}")
    if isinstance(value, RadicalSum):
        if not value.is_rational:
            return _irrational_decimal(value._terms, places)
        value = value.as_fraction()
    num, den = _ratio(value)
    return _format_scaled(_round_half_even(num * 10**places, den), places)


def _irrational_decimal(terms: tuple[Term, ...], places: int) -> str:
    guard = 12
    while True:
        shift = 10**guard
        scale_squared = 10 ** (2 * (places + guard))
        lo = 0
        hi = 0
        for sign, n, d in terms:
            # floor(sqrt(n / d) * S) == isqrt(floor(n * S**2 / d))
            root = isqrt(n * scale_squared // d)
            if sign > 0:
                lo += root
                hi += root + 1
            else:
                lo -= root + 1
                hi -= root
        rounded_lo = _round_half_even(lo, shift)
        rounded_hi = _round_half_even(hi, shift)
        if rounded_lo == rounded_hi:
            return _format_scaled(rounded_lo, places)
        guard *= 2


def _round_half_even(n: int, d: int) -> int:
    """round(n/d) with ties to even, d > 0, exact integer arithmetic."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    q, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and q & 1):
        q += 1
    return sign * q


def _format_scaled(scaled: int, places: int) -> str:
    magnitude = abs(scaled)
    whole, frac = divmod(magnitude, 10**places)
    sign = "-" if scaled < 0 else ""
    return f"{sign}{whole}.{frac:0{places}d}"
