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
functions on integers: `sum_radicals`, which sums ``(sign, n, d)`` terms
one class per sweep and is the one function that merges classes, and
`sum_signed_sqrts`, which sums integer terms over one common radical
sqrt(n / d), one class by construction.  A value x * sqrt(n / d) with x an
integer, as every route ends each coefficient and `formulas._wigner3j`
each 3j symbol, is built in one place, `_times_radical`, which
`sum_signed_sqrts`, `RadicalSum.rational` and `parse` call too.
`Fraction` appears only where a value enters or leaves as a rational:
`RadicalSum.sqrt`, `rational`, the rational pieces of `parse`, `terms` and
`as_fraction`.  Agreement checks carry no tolerance anywhere.
"""

from __future__ import annotations

import gc
import re
import sysconfig
from fractions import Fraction
from functools import cmp_to_key, total_ordering
from math import gcd, isqrt
from typing import Iterable, Iterator, Mapping, Union

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
    # rest from them; == must reject Fraction, or hashing would break.  A
    # table comparison makes one == per quantum number, so HalfInt against
    # HalfInt compares the doubled values with no coercion
    def __eq__(self, other: object) -> bool:
        if isinstance(other, HalfInt):
            return self.twice == other.twice
        if isinstance(other, int):
            return self.twice == 2 * other
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


def _coerce_twice(value) -> int:
    """Doubled-integer value of anything that denotes a half-integer."""
    if isinstance(value, HalfInt):
        return value.twice
    if isinstance(value, int):
        return 2 * value
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


def _j_range(tj1: int, tj2: int) -> range:
    """The doubled J of every subspace of the (2j1, 2j2) cell, ascending:
    |j1 - j2| <= J <= j1 + j2 in unit steps.  The one spelling of that
    range, for the table walks and the checks; it sits here, below the
    three routes, because every route's walk reads it."""
    return range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)


# ---------------------------------------------------------------------------
# Commensurability of square roots
# ---------------------------------------------------------------------------


def _rational_root(n: int, d: int) -> tuple[int, int] | None:
    """(sqrt(n), sqrt(d)) when both are integers, else None; for a reduced
    pair that is exactly when sqrt(n / d) is rational.  A numerator that is
    not a square, as in every irrational coefficient, costs one isqrt."""
    num_root = isqrt(n)
    if num_root * num_root != n:
        return None
    den_root = isqrt(d)
    return (num_root, den_root) if den_root * den_root == d else None


def _ratio_text(n: int, d: int) -> str:
    """n/d as str(Fraction(n, d)) renders it, for a reduced pair."""
    return str(n) if d == 1 else f"{n}/{d}"


def _from_terms(terms: tuple[Term, ...]) -> "RadicalSum":
    """Internal constructor for canonical terms: one per class, in
    increasing order of n / d."""
    obj = object.__new__(RadicalSum)
    obj._terms = terms
    return obj


_new_value = object.__new__


def _times_radical(x: int, n: int, d: int) -> "RadicalSum":
    """x * sqrt(n / d) for an int x and positive ints n and d: one term,
    its square x^2 n / d reduced by one gcd, or 0 when x is 0.  Every
    route's value and every parsed one-term value is an integer times one
    radical, and this is the one place where such a value is built.  It
    sets the value's terms itself, with no `_from_terms` call, since a
    table builds one value per row here."""
    if not x:
        return RadicalSum()
    n *= x * x
    g = gcd(n, d)
    value = _new_value(RadicalSum)
    value._terms = ((1 if x > 0 else -1, n // g, d // g),)
    return value


class _CollectorPaused:
    """``with _CollectorPaused():`` runs its body with the cyclic garbage
    collector paused, when it was enabled, and enables it again on exit,
    raised or not; a collector that was already disabled stays disabled.

    Table rows (records, `HalfInt`s, `RadicalSum`s and tuples of ints) form
    no reference cycle, yet a table of thousands of rows triggers hundreds
    of collections that each scan them.  The table paths pause it around
    loops that run to completion, never inside a generator, and it is off
    for the whole interpreter, every thread included, meanwhile; reference
    counting still frees everything.  On exit, ``gc.freeze(); gc.unfreeze()``
    splices every tracked object into the oldest generation and resets the
    young count, so no young collection scans the new rows; the caller's
    young objects are promoted too.  Not while a caller's ``gc.freeze()``
    holds objects, which this would release, nor on a free-threaded build,
    where it walks the heap.
    """

    __slots__ = ("enabled",)

    splice = not sysconfig.get_config_var("Py_GIL_DISABLED")

    def __enter__(self) -> None:
        if enabled := gc.isenabled():
            gc.disable()
        self.enabled = enabled

    def __exit__(self, *exc_info) -> None:
        if self.enabled:
            if self.splice and not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()


def _dot(u: Mapping[int, "RadicalSum"], v: Mapping[int, "RadicalSum"]) -> "RadicalSum":
    """Exact inner product of two sparse real vectors: one `sum_radicals`
    call over the products of the (sign, n, d) terms of matched components,
    so a value of several classes gets its exact sum too.  The ladder check
    takes with it each norm that its integer test does not pass, and the
    unitarity check every product of a cell that its integer pass does not
    clear."""
    return sum_radicals([
        (s * t, nu * nv, du * dv)
        for index, a in u.items()
        if (b := v.get(index)) is not None
        for s, nu, du in a._terms
        for t, nv, dv in b._terms
    ])


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
    `_times_radical` (one radical times an integer).  Immutable.
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
        return _times_radical(num, 1, den * den)

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
        ' + ' or ' - ', summed by one `sum_radicals` call.  A text with no
        space is one term, as every coefficient renders, and goes straight
        to its reduced radical, the value `sum_radicals` gives one term."""
        stripped = text.strip()
        if not stripped:
            raise ValueError("empty exact-value text")
        if " " not in stripped:
            term = _parse_term(stripped)
            return cls() if term is None else _times_radical(*term)
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


def sum_signed_sqrts(terms: Iterable[int], n: int, d: int) -> RadicalSum:
    """Exact ``sqrt(n / d) * sum(terms)`` for int ``terms`` and positive
    ints n and d: a sum of signed square roots with rational ratios, over
    their common radical.  Pass ``terms`` positionally:
    ``benchmark/tracing.py`` counts the items of the first positional
    argument as radicands.  The sum is taken in plain integers and ends as
    one term by `_times_radical`, or 0."""
    if n <= 0 or d <= 0:
        raise NegativeRadicandError(f"radicand {n}/{d} must be positive")
    return _times_radical(sum(terms), n, d)


def sum_radicals(terms: Iterable[tuple[int, int, int]]) -> RadicalSum:
    """Exact ``sum_i sign_i * sqrt(n_i / d_i)`` of independent radicals.

    Each term is ``(sign, n, d)`` with sign +1 or -1 and positive ints n and
    d; unlike `sum_signed_sqrts`, each term has its own radicand.  The sum
    is taken one class per sweep.  A sweep opens the class of the first
    term left, at n_0 / d_0, and tests each later term against it:
    sqrt(n / d) = sqrt(n_0 / d_0) * k / (n_0 * d) with
    k = isqrt(n_0 * d_0 * n * d) exactly when that integer is a perfect
    square.  A term that fits joins the class's integer sum, whose
    denominator stays the lcm of the units, and any other term waits for
    the next sweep.  Each class whose sum is not 0 becomes one term, the
    reduced integer pair of its square, in increasing order of value.  The
    cost is one integer square root per term tested, two gcds per term
    merged and one per class, so a one-class sum of T terms takes T - 1
    square roots; any input gets its exact sum on this same path.

    This is the one function that merges commensurability classes:
    `RadicalSum.parse`, the ladder actions and `_dot` (the norms that the
    ladder check does not decide in integers, and the products of a
    unitarity cell that the check's integer pass does not clear) all end
    here.
    """
    out: list[Term] = []
    pending: Iterator[Term] = iter(terms)
    while (first := next(pending, None)) is not None:
        sign, n0, d0 = first
        if n0 <= 0 or d0 <= 0:
            raise NegativeRadicandError(f"radicand {n0}/{d0} must be positive")
        head = n0 * d0
        top, bottom = sign, 1  # the class's sum: sqrt(n0 / d0) * top / bottom
        later: list[Term] = []
        for term in pending:
            sign, n, d = term
            if n <= 0 or d <= 0:
                raise NegativeRadicandError(f"radicand {n}/{d} must be positive")
            product = head * n * d
            k = isqrt(product)
            if k * k == product:
                # top / bottom += sign * k / unit, bottom kept the lcm of the units
                unit = n0 * d
                g = gcd(k, unit)
                k //= g
                unit //= g
                g = gcd(bottom, unit)
                unit //= g
                top = top * unit + sign * k * (bottom // g)
                bottom *= unit
            else:
                later.append(term)
        if top:
            n, d = top * top * n0, bottom * bottom * d0
            g = gcd(n, d)
            out.append((1 if top > 0 else -1, n // g, d // g))
        if not later:
            break
        pending = iter(later)
    if len(out) > 1:
        out.sort(key=_BY_VALUE)
    return _from_terms(tuple(out))


# ---------------------------------------------------------------------------
# Decimal rendering
# ---------------------------------------------------------------------------


def to_decimal(value: Union[RadicalSum, Rationalish], places: int) -> str:
    """Correctly rounded decimal string with exactly ``places`` fraction digits.

    Rounding is round-half-even.  Rational values are rounded exactly.  A
    one-term RadicalSum sign * sqrt(n / d), as every coefficient is, costs
    one integer square root, q = isqrt(n * 10**(2p) // d), the floor of its
    magnitude scaled by 10**p, and one exact comparison with the midpoint
    q + 1/2: the magnitude rounds up when 4 * n * 10**(2p) > d * (2q + 1)**2.
    Only a rational value can meet the midpoint exactly, and it then rounds
    to even.  A sum of several terms is bracketed by integer square-root
    intervals at increasing guard precision until the rounding is
    unambiguous (such a sum is irrational, so it is never exactly on a
    rounding boundary, and this terminates).
    """
    if places < 1:
        raise ValueError(f"places must be >= 1, got {places}")
    if isinstance(value, RadicalSum):
        terms = value._terms
        if len(terms) > 1:
            return _irrational_decimal(terms, places)
        if not terms:
            return _format_scaled(0, places)
        ((sign, n, d),) = terms
        scaled = n * 10 ** (2 * places)
        q = isqrt(scaled // d)
        beyond = 4 * scaled - d * (2 * q + 1) ** 2
        if beyond > 0 or (not beyond and q & 1):
            q += 1
        return _format_scaled(sign * q, places)
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
    """scaled / 10**places with exactly ``places`` fraction digits, cut from
    the digits of |scaled| padded to at least one whole digit."""
    digits = str(abs(scaled)).zfill(places + 1)
    sign = "-" if scaled < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}"
