"""Exact arithmetic in Q(i), the field of Gaussian rationals.

Every coefficient in this package is a number (a + b*i)/d held as one
triple of Python ints ``(a, b, d)``.  The triple is canonical: ``d > 0``
and ``gcd(a, b, d) == 1``, so zero is ``(0, 0, 1)`` and two values are
equal exactly when their triples are.  Arithmetic works on the ints and
reduces each result once; ``real`` and ``imag`` give the two parts as
reduced ``fractions.Fraction``.  All operations are exact; nothing here
ever rounds.

The string form is ``a/b`` for real values and ``a/b+c/d*i`` in general
(denominator omitted when 1, real part omitted when 0).  ``parse`` accepts
that form plus the usual liberties: bare ``i``, ``-i``, ``3i``, ``2*i``.
Each rational part must read ``[+-]digits[/digits]``; decimals, exponents
and digit separators are rejected.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd
from typing import Mapping, Optional, Union

from .errors import BudgetExceededError, ScalarParseError

ScalarLike = Union["GaussianRational", Fraction, int, str]
# Read by as_scalar; arithmetic with any other operand is NotImplemented.
_READABLE = (int, Fraction, str)


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _frac(text: str) -> Fraction:
    # Only the documented a/b form: Fraction itself would also take
    # decimals, underscores and exponents such as "1e999999999".
    if not _RATIONAL.fullmatch(text):
        raise ScalarParseError(
            f"bad rational {text!r}: expected an integer or a/b")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ScalarParseError(
            f"bad rational {text!r}: zero denominator") from None
    except ValueError:
        # more digits than int() converts; too long to echo back
        raise ScalarParseError(
            f"bad rational of {len(text)} characters: an integer in it has "
            f"more than {sys.get_int_max_str_digits()} digits") from None


class GaussianRational:
    """The value (re + im*i)/den, held as the canonical triple ``_t``."""

    __slots__ = ("_t",)

    def __init__(self, real: Union[Fraction, int, str] = 0, imag: Union[Fraction, int] = 0):
        if isinstance(real, str):
            triple = GaussianRational.parse(real)._t
        else:
            real, imag = Fraction(real), Fraction(imag)
            triple = _make(real.numerator * imag.denominator,
                           imag.numerator * real.denominator,
                           real.denominator * imag.denominator)._t
        _set_triple(self, triple)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def real(self) -> Fraction:
        re, _, den = self._t
        return Fraction(re, den)

    @property
    def imag(self) -> Fraction:
        _, im, den = self._t
        return Fraction(im, den)

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        s = text.strip().replace(" ", "")
        if not s:
            raise ScalarParseError("empty scalar string")
        if not s.endswith("i"):
            return cls(_frac(s))
        body = s[:-1]
        if body.endswith("*"):
            body = body[:-1]
        # Split off a real part: the last +/- that directly follows a digit
        # separates the two summands ("3/4-1/2" -> "3/4", "-1/2").
        split = -1
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1].isdigit():
                split = k
                break
        if split == -1:
            real_part, imag_part = "0", body
        else:
            real_part, imag_part = body[:split], body[split:]
        if imag_part in ("", "+"):
            imag = Fraction(1)
        elif imag_part == "-":
            imag = Fraction(-1)
        else:
            imag = _frac(imag_part)
        return cls(_frac(real_part), imag)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            if not isinstance(other, _READABLE):
                return NotImplemented
            other = as_scalar(other)
        a, b, d = self._t
        c, e, f = other._t
        if d == f:
            return _make(a + c, b + e, d)
        return _make(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            if not isinstance(other, _READABLE):
                return NotImplemented
            other = as_scalar(other)
        a, b, d = self._t
        c, e, f = other._t
        if d == f:
            return _make(a - c, b - e, d)
        return _make(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        return as_scalar(other) - self

    def __neg__(self) -> "GaussianRational":
        a, b, d = self._t
        return _wrap((-a, -b, d))

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            if not isinstance(other, _READABLE):
                return NotImplemented
            other = as_scalar(other)
        a, b, d = self._t
        c, e, f = other._t
        # a factor of exactly 1 gives the other one back, already canonical
        if f == 1 and not e and c == 1:
            return self
        if d == 1 and not b and a == 1:
            return other
        return _make(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b, d = self._t
        if not (a or b):
            raise ZeroDivisionError("division by zero Gaussian rational")
        # d/(a + b*i) = d*(a - b*i)/(a^2 + b^2), the sign on the numerator
        return _make(d * a, -d * b, a * a + b * b)

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        if not isinstance(other, (GaussianRational,) + _READABLE):
            return NotImplemented
        return self * as_scalar(other).inverse()

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        return as_scalar(other) * self.inverse()

    def abs2(self) -> Fraction:
        """Squared modulus, an exact rational."""
        a, b, d = self._t
        return Fraction(a * a + b * b, d * d)

    # -- comparisons ---------------------------------------------------

    def __bool__(self) -> bool:
        a, b, _ = self._t
        return bool(a or b)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self._t == other._t
        if isinstance(other, (int, Fraction)):
            return self._t == (other.numerator, 0, other.denominator)
        return NotImplemented

    def __hash__(self):
        # the hash of the equal int or Fraction for real values
        if not self._t[1]:
            return hash(self.real)
        return hash((self.real, self.imag))

    def __str__(self) -> str:
        # The one place where a computed value becomes text.
        real, imag = self.real, self.imag
        try:
            if not imag:
                return str(real)
            imag_str = f"{imag}*i"
            if not real:
                return imag_str
            if imag > 0:
                return f"{real}+{imag_str}"
            return f"{real}-{-imag}*i"
        except ValueError:
            # past the interpreter's limit on int-to-text conversion
            raise BudgetExceededError(
                "a coefficient's numerator or denominator has more than "
                f"{sys.get_int_max_str_digits()} digits, too many to print"
            ) from None

    def __repr__(self) -> str:
        return f"GaussianRational({str(self)!r})"


_new = object.__new__
_set_triple = GaussianRational._t.__set__


def _wrap(triple) -> GaussianRational:
    """A GaussianRational holding ``triple``, which must be canonical."""
    value = _new(GaussianRational)
    _set_triple(value, triple)
    return value


def _make(re: int, im: int, den: int) -> GaussianRational:
    """(re + im*i)/den for ints with den > 0, reduced to its canonical triple."""
    g = gcd(re, im, den)
    if g != 1:
        re //= g
        im //= g
        den //= g
    # _wrap inlined: this is the constructor of every arithmetic result
    value = _new(GaussianRational)
    _set_triple(value, (re, im, den))
    return value


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def as_scalar(value: ScalarLike) -> GaussianRational:
    """Coerce an int, Fraction, or string to a GaussianRational."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return _wrap((value.numerator, 0, value.denominator))
    if isinstance(value, str):
        return GaussianRational.parse(value)
    raise TypeError(f"cannot interpret {value!r} as an exact scalar")


def add_scaled(acc: dict, terms: Mapping, factor: Optional[GaussianRational] = None) -> None:
    """acc += factor * terms key by key, in place (no factor means 1).

    Both map any keys to GaussianRational values.  Entries that cancel to
    zero are deleted.  ``acc`` must not be ``terms``.
    """
    for key, value in terms.items():
        if factor is not None:
            value = factor * value
        old = acc.get(key)
        total = value if old is None else old + value
        if total:
            acc[key] = total
        elif old is not None:
            del acc[key]
