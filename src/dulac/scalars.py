"""Exact arithmetic in Q(i), the field of Gaussian rationals.

Every coefficient in this package is a number a + b*i with rational a, b
held as ``fractions.Fraction``.  All operations are exact; nothing here
ever rounds.  ``Fraction`` keeps numerators and denominators coprime with
a positive denominator, so values are canonical by construction.

The string form is ``a/b`` for real values and ``a/b+c/d*i`` in general
(denominator omitted when 1, real part omitted when 0).  ``parse`` accepts
that form plus the usual liberties: bare ``i``, ``-i``, ``3i``, ``2*i``.
Each rational part must read ``[+-]digits[/digits]``; decimals, exponents
and digit separators are rejected.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, Optional, Union

from .errors import ScalarParseError

ScalarLike = Union["GaussianRational", Fraction, int, str]


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _frac(text: str) -> Fraction:
    # Only the documented a/b form: Fraction itself would also take
    # decimals, underscores and exponents such as "1e999999999".
    if not _RATIONAL.fullmatch(text):
        raise ScalarParseError(
            f"bad rational {text!r}: expected an integer or a/b")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ScalarParseError(f"bad rational {text!r}: {exc}") from None


class GaussianRational:
    __slots__ = ("real", "imag")

    def __init__(self, real: Union[Fraction, int, str] = 0, imag: Union[Fraction, int] = 0):
        if isinstance(real, str):
            parsed = GaussianRational.parse(real)
            real, imag = parsed.real, parsed.imag
        object.__setattr__(self, "real", Fraction(real))
        object.__setattr__(self, "imag", Fraction(imag))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

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
        other = as_scalar(other)
        return GaussianRational(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        other = as_scalar(other)
        return GaussianRational(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        return as_scalar(other) - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.real, -self.imag)

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        other = as_scalar(other)
        a, b, c, d = self.real, self.imag, other.real, other.imag
        if not b and not d:
            return GaussianRational(a * c)
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        den = self.real * self.real + self.imag * self.imag
        if not den:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(self.real / den, -self.imag / den)

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        return self * as_scalar(other).inverse()

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        return as_scalar(other) * self.inverse()

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an integer")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.real, -self.imag)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact rational."""
        return self.real * self.real + self.imag * self.imag

    # -- comparisons ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.real) or bool(self.imag)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.real == other.real and self.imag == other.imag
        if isinstance(other, (int, Fraction)):
            return self.imag == 0 and self.real == other
        return NotImplemented

    def __hash__(self):
        if not self.imag:
            return hash(self.real)
        return hash((self.real, self.imag))

    def __str__(self) -> str:
        if not self.imag:
            return str(self.real)
        imag_str = f"{self.imag}*i"
        if not self.real:
            return imag_str
        if self.imag > 0:
            return f"{self.real}+{imag_str}"
        return f"{self.real}-{-self.imag}*i"

    def __repr__(self) -> str:
        return f"GaussianRational({str(self)!r})"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def as_scalar(value: ScalarLike) -> GaussianRational:
    """Coerce an int, Fraction, or string to a GaussianRational."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
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
