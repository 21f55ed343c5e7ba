"""Exact rational scalars and their wire format.

All certified arithmetic in this package runs on `fractions.Fraction`
(arbitrary-precision, canonical reduced form with positive denominator,
courtesy of the stdlib).  On every external surface rationals travel as
ASCII ``"p/q"`` strings of any length, e.g. ``"-4/3"`` or ``"7"``: sides
past Python's 4300-digit limit for int <-> str go through `decimal`.
`ratio` parses to a reduced integer pair, which the certificate loader
keeps, and `rat` to a Fraction, both by one string parser with no regex.
`rat` is the one coercion of an exact value, wherever it enters: the file
readers, the CLI and the library's entry points (`linalg.vec` and `mat`,
`Interval`) all go through it.  `ratio_str` is the one formatter, and
`rat_str` writes a Fraction by it.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
from typing import List, Sequence, Tuple, Union

from .errors import CertificateFormatError

RatLike = Union[Fraction, int, str]


def _parsed(value: str) -> Tuple[int, int]:
    """The integer pair (num, den) of a "p/q" string, den > 0, unreduced."""
    num, slash, den = value.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if value.isascii() and digits.isdigit() and (den.isdigit() or not slash):
        try:
            num, den = int(num), int(den or 1)
        except ValueError:  # ASCII digits, so only the digit limit refuses them
            num, den = int(Decimal(num)), int(Decimal(den or 1))
        if den:
            return num, den
    raise CertificateFormatError(f"not an ASCII p/q with nonzero denominator: {value!r}")


def ratio(value: RatLike) -> Tuple[int, int]:
    """The reduced integer ratio (num, den), den > 0, of an int, Fraction,
    or "p/q" string, with no Fraction built for a string.

    A string must be ASCII ``-?[0-9]+(/[0-9]+)?`` with a nonzero denominator
    (no whitespace, "+", underscore, non-ASCII digit, point or exponent), or
    it is a CertificateFormatError; a float, bool or other type is a TypeError.
    """
    if isinstance(value, str):
        num, den = _parsed(value)
        g = gcd(num, den)
        return num // g, den // g
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, int):
        return value, 1
    raise TypeError(f"cannot coerce {type(value).__name__} to an exact rational")


def rat(value: RatLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction,
    refusing what `ratio` refuses; a string is reduced once, by Fraction."""
    if isinstance(value, str):
        return Fraction(*_parsed(value))
    if isinstance(value, Fraction):
        return value
    return Fraction(*ratio(value))


def ratio_str(num: int, den: int) -> str:
    """The "p/q" wire form of a reduced ratio, den > 0 ("p" when den is 1)."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # a side past the digit limit
        num, den = str(Decimal(num)), str(Decimal(den))
        return num if den == "1" else f"{num}/{den}"


def rat_str(value: Fraction) -> str:
    """Serialize to the "p/q" wire form ("p" when the denominator is 1)."""
    return ratio_str(value.numerator, value.denominator)


def cleared(values: Sequence[Fraction]) -> Tuple[List[int], int]:
    """(ints, d) with values == ints / d and d the lcm of their denominators."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d
