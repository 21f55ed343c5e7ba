"""Exact rational scalars and their wire format.

All certified arithmetic in this package runs on `fractions.Fraction`
(arbitrary-precision, canonical reduced form with positive denominator,
courtesy of the stdlib).  On every external surface rationals travel as
decimal-free ``"p/q"`` strings, e.g. ``"-4/3"`` or ``"7"``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RatLike = Union[Fraction, int, str]


def rat(value: RatLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction.

    Floats and decimal/scientific strings are deliberately rejected:
    every certified quantity must enter the system in decimal-free exact
    form ("p/q" or an integer literal).  A zero denominator is a
    ValueError, like any other malformed string.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if "." in text or "e" in text or "E" in text:
            raise ValueError(f"rationals must be decimal-free p/q strings: {text!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {text!r}") from None
    raise TypeError(f"cannot coerce {type(value).__name__} to an exact rational")


def rat_str(value: Fraction) -> str:
    """Serialize to the "p/q" wire form ("p" when the denominator is 1)."""
    return str(value)
