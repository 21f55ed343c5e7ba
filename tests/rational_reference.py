"""The regex parser of "p/q" strings, kept as the test oracle.

This is the string branch of `jetcover.rational.rat` as it was before the
parser split at "/" and tested ASCII digits, copied unchanged apart from
its name: a full match of ``-?[0-9]+(/[0-9]+)?`` and a nonzero
denominator, with sides past the 4300-digit limit read through `decimal`.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

from jetcover.errors import CertificateFormatError

_WIRE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def reference_rat(value: str) -> Fraction:
    match = _WIRE.fullmatch(value)
    parts = [part or "1" for part in match.groups()] if match else ["0", "0"]
    try:
        num, den = map(int, parts)
    except ValueError:  # ASCII digits, so only the digit limit refuses them
        num, den = (int(Decimal(part)) for part in parts)
    if den == 0:
        raise CertificateFormatError(f"not an ASCII p/q with nonzero denominator: {value!r}")
    return Fraction(num, den)
