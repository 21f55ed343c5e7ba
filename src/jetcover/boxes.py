"""Exact interval and box primitives used by the certifiers.

Intervals are closed with rational endpoints, each coerced through
`rational.rat` when the interval is built, so a float, bool, Decimal or
decimal string is refused there and no Box holds one.  A Box is a frozen,
non-empty n-tuple of intervals.  All operations here are exact; there is
no rounding mode because there is no rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Tuple

from .errors import DegenerateInputError, ShapeError
from .rational import rat, rat_str


@dataclass(frozen=True, slots=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", rat(self.lo))
        object.__setattr__(self, "hi", rat(self.hi))
        if self.lo > self.hi:
            raise DegenerateInputError(f"empty interval {self}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def shrink(self, margin: Fraction) -> "Interval":
        """Closed interval pulled inward by margin on both sides.

        Raises DegenerateInputError when the margin eats the whole interval;
        a certificate against an empty target is meaningless.
        """
        lo, hi = self.lo + margin, self.hi - margin
        if lo > hi:
            raise DegenerateInputError(
                f"margin {rat_str(margin)} exceeds the half-width of {self}"
            )
        return Interval(lo, hi)

    def scale_add(self, a: Fraction, t: Fraction) -> "Interval":
        """Exact image under x -> a*x + t."""
        u, v = a * self.lo + t, a * self.hi + t
        return Interval(u, v) if u <= v else Interval(v, u)

    def __str__(self) -> str:
        return f"[{rat_str(self.lo)}, {rat_str(self.hi)}]"


@dataclass(frozen=True, slots=True, repr=False)
class Box:
    """Closed axis-aligned box: a tuple of intervals."""

    intervals: Tuple[Interval, ...]

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(self.intervals))
        if not self.intervals:
            raise DegenerateInputError("box needs at least one axis")

    @staticmethod
    def of(*bounds) -> "Box":
        """Box.of((lo, hi), (lo, hi), ...) with rational-like bounds."""
        return Box([Interval(lo, hi) for lo, hi in bounds])

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __getitem__(self, i: int) -> Interval:
        return self.intervals[i]

    def contains_point(self, x: Sequence[Fraction]) -> bool:
        if len(x) != self.dim:
            raise ShapeError("point/box dimension mismatch")
        return all(iv.contains(xi) for iv, xi in zip(self.intervals, x))

    def contains_box(self, other: "Box") -> bool:
        if other.dim != self.dim:
            raise ShapeError("box dimension mismatch")
        return all(
            a.contains_interval(b) for a, b in zip(self.intervals, other.intervals)
        )

    def shrink(self, margin: Fraction) -> "Box":
        return Box([iv.shrink(margin) for iv in self.intervals])

    def volume(self) -> Fraction:
        v = Fraction(1)
        for iv in self.intervals:
            v *= iv.width
        return v

    def interiors_disjoint(self, other: "Box") -> bool:
        """True when the open interiors do not meet (touching is fine)."""
        for a, b in zip(self.intervals, other.intervals):
            if a.hi <= b.lo or b.hi <= a.lo:
                return True
        return False

    def __str__(self) -> str:
        return " x ".join(str(iv) for iv in self.intervals)

    def __repr__(self) -> str:
        return f"Box({self})"
