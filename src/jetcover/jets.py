"""Truncated jets at parameter 0 and lifts of parametric affine families.

A Jet stores raw derivatives (d^i/da^i at a = 0, *not* divided by i!), so
the product rule is the binomial Leibniz convolution and the lifted matrix
of the family a -> (lam + a) x + delta has subdiagonal entries 1..r.  The
reversal map conjugates those lifts to upper-triangular form with
superdiagonal (N-1, ..., 1); see the jet covering module.

Families here are affine in x with jet-valued coefficients, which covers
every system this package constructs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, List, Sequence, Tuple

from . import linalg
from .errors import DegenerateInputError, ShapeError
from .linalg import Mat, Vec
from .rational import rat


@dataclass(frozen=True)
class Jet:
    """Raw-derivative vector of a parameter-dependent point of R^dim.

    ``coeffs[i][c]`` is the i-th derivative of component c at a = 0.
    """

    order: int
    dim: int
    coeffs: Tuple[Vec, ...]

    def __init__(self, coeffs: Sequence[Sequence]):
        rows = tuple(linalg.vec(row) for row in coeffs)
        if not rows:
            raise DegenerateInputError("a jet needs at least the order-0 entry")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ShapeError("ragged jet coefficients")
        if not rows[0]:
            raise ShapeError("a jet needs at least one component")
        object.__setattr__(self, "order", len(rows) - 1)
        object.__setattr__(self, "dim", len(rows[0]))
        object.__setattr__(self, "coeffs", rows)

    @staticmethod
    def scalar(values: Sequence) -> "Jet":
        """Dim-1 jet from a flat list of raw derivatives."""
        return Jet([[v] for v in values])

    def flat(self) -> Vec:
        if self.dim != 1:
            raise ShapeError("flat() is only for dim-1 jets")
        return tuple(row[0] for row in self.coeffs)

    @staticmethod
    def zero(order: int) -> "Jet":
        """The dim-1 zero jet."""
        return Jet([[Fraction(0)] for _ in range(order + 1)])

    def __add__(self, other: "Jet") -> "Jet":
        if (self.order, self.dim) != (other.order, other.dim):
            raise ShapeError("jet order/dim mismatch")
        return Jet(
            [linalg.vec_add(a, b) for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "Jet") -> "Jet":
        if (self.order, self.dim) != (other.order, other.dim):
            raise ShapeError("jet order/dim mismatch")
        return Jet(
            [linalg.vec_sub(a, b) for a, b in zip(self.coeffs, other.coeffs)]
        )


def jet_mul(u: Jet, v: Jet) -> Jet:
    """Leibniz product on raw derivatives.

    coeffs[i] = sum_j C(i,j) * u[j] * v[i-j], componentwise; u may be a
    dim-1 jet acting on every component of v, or match v's dim exactly.
    """
    if u.order != v.order:
        raise ShapeError(f"jet orders differ: {u.order} vs {v.order}")
    if u.dim not in (1, v.dim):
        raise ShapeError(f"jet dims incompatible: {u.dim} vs {v.dim}")
    r = u.order
    out: List[List[Fraction]] = []
    for i in range(r + 1):
        row = [Fraction(0)] * v.dim
        for j in range(i + 1):
            c = comb(i, j)
            uj = u.coeffs[j]
            vij = v.coeffs[i - j]
            for comp in range(v.dim):
                row[comp] += c * (uj[0] if u.dim == 1 else uj[comp]) * vij[comp]
        out.append(row)
    return Jet(out)


def reverse_jet(j: Jet) -> Jet:
    """Coefficient-order reversal (dim 1); an involution."""
    if j.dim != 1:
        raise ShapeError("reversal is defined for dim-1 jets")
    return Jet(tuple(reversed(j.coeffs)))


@dataclass(frozen=True)
class ParamAffineFamily1D:
    """Family a -> (x -> slope(a) * x + offset(a)) on the line.

    slope and offset are given as dim-1 jets of the coefficient functions
    at a = 0; the slope at a = 0 must be a contraction.
    """

    slope: Jet
    offset: Jet

    def __post_init__(self):
        if self.slope.dim != 1 or self.offset.dim != 1:
            raise ShapeError("coefficient jets must be one-dimensional")
        if self.slope.order != self.offset.order:
            raise ShapeError("slope/offset jets must share the order")
        if abs(self.slope.coeffs[0][0]) >= 1:
            raise DegenerateInputError("family is not contracting at a = 0")

    @property
    def order(self) -> int:
        return self.slope.order


def standard_family(lam, delta: int, order: int) -> ParamAffineFamily1D:
    """The family a -> (x -> (lam + a) x + delta) truncated at ``order``."""
    lam = rat(lam)
    if delta not in (1, -1):
        raise DegenerateInputError("delta must be +1 or -1")
    slope = [lam, Fraction(1)] + [Fraction(0)] * max(0, order - 1)
    offset = [Fraction(delta)] + [Fraction(0)] * order
    return ParamAffineFamily1D(Jet.scalar(slope[: order + 1]), Jet.scalar(offset))


def standard_families(lam, order: int) -> Dict[str, ParamAffineFamily1D]:
    return {
        "+": standard_family(lam, 1, order),
        "-": standard_family(lam, -1, order),
    }


@dataclass(frozen=True)
class JetAffineMap:
    """Affine action on dim-1 jet coordinates: j -> matrix @ j + offset.

    No contraction invariant: these lifts are only eventually contracting
    (spectral radius < 1), their one-step infinity norm may exceed 1.
    """

    matrix: Mat
    offset: Vec

    def __call__(self, j: Jet) -> Jet:
        flat = j.flat()
        if len(flat) != len(self.offset):
            raise ShapeError("jet order does not match the lifted map")
        out = linalg.vec_add(linalg.mat_vec(self.matrix, flat), self.offset)
        return Jet.scalar(out)


def lift_family(fam: ParamAffineFamily1D) -> JetAffineMap:
    """Materialize the induced jet action j -> jet_mul(slope, j) + offset.

    For slope jet (lam, 1, 0, ...) the matrix is lower triangular with
    diagonal lam and subdiagonal i in row i.
    """
    r = fam.order
    n = r + 1
    alpha = fam.slope.flat()
    rows = []
    for i in range(n):
        row = [Fraction(0)] * n
        for k in range(i + 1):
            row[k] = comb(i, i - k) * alpha[i - k]
        rows.append(tuple(row))
    return JetAffineMap(matrix=tuple(rows), offset=fam.offset.flat())


def continuation_jet(
    families: Dict[str, ParamAffineFamily1D],
    word: Sequence[str],
    order: int,
) -> Jet:
    """Jet of a -> evaluate_word at parameter a, truncated at word length.

    Iterates the lifted maps over the word, innermost (last) symbol first,
    from the zero jet, mirroring the point-level convention that word[0]
    is the outermost composition factor.
    """
    word = tuple(word)
    if not word:
        raise DegenerateInputError("continuation needs a nonempty word")
    lifted = {}
    for symbol in set(word):
        if symbol not in families:
            raise ShapeError(f"no family for symbol {symbol!r}")
        fam = families[symbol]
        if fam.order != order:
            raise ShapeError(
                f"family order {fam.order} does not match requested {order}"
            )
        lifted[symbol] = lift_family(fam)
    j = Jet.zero(order)
    for symbol in reversed(word):
        j = lifted[symbol](j)
    return j
