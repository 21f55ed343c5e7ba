"""Small exact linear algebra over Fraction.

Matrices are tuples of row tuples, vectors are tuples.  `vec` and `mat`
coerce every entry through `rational.rat`, so a float, bool, Decimal or
decimal string is refused where a value enters.  The one elimination is
`integer_inverse`, fraction-free Gauss-Jordan in integers (Bareiss, Math.
Comp. 1968); `inverse` is its Fraction view.  Sizes here never exceed a
few dozen, so no pivoting strategy beyond "first nonzero" is needed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import ShapeError, SingularMatrixError
from .rational import cleared, rat

Vec = Tuple[Fraction, ...]
Mat = Tuple[Vec, ...]


def vec(entries: Sequence) -> Vec:
    return tuple(map(rat, entries))


def mat(rows: Sequence[Sequence]) -> Mat:
    m = tuple(tuple(map(rat, row)) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise ShapeError("ragged matrix")
    return m


def identity(n: int) -> Mat:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def mat_vec(a: Mat, x: Vec) -> Vec:
    if a and len(a[0]) != len(x):
        raise ShapeError(f"matrix is {len(a)}x{len(a[0])}, vector has {len(x)}")
    return tuple(sum((row[j] * x[j] for j in range(len(x))), Fraction(0)) for row in a)


def mat_mul(a: Mat, b: Mat) -> Mat:
    if len(a[0]) != len(b):
        raise ShapeError(f"inner dimensions {len(a[0])} != {len(b)}")
    # every entry is the full row-by-column sum; a zero factor adds nothing,
    # so only the nonzero products are formed
    rows = [[(e, b[k]) for k, e in enumerate(row) if e != 0] for row in a]
    return tuple(
        tuple(sum((e * r[j] for e, r in terms if r[j] != 0), Fraction(0))
              for j in range(len(b[0])))
        for terms in rows
    )


def mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(
        tuple(a[i][j] - b[i][j] for j in range(len(a[0]))) for i in range(len(a))
    )


def vec_sub(x: Vec, y: Vec) -> Vec:
    return tuple(x[i] - y[i] for i in range(len(x)))


def vec_add(x: Vec, y: Vec) -> Vec:
    return tuple(x[i] + y[i] for i in range(len(x)))


def inf_norm_vec(x: Vec) -> Fraction:
    return max((abs(e) for e in x), default=Fraction(0))


def inf_norm_mat(a: Mat) -> Fraction:
    """Operator infinity norm: max absolute row sum."""
    return max(
        (sum((abs(e) for e in row), Fraction(0)) for row in a), default=Fraction(0)
    )


def integer_inverse(rows: Sequence[Sequence[int]]) -> Tuple[List[List[int]], int]:
    """(M, d) with d > 0 and M = d rows^-1 in integers, by fraction-free
    Gauss-Jordan on [rows | I]: each update divides exactly by the last
    pivot, and the final pivot is the determinant, up to sign.  A
    non-square matrix is a ShapeError, a singular one a SingularMatrixError."""
    size = len(rows)
    if any(len(row) != size for row in rows):
        raise ShapeError("an inverse needs a square matrix")
    m = [[*row, *(int(i == k) for k in range(size))] for i, row in enumerate(rows)]
    last = 1
    for k in range(size):
        p = next((i for i in range(k, size) if m[i][k]), None)
        if p is None:
            raise SingularMatrixError(f"singular at column {k}")
        m[k], m[p] = m[p], m[k]
        pivots, piv = m[k], m[k][k]
        for i, row in enumerate(m):
            f = row[k]
            if i != k:
                m[i] = [(piv * a - f * b) // last for a, b in zip(row, pivots)]
        last = piv
    sign = 1 if last > 0 else -1
    return [[sign * e for e in row[size:]] for row in m], sign * last


def inverse(a: Mat) -> Mat:
    """a^-1 as Fractions: row i of a is R_i / D_i in integers, so a^-1 =
    R^-1 diag(D) = M diag(D) / d for (M, d) = `integer_inverse`(R)."""
    rows = list(map(cleared, a))
    m, d = integer_inverse([r for r, _ in rows])
    return tuple(tuple(Fraction(e * den, d) for e, (_, den) in zip(row, rows)) for row in m)
