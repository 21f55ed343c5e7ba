"""Small exact linear algebra over Fraction.

Matrices are tuples of row tuples, vectors are tuples.  Everything is
Gaussian elimination with exact pivots; sizes here never exceed a few
dozen, so no pivoting strategy beyond "first nonzero" is needed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Tuple

from .errors import ShapeError, SingularMatrixError

Vec = Tuple[Fraction, ...]
Mat = Tuple[Vec, ...]


def vec(entries: Sequence) -> Vec:
    return tuple(Fraction(e) for e in entries)


def mat(rows: Sequence[Sequence]) -> Mat:
    m = tuple(tuple(Fraction(e) for e in row) for row in rows)
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


def solve(a: Mat, b: Vec) -> Vec:
    """Solve a x = b exactly; raises SingularMatrixError when rank-deficient."""
    n = len(a)
    if n != len(b) or any(len(row) != n for row in a):
        raise ShapeError("solve needs a square system")
    # augmented working copy
    rows = [list(a[i]) + [b[i]] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            raise SingularMatrixError(f"singular at column {col}")
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [e * inv for e in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [rows[r][j] - f * rows[col][j] for j in range(n + 1)]
    return tuple(rows[i][n] for i in range(n))


def inverse(a: Mat) -> Mat:
    n = len(a)
    cols = [solve(a, tuple(Fraction(1 if i == j else 0) for i in range(n)))
            for j in range(n)]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))

