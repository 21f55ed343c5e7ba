from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from jetcover import linalg
from jetcover.errors import ShapeError, SingularMatrixError


def dense_mat_mul(a, b):
    """Every product formed, zeros included."""
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), F(0)) for j in range(len(b[0])))
        for i in range(len(a))
    )


@st.composite
def sparse_pairs(draw):
    """Two conformable matrices whose entries are often zero."""
    m, k, n = (draw(st.integers(1, 6)) for _ in range(3))
    entry = st.builds(F, st.integers(-5, 5), st.integers(1, 9)) | st.just(F(0))

    def matrix(rows, cols):
        return tuple(
            tuple(draw(st.lists(entry, min_size=cols, max_size=cols))) for _ in range(rows)
        )

    return matrix(m, k), matrix(k, n)


@settings(deadline=None, max_examples=100)
@given(sparse_pairs())
def test_zero_skipping_mat_mul_equals_the_dense_product(pair):
    a, b = pair
    product = linalg.mat_mul(a, b)
    assert product == dense_mat_mul(a, b)
    assert all(type(e) is F for row in product for e in row)


def solve_by_fractions(a, b):
    """The package's former `linalg.solve`: Gauss-Jordan over Fractions on
    [a | b], the first nonzero pivot of each column taken."""
    n = len(a)
    if n != len(b) or any(len(row) != n for row in a):
        raise ShapeError("solve needs a square system")
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


def inverse_by_fractions(a):
    """The package's former `linalg.inverse`: one `solve_by_fractions` per
    column of the identity."""
    n = len(a)
    cols = [solve_by_fractions(a, tuple(F(1 if i == j else 0) for i in range(n)))
            for j in range(n)]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def outcome(f, *args):
    """f's value, or the type and message of the error it raises."""
    try:
        return f(*args)
    except (ShapeError, SingularMatrixError) as exc:
        return type(exc), str(exc)


@st.composite
def square_matrices(draw):
    """Square matrices of small Fractions, often singular: zero entries and
    repeated rows are common."""
    n = draw(st.integers(0, 5))
    entry = st.builds(F, st.integers(-6, 6), st.integers(1, 7)) | st.just(F(0))
    rows = [tuple(draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        rows[draw(st.integers(1, n - 1))] = rows[0]
    return tuple(rows)


@settings(deadline=None, max_examples=200)
@given(square_matrices())
def test_the_inverse_equals_the_fraction_elimination(a):
    got = outcome(linalg.inverse, a)
    assert got == outcome(inverse_by_fractions, a)  # an error's type and message too
    assert all(type(e) is F for row in got if isinstance(row, tuple) for e in row)
