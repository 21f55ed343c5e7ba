from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from jetcover import linalg


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
