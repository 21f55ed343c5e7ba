"""Test-only reference for the partial-sum table: direct differentiation.

`flatpoly.b_polynomial_table` uses the shift recurrences; this module
evaluates each derivative of each B_k(x) = sum_{j<=k} b_j x^{k-j} from its
coefficient list, sharing no code with it.
"""

from fractions import Fraction


def poly_eval(coeffs, x):
    """Horner evaluation, coefficient index = power."""
    acc = Fraction(0)
    for c in reversed(tuple(coeffs)):
        acc = acc * x + c
    return acc


def poly_nth_derivative(coeffs, i):
    c = tuple(coeffs)
    for _ in range(i):
        c = tuple(c[j] * j for j in range(1, len(c)))
    return c


def reference_b_table(p_coeffs, lam, big_n):
    """table[i][k] = B_k^{(i)}(lam), each entry differentiated directly."""
    b = tuple(p_coeffs)
    n = len(b) - 1
    return tuple(
        tuple(
            poly_eval(poly_nth_derivative([b[k - d] for d in range(k + 1)], i), lam)
            for k in range(n + 1)
        )
        for i in range(big_n)
    )
