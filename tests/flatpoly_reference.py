"""Test-only reference for the projection: direct differentiation.

`jetcovering.projection_rows` builds the projection in integers by the
column recurrence pi_{k+1} = J pi_k + b_{k+1} e_N; this module evaluates
each derivative of each B_k(x) = sum_{j<=k} b_j x^{k-j} from its
coefficient list, sharing no code with it.  `reference_lambda_threshold`
is the Fraction bisection that `flatpoly.lambda_threshold` ran before it
moved to integers.  `divisible_by_power` tests a root's order by repeated
synthetic division, independently of the moment rows of `flatpoly` and of
the semi-conjugacy residual of `jetcovering.build_system`.
"""

from fractions import Fraction

from jetcover.errors import ConstructionError, DegenerateInputError


def synthetic_division(coeffs, root):
    """Divide by (x - root); returns (quotient coeffs, exact remainder)."""
    out = []
    carry = Fraction(0)
    for e in reversed(tuple(coeffs)):
        carry = e + carry * root
        out.append(carry)
    remainder = out.pop()
    return tuple(reversed(out)), remainder


def divisible_by_power(coeffs, root, power):
    """(x - root)^power | poly, checked by repeated exact synthetic division."""
    c = tuple(coeffs)
    for _ in range(power):
        if len(c) < 2:
            return False
        c, rem = synthetic_division(c, root)
        if rem != 0:
            return False
    return True


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


def reference_projection(p_coeffs, lam, big_n):
    """The projection reoriented from the table: entry (i, k) = B_k^{(N-1-i)}(lam), k < n."""
    table = reference_b_table(p_coeffs, lam, big_n)
    return tuple(tuple(row[:-1]) for row in reversed(table))


def reference_lambda_threshold(qres):
    """Largest grid contraction (resolution 2^-20) that still fails the L1 bound."""
    if qres.optimum >= 2:
        raise DegenerateInputError("threshold needs an optimum below 2")
    n = qres.degree
    a = qres.coeffs

    def holds(lam: Fraction) -> bool:
        return sum(
            (abs(a[j]) * lam ** (j - n) for j in range(n)), Fraction(0)
        ) < 2

    denom = 2 ** 20
    lo, hi = 1, denom - 1  # grid indices k, lam = k / denom
    if not holds(Fraction(hi, denom)):
        raise ConstructionError("bound fails even adjacent to 1")
    while lo < hi:  # find smallest index where the bound holds
        mid = (lo + hi) // 2
        if holds(Fraction(mid, denom)):
            hi = mid
        else:
            lo = mid + 1
    return Fraction(lo - 1, denom)
