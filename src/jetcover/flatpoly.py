"""Monic polynomials with a high-order root at 1 and small coefficients.

The construction needs, for each N, a monic Q with (x-1)^N | Q whose
non-leading coefficients have L1 norm strictly below 2.  That existence
is classical; here it is made effective: for fixed degree n the feasible
set is an affine subspace, so the L1 minimum is an exact linear program
(a = p - q splitting), solved by the rational simplex and certified by
strong duality.  Degree escalation then finds the first n whose optimum
clears the requested margin.

Scaling Q to P(x) = lam^{-n} Q(lam x) and the associated partial-sum
polynomials B_k(x) = sum_{j<=k} b_j x^{k-j} feed the jet covering system.
Scaling and the partial-sum table only compute: `jetcovering.build_system`
is the one place that verifies a scaled P, and its semi-conjugacy identity
pins the projection built from the table exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from math import lcm, perm
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .errors import (
    ConstructionError,
    DegenerateInputError,
    SearchExhaustedError,
)
from .rational import rat
from .simplex import LPProblem, lp_solve

Coeffs = Tuple[Fraction, ...]  # index = power, last entry = leading

DEFAULT_MARGIN = Fraction(1, 16)
DEFAULT_N_MAX = 64


# --- dense polynomial helpers ------------------------------------------------


def l1_tail(coeffs: Sequence[Fraction]) -> Fraction:
    """L1 norm of the non-leading coefficients."""
    return sum((abs(c) for c in coeffs[:-1]), Fraction(0))


def synthetic_division(coeffs: Sequence[Fraction], root: Fraction):
    """Divide by (x - root); returns (quotient coeffs, exact remainder)."""
    out: List[Fraction] = []
    carry = Fraction(0)
    for e in reversed(tuple(coeffs)):
        carry = e + carry * root
        out.append(carry)
    remainder = out.pop()
    return tuple(reversed(out)), remainder


def divisible_by_power(coeffs: Sequence[Fraction], root: Fraction, power: int) -> bool:
    """(x - root)^power | poly, checked by repeated exact synthetic division."""
    c = tuple(coeffs)
    for _ in range(power):
        if len(c) < 2:
            return False
        c, rem = synthetic_division(c, root)
        if rem != 0:
            return False
    return True


# --- the L1 linear program ----------------------------------------------------


@dataclass(frozen=True)
class FlatPolyResult:
    """Monic Q with (x-1)^flatness | Q, plus its LP optimality certificate."""

    flatness: int  # N: order of the root at 1
    coeffs: Coeffs  # monic, coeffs[0] != 0 after normalization
    optimum: Fraction  # certified minimal L1 of non-leading coefficients
    dual: Tuple[Fraction, ...]
    search_degree: int  # degree at which the LP was solved
    history: Tuple[Tuple[int, Fraction], ...] = ()

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def l1_nonleading(self) -> Fraction:
        return l1_tail(self.coeffs)


def flat_lp_problem(big_n: int, n: int) -> LPProblem:
    """min sum(p+q) s.t. Q^{(i)}(1) = 0, a_j = p_j - q_j, p, q >= 0."""
    ncols = 2 * n
    rows = []
    for i in range(big_n):
        row = [0] * ncols
        for j in range(i, n):
            row[j] = perm(j, i)
            row[n + j] = -perm(j, i)
        rows.append(row)
    return LPProblem([1] * ncols, rows, [-perm(n, i) for i in range(big_n)])


def _normalize_nonzero_constant(coeffs: Coeffs) -> Coeffs:
    """Divide out x^k so that the constant term is nonzero."""
    k = next(i for i, c in enumerate(coeffs) if c != 0)
    return coeffs[k:]


def minimal_flat_poly(big_n: int, n: int) -> FlatPolyResult:
    """Exact L1-minimal monic degree-n polynomial with an order-N root at 1.

    Always feasible for n >= N ((x-1)^N x^{n-N} is a witness); the result
    is re-verified by synthetic division and by recomputing the L1 norm.
    """
    if not 1 <= big_n <= n:
        raise DegenerateInputError("need n >= N >= 1")
    sol = lp_solve(flat_lp_problem(big_n, n))
    if not sol.is_optimal:
        raise ConstructionError(f"flat LP at (N={big_n}, n={n}) was {sol.status}")
    a = [sol.primal[j] - sol.primal[n + j] for j in range(n)]
    coeffs = tuple(a) + (Fraction(1),)
    l1 = l1_tail(coeffs)
    if l1 != sol.optimum:
        raise ConstructionError("LP optimum disagrees with the recomputed L1")
    if not divisible_by_power(coeffs, Fraction(1), big_n):
        raise ConstructionError("synthetic division found a nonzero remainder")
    normalized = _normalize_nonzero_constant(coeffs)
    return FlatPolyResult(
        flatness=big_n,
        coeffs=normalized,
        optimum=sol.optimum,
        dual=sol.dual,
        search_degree=n,
    )


def find_flat_poly(
    big_n: int,
    margin=DEFAULT_MARGIN,
    n_max: int = DEFAULT_N_MAX,
) -> FlatPolyResult:
    """Escalate the degree until the optimum is <= 2 - margin.

    The optimum is non-increasing in n (multiply by x to embed degree n
    into n+1); that monotonicity is asserted along the way.  The embedding
    warm-starts each degree from the last optimal basis shifted by x Q
    (p_j -> p_{j+1}, q_j -> q_{j+1}), which is primal feasible, and every
    degree's optimum carries a verified certificate.  The degree that meets
    the margin is re-solved cold by `minimal_flat_poly`, as optimal vertices
    tie: at N=4, n=23 cold Bland gives support {0,5,16,22} and the warm
    start {0,6,17,22}, both with L1 106/55.  Exhausting n_max reports the
    best value found.  A cap below N is an input error, and so is a margin
    above 1: Q(1) = 0 puts every optimum at >= 1.
    """
    margin = rat(margin)
    if not 0 < margin <= 1:
        raise DegenerateInputError(
            f"margin {margin} is not in (0, 1]: Q(1) = 0 puts every L1 tail at >= 1")
    if n_max < big_n:
        raise DegenerateInputError(
            f"degree cap {n_max} is below the flatness {big_n}: a root of "
            f"order {big_n} at 1 needs degree >= {big_n}"
        )
    target = 2 - margin
    history: List[Tuple[int, Fraction]] = []
    prev: Optional[Fraction] = None
    start = None
    for n in range(big_n, n_max + 1):
        sol = lp_solve(flat_lp_problem(big_n, n), start)
        if not sol.is_optimal:
            raise ConstructionError(f"flat LP at (N={big_n}, n={n}) was {sol.status}")
        history.append((n, sol.optimum))
        if prev is not None and sol.optimum > prev:
            raise ConstructionError(
                f"optimum increased from {prev} to {sol.optimum} at degree {n}"
            )
        prev = sol.optimum
        if sol.optimum <= target:
            res = minimal_flat_poly(big_n, n)
            if res.optimum != sol.optimum or res.l1_nonleading > target:
                raise ConstructionError("the cold re-solve changed the L1 norm")
            return replace(res, history=tuple(history))
        start = [c + 1 + (c >= n) for c in sol.basis]
    raise SearchExhaustedError(
        f"no degree <= {n_max} reached {target}; best was {prev}"
    )


# --- scaling to P and the partial-sum table ----------------------------------


def scale_to_p(qres: FlatPolyResult, lam) -> Coeffs:
    """P(x) = lam^{-n} Q(lam x), coefficients index = power.

    Only scales: `jetcovering.build_system` verifies P.  Whether lam is
    close enough to 1 for this Q is the question l1_tail(P) < 2.
    """
    lam = rat(lam)
    if not 0 < lam < 1:
        raise DegenerateInputError("contraction must lie strictly in (0, 1)")
    n = qres.degree
    return tuple(qres.coeffs[j] * lam ** (j - n) for j in range(n + 1))


def lambda_threshold(qres: FlatPolyResult) -> Fraction:
    """Largest grid contraction (resolution 2^-20) that still fails the L1 bound.

    The scaled L1 norm sum |a_j| lam^{j-n} is strictly decreasing in lam,
    so the bound holds exactly for grid values above the returned
    threshold and fails at and below it.
    """
    if qres.l1_nonleading >= 2:
        raise DegenerateInputError("threshold needs an optimum below 2")
    n = qres.degree
    a = qres.coeffs
    den = lcm(*(c.denominator for c in a))
    # |a_j| * den * 2^(20 (n - j)) for j = n-1, ..., 0
    weights = [abs(a[j].numerator) * (den // a[j].denominator) << 20 * (n - j)
               for j in reversed(range(n))]

    def holds(k: int) -> bool:
        # sum |a_j| lam^(j-n) < 2 at lam = k / 2^20, times den * 2^(20n) * lam^n
        return reduce(lambda acc, w: acc * k + w, weights, 0) < 2 * den * k ** n

    denom = 2 ** 20
    lo, hi = 1, denom - 1  # grid indices k, lam = k / denom
    if not holds(hi):
        raise ConstructionError("bound fails even adjacent to 1")
    while lo < hi:  # find smallest index where the bound holds
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return Fraction(lo - 1, denom)


def b_polynomial_table(
    p_coeffs: Sequence[Fraction], lam: Fraction, big_n: int
) -> Tuple[Tuple[Fraction, ...], ...]:
    """table[i][k] = i-th derivative of B_k at lam, 0 <= i < N, 0 <= k <= n,
    by the shift recurrences

        B_k = x B_{k-1} + b_k,    B_k^{(i)} = x B_{k-1}^{(i)} + i B_{k-1}^{(i-1)}.

    Not checked here: `jetcovering.verify_semiconjugacy` is the judge of the
    projection built from this table.
    """
    b = tuple(p_coeffs)
    n = len(b) - 1
    table = [[Fraction(0)] * (n + 1) for _ in range(big_n)]
    table[0][0] = b[0]
    for k in range(1, n + 1):
        table[0][k] = lam * table[0][k - 1] + b[k]
        for i in range(1, big_n):
            table[i][k] = lam * table[i][k - 1] + i * table[i - 1][k - 1]
    return tuple(tuple(row) for row in table)


def projection_matrix(
    p_coeffs: Sequence[Fraction], lam: Fraction, big_n: int
) -> linalg.Mat:
    """N x n matrix with entry (i, k) = B_k^{(N-i)}(lam), rows i = 1..N."""
    n = len(p_coeffs) - 1
    table = b_polynomial_table(p_coeffs, lam, big_n)
    return tuple(
        tuple(table[big_n - i][k] for k in range(n)) for i in range(1, big_n + 1)
    )
