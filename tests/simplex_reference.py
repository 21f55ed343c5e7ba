"""The dense Fraction two-phase simplex, kept as the test oracle.

This is the solver `jetcover.simplex` ran before its tableau moved to
integer rows, copied unchanged apart from the entry point's name.  Both
use Bland's rule with exact arithmetic, so they must take the same
pivots and return equal `LPSolution`s on every problem.  Every cell is a
`Fraction`, and the reduced costs are rebuilt from the basis on every
iteration.  `reference_verify_optimal` is the optimality check the
solver ran in `Fraction` arithmetic before it moved to integers, so the
oracle shares no verifier with the solver; `strong_duality_holds` wraps
the solver's own integer check.  `flat_lp_problem` is the flat-polynomial
LP that `jetcover.flatpoly` solves by its integer exchange, and
`membership_lp_problem` the standard-form membership LP that
`jetcover.jetcovering` solves by its dual exchange; the tests hold both
exchanges against this oracle on them.
"""

from __future__ import annotations

from fractions import Fraction
from math import perm
from typing import List

from jetcover.errors import ConstructionError, ResourceLimitError
from jetcover.jets import reverse_jet
from jetcover.linalg import Vec
from jetcover.simplex import LPProblem, LPSolution, _verify_optimal


_MAX_PIVOTS = 100_000


def membership_lp_problem(sys, target) -> LPProblem:
    """The standard form of max t s.t. projection u = x, |u_i| <= r_i - t,
    t >= 0 that `certify_membership` solved before its dual exchange:
    u_i = s_i - r_i + t with s_i + s'_i + 2t = 2 r_i, s, s', t >= 0, so N + n
    rows over the columns s_0, s'_0, ..., s_{n-1}, s'_{n-1}, t."""
    x = reverse_jet(target).flat()
    bounds = sys.coordinate_bounds()
    t = 2 * sys.n  # column of the margin
    rows, rhs = [], []
    for p_row, x_i in zip(sys.projection, x):
        row = [Fraction(0)] * (t + 1)
        row[0:t:2] = p_row
        row[t] = sum(p_row)
        rows.append(row)
        rhs.append(x_i + sum(p * r for p, r in zip(p_row, bounds)))
    for i, r in enumerate(bounds):
        row = [Fraction(0)] * (t + 1)
        row[2 * i] = row[2 * i + 1] = Fraction(1)
        row[t] = Fraction(2)
        rows.append(row)
        rhs.append(2 * r)
    return LPProblem([Fraction(0)] * t + [Fraction(-1)], rows, rhs)


def membership_from_lp(sys, sol):
    """(certified, witness, margin) of a `membership_lp_problem` solution."""
    if not sol.is_optimal:
        return False, None, None
    t = 2 * sys.n
    margin = sol.primal[t]
    bounds = sys.coordinate_bounds()
    witness = tuple(s - r + margin for s, r in zip(sol.primal[0:t:2], bounds))
    return True, witness, margin


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


class _Tableau:
    """Dense tableau; columns = structural vars then artificials then rhs."""

    def __init__(self, a_rows: List[List[Fraction]], b: List[Fraction], n: int):
        self.m = len(a_rows)
        self.n = n
        self.rows = [list(r) + [Fraction(0)] * self.m + [b[i]]
                     for i, r in enumerate(a_rows)]
        for i in range(self.m):
            self.rows[i][self.n + i] = Fraction(1)
        self.basis = [self.n + i for i in range(self.m)]
        self.cols = self.n + self.m

    def pivot(self, row: int, col: int) -> None:
        piv = self.rows[row][col]
        inv = 1 / piv
        self.rows[row] = [e * inv for e in self.rows[row]]
        for r in range(self.m):
            if r != row and self.rows[r][col] != 0:
                f = self.rows[r][col]
                prow = self.rows[row]
                self.rows[r] = [
                    self.rows[r][j] - f * prow[j] for j in range(self.cols + 1)
                ]
        self.basis[row] = col

    def reduced_costs(self, cost: List[Fraction]) -> List[Fraction]:
        """cost[j] - c_B . column_j for every column (artificials included)."""
        rc = list(cost)
        for i, bv in enumerate(self.basis):
            cb = cost[bv]
            if cb != 0:
                row = self.rows[i]
                for j in range(self.cols):
                    if row[j] != 0:
                        rc[j] -= cb * row[j]
        return rc

    def run_bland(self, cost: List[Fraction], allowed) -> str:
        """Minimize cost over the current basis; returns 'optimal'|'unbounded'."""
        for _ in range(_MAX_PIVOTS):
            rc = self.reduced_costs(cost)
            entering = next(
                (j for j in range(self.cols) if allowed(j) and rc[j] < 0), None
            )
            if entering is None:
                return "optimal"
            leaving = None
            best_ratio = None
            for i in range(self.m):
                aij = self.rows[i][entering]
                if aij > 0:
                    ratio = self.rows[i][self.cols] / aij
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[i] < self.basis[leaving])
                    ):
                        best_ratio = ratio
                        leaving = i
            if leaving is None:
                return "unbounded"
            self.pivot(leaving, entering)
        raise ResourceLimitError("pivot cap exceeded")  # unreachable with Bland


def reference_lp_solve(problem: LPProblem) -> LPSolution:
    """Exact two-phase simplex; see module docstring for guarantees."""
    m, n = len(problem.b), len(problem.objective)
    # Flip rows with a negative rhs so the artificial basis starts feasible.
    row_sign = [-1 if bi < 0 else 1 for bi in problem.b]
    t = _Tableau(
        [[sign * e for e in row] for sign, row in zip(row_sign, problem.a)],
        [sign * bi for sign, bi in zip(row_sign, problem.b)],
        n,
    )

    # Phase 1: minimize the sum of artificials.
    phase1_cost = [Fraction(0)] * t.n + [Fraction(1)] * t.m
    t.run_bland(phase1_cost, allowed=lambda j: True)
    infeas = sum(
        (t.rows[i][t.cols] for i in range(t.m) if t.basis[i] >= t.n), Fraction(0)
    )
    if infeas != 0:
        return LPSolution(status="infeasible")

    # Pivot residual artificials out of the basis; rows with no structural
    # pivot are redundant constraints (their rhs is already zero).
    redundant: List[int] = []
    for i in range(t.m):
        if t.basis[i] >= t.n:
            col = next((j for j in range(t.n) if t.rows[i][j] != 0), None)
            if col is None:
                redundant.append(i)
            else:
                t.pivot(i, col)

    # Phase 2 on the structural objective; artificials may not re-enter.
    phase2_cost = list(problem.objective) + [Fraction(0)] * t.m
    live_rows = [i for i in range(t.m) if i not in redundant]

    def allowed(j: int) -> bool:
        return j < t.n

    if redundant:
        # Excise redundant rows so the ratio test never sees them.
        t.rows = [t.rows[i] for i in live_rows]
        kept_basis = [t.basis[i] for i in live_rows]
        t.m = len(t.rows)
        t.basis = kept_basis

    status = t.run_bland(phase2_cost, allowed)
    if status == "unbounded":
        return LPSolution(status="unbounded")

    primal = [Fraction(0)] * n
    for i, bv in enumerate(t.basis):
        if bv < n:
            primal[bv] = t.rows[i][t.cols]
    primal = tuple(primal)

    # Dual from the artificial block: the artificial columns started as the
    # identity, so they accumulate the row-operation weights E with
    # tableau = E @ original_rows, and y = c_B . E.  Weights on excised
    # redundant rows are still part of a valid multiplier vector.
    y = [Fraction(0)] * m
    for orig_row in range(m):
        col = t.n + orig_row
        val = Fraction(0)
        for i, bv in enumerate(t.basis):
            cb = phase2_cost[bv]
            if cb != 0:
                val += cb * t.rows[i][col]
        y[orig_row] = row_sign[orig_row] * val
    dual = tuple(y)

    optimum = sum(
        (problem.objective[j] * primal[j] for j in range(n)), Fraction(0)
    )
    reference_verify_optimal(problem, primal, dual, optimum)
    return LPSolution(status="optimal", optimum=optimum, primal=primal, dual=dual)


def strong_duality_holds(problem: LPProblem, sol: LPSolution) -> bool:
    """Whether `jetcover.simplex`'s own integer optimality check accepts
    `sol`; the tests run it beside `reference_verify_optimal`."""
    if not sol.is_optimal:
        return False
    try:
        _verify_optimal(problem, sol.primal, sol.dual, sol.optimum)
    except ConstructionError:
        return False
    return True


def reference_verify_optimal(
    problem: LPProblem, primal: Vec, dual: Vec, optimum: Fraction
) -> None:
    """Exact optimality certificate; failure here is a solver bug."""
    m, n = len(problem.b), len(problem.objective)
    for i in range(m):
        lhs = sum(
            (problem.a[i][j] * primal[j] for j in range(n)), Fraction(0)
        )
        if lhs != problem.b[i]:
            raise ConstructionError(f"primal infeasible in row {i}")
    dual_obj = sum((dual[i] * problem.b[i] for i in range(m)), Fraction(0))
    if dual_obj != optimum:
        raise ConstructionError("strong duality violated")
    for j in range(n):
        slack = problem.objective[j] - sum(
            (dual[i] * problem.a[i][j] for i in range(m)), Fraction(0)
        )
        if slack < 0:
            raise ConstructionError(f"dual infeasible at column {j}")
        if primal[j] < 0:
            raise ConstructionError(f"primal sign violated at column {j}")
