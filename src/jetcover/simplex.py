"""Exact two-phase simplex with Bland's rule.

Minimizes c.x subject to A x = b, x >= 0 (standard form; callers
encode free or bounded variables themselves).  The tableau is dense,
every cell a Fraction, and phase 1 starts from the artificial basis
with the rows of negative rhs flipped.  The reduced costs are rebuilt
from the basis before each pivot.  Bland's rule (Bland, Math. Oper.
Res. 1977: the lowest eligible column enters, the lowest basic index
leaves among tied ratios) guarantees termination even on degenerate
cycling instances, and no floating point is used.

The primal and dual leave the tableau as Fractions and are re-verified
(feasibility of both, strong duality) before the result leaves this
module, in integer arithmetic once the denominators of the primal, the
dual and each problem row are cleared; that check shares no code with
the tableau.

No module of the package calls it: the membership LP and the
flat-polynomial LP are solved by the integer exchanges of `jetcovering`
and `flatpoly`.  It is exported as `jetcover.lp_solve`, and the tests
solve both LPs' standard forms with it beside the exchanges.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .errors import ConstructionError, DegenerateInputError, ResourceLimitError
from .linalg import Mat, Vec, mat, vec
from .rational import cleared


@dataclass(frozen=True)
class LPProblem:
    """min objective . x  s.t.  a @ x == b,  x >= 0."""

    objective: Vec
    a: Mat
    b: Vec

    def __init__(self, objective, a, b):
        objective = vec(objective)
        a = mat(a)
        b = vec(b)
        if len(a) != len(b):
            raise DegenerateInputError("constraint matrix and rhs sizes differ")
        if a and len(a[0]) != len(objective):
            raise DegenerateInputError("objective length must match columns")
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    optimum: Optional[Fraction] = None
    primal: Optional[Vec] = None
    dual: Optional[Vec] = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


_MAX_PIVOTS = 100_000


class _Tableau:
    """Dense tableau of Fraction cells; columns = structural, artificial, rhs."""

    def __init__(self, problem: LPProblem, row_sign: List[int]):
        m, n = len(problem.b), len(problem.objective)
        self.rows: List[List[Fraction]] = []
        for i, (row, bi, sign) in enumerate(zip(problem.a, problem.b, row_sign)):
            unit = [Fraction(0)] * m
            unit[i] = Fraction(1)
            self.rows.append([sign * e for e in row] + unit + [sign * bi])
        self.basis = [n + i for i in range(m)]

    def pivot(self, row: int, col: int) -> None:
        inv = 1 / self.rows[row][col]
        prow = self.rows[row] = [e * inv for e in self.rows[row]]
        for r, other in enumerate(self.rows):
            f = other[col]
            if r != row and f != 0:
                self.rows[r] = [e - f * p for e, p in zip(other, prow)]
        self.basis[row] = col

    def reduced_costs(self, cost: List[Fraction]) -> List[Fraction]:
        """cost[j] - c_B . column_j for every column but the rhs."""
        rc = list(cost)
        for bv, row in zip(self.basis, self.rows):
            if cost[bv] != 0:
                rc = [r - cost[bv] * e for r, e in zip(rc, row)]
        return rc

    def run_bland(self, cost: List[Fraction], entering_cols: int) -> str:
        """Minimize cost over the current basis, entering only columns below
        ``entering_cols``; returns 'optimal'|'unbounded'."""
        for _ in range(_MAX_PIVOTS):
            rc = self.reduced_costs(cost)
            entering = next((j for j in range(entering_cols) if rc[j] < 0), None)
            if entering is None:
                return "optimal"
            leaving = None
            for i, row in enumerate(self.rows):
                if row[entering] > 0:
                    ratio = row[-1] / row[entering]
                    if leaving is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leaving]
                    ):
                        leaving, best = i, ratio
            if leaving is None:
                return "unbounded"
            self.pivot(leaving, entering)
        raise ResourceLimitError("pivot cap exceeded")  # unreachable with Bland


def lp_solve(problem: LPProblem) -> LPSolution:
    """Exact two-phase simplex; see module docstring for guarantees."""
    m, n = len(problem.b), len(problem.objective)
    # Flip rows with a negative rhs so the artificial basis starts feasible.
    row_sign = [-1 if bi < 0 else 1 for bi in problem.b]
    t = _Tableau(problem, row_sign)

    # Phase 1: minimize the sum of artificials.  Every rhs stays >= 0,
    # so the sum is zero exactly when no basic artificial is positive.
    t.run_bland([Fraction(0)] * n + [Fraction(1)] * m, n + m)
    if any(row[-1] != 0 for row, bv in zip(t.rows, t.basis) if bv >= n):
        return LPSolution(status="infeasible")

    # Pivot residual artificials out of the basis; rows with no structural
    # pivot are redundant constraints (their rhs is already zero).
    redundant: List[int] = []
    for i in range(m):
        if t.basis[i] >= n:
            col = next((j for j in range(n) if t.rows[i][j] != 0), None)
            if col is None:
                redundant.append(i)
            else:
                t.pivot(i, col)
    # Excise redundant rows so the ratio test never sees them.
    live_rows = [i for i in range(m) if i not in redundant]
    t.rows = [t.rows[i] for i in live_rows]
    t.basis = [t.basis[i] for i in live_rows]

    # Phase 2 on the structural objective; artificials may not re-enter.
    phase2_cost = list(problem.objective) + [Fraction(0)] * m
    if t.run_bland(phase2_cost, n) == "unbounded":
        return LPSolution(status="unbounded")

    primal = [Fraction(0)] * n
    for row, bv in zip(t.rows, t.basis):
        if bv < n:
            primal[bv] = row[-1]
    primal = tuple(primal)

    # Dual from the artificial block: the artificial columns started as the
    # identity, so they accumulate the row-operation weights E with
    # tableau = E @ original_rows.  The artificials cost 0 in phase 2, so
    # their reduced costs are -c_B . E = -y.  Weights on excised redundant
    # rows are still part of a valid multiplier vector.
    rc = t.reduced_costs(phase2_cost)
    dual = tuple(-row_sign[k] * rc[n + k] for k in range(m))

    optimum = sum(map(operator.mul, problem.objective, primal), Fraction(0))
    _verify_optimal(problem, primal, dual, optimum)
    return LPSolution(status="optimal", optimum=optimum, primal=primal, dual=dual)


def _verify_optimal(
    problem: LPProblem, primal: Vec, dual: Vec, optimum: Fraction
) -> None:
    """Exact optimality certificate; failure here is a solver bug.  In integers:
    x = xs/dx, c = cs/dc, row i = r_i/d_i (b_i last), and y_i/d_i = ys_i/dy."""
    xs, dx = cleared(primal)
    cs, dc = cleared(problem.objective)
    rows = [cleared(list(row) + [bi]) for row, bi in zip(problem.a, problem.b)]
    ys, dy = cleared([y / d for y, (_, d) in zip(dual, rows)])
    for i, (r, _) in enumerate(rows):
        if sum(map(operator.mul, r, xs)) != r[-1] * dx:
            raise ConstructionError(f"primal infeasible in row {i}")
    num, den = optimum.numerator, optimum.denominator
    if sum(y * r[-1] for y, (r, _) in zip(ys, rows)) * den != num * dy:
        raise ConstructionError("strong duality violated")
    if sum(map(operator.mul, cs, xs)) * den != num * dc * dx:
        raise ConstructionError("primal cost is not the optimum")
    for j, cj in enumerate(cs):
        if cj * dy < dc * sum(y * r[j] for y, (r, _) in zip(ys, rows) if y):
            raise ConstructionError(f"dual infeasible at column {j}")
        if xs[j] < 0:
            raise ConstructionError(f"primal sign violated at column {j}")

