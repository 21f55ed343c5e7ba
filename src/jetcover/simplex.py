"""Exact two-phase simplex with Bland's rule.

Minimizes c.x subject to A x = b, x >= 0 (standard form; callers
encode free or bounded variables themselves).  The tableau is
fraction-free: each row is a list of Python ints over one positive row
denominator.  A pivot updates a row by integer multiply-subtracts and
then divides the whole row by one gcd, where a Fraction tableau would
normalise every entry.  The reduced-cost row is part of the tableau and
is carried through the pivots.  Ratios compare by cross-multiplication,
so every pivot is the one exact rational arithmetic picks; no floating
point is used.  Each row keeps its own denominator because scaling all
rows to a common one inflates the numbers on the membership LPs.

The primal and dual leave the tableau as Fractions and are re-verified
(feasibility of both, strong duality) before the result leaves this
module, in integer arithmetic once the denominators of the primal, the
dual and each problem row are cleared.  Bland's pivoting rule (lowest
eligible index in, lowest basic index out among tied ratios) guarantees
termination even on degenerate cycling instances.

No module of the package calls it any more: the membership LP and the
flat-polynomial LP are solved by the integer exchanges of `jetcovering`
and `flatpoly`.  It is still exported as `jetcover.lp_solve`, and the
tests solve both LPs' standard forms with it beside the exchanges.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
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
    """Dense tableau of integer rows; columns = structural, artificial, rhs.

    Row i is a list of ints R_i over one positive denominator d_i, so its
    entry j is R_i[j] / d_i.  ``z`` over ``zden`` is the reduced-cost row
    of the running phase's cost, ``cost - c_B . row`` in every column, and
    each pivot updates it like any other row.
    """

    def __init__(self, problem: LPProblem, row_sign: List[int]):
        self.m = len(problem.b)
        self.n = len(problem.objective)
        self.cols = self.n + self.m
        self.rows: List[List[int]] = []
        self.dens: List[int] = []
        for i, (row, bi, sign) in enumerate(zip(problem.a, problem.b, row_sign)):
            ints, den = cleared(list(row) + [bi])
            unit = [0] * self.m
            unit[i] = den
            self.rows.append([sign * e for e in ints[:-1]] + unit + [sign * ints[-1]])
            self.dens.append(den)
        self.basis = [self.n + i for i in range(self.m)]
        self.z: List[int] = [0] * (self.cols + 1)
        self.zden = 1

    def pivot(self, row: int, col: int) -> None:
        prow = self.rows[row]
        pc = prow[col]
        if pc < 0:
            prow = [-e for e in prow]
            pc = -pc
        g = gcd(*prow)
        if g > 1:
            prow = [e // g for e in prow]
            pc //= g
        # The pivot row is prow / pc, so its column entry is exactly 1.
        self.rows[row] = prow
        self.dens[row] = pc
        for r in range(self.m):
            f = self.rows[r][col]
            if r != row and f != 0:
                self.rows[r], self.dens[r] = _eliminate(
                    self.rows[r], self.dens[r], f, prow, pc
                )
        f = self.z[col]
        if f != 0:
            self.z, self.zden = _eliminate(self.z, self.zden, f, prow, pc)
        self.basis[row] = col

    def run_bland(self, cost: List[Fraction], entering_cols: int) -> str:
        """Minimize cost over the current basis, entering only columns below
        ``entering_cols``; returns 'optimal'|'unbounded'."""
        # Each basic row reads 1 in its basic column and 0 in the others,
        # so eliminating the basic columns from the cost leaves cost - c_B . row.
        self.z, self.zden = cleared(list(cost) + [Fraction(0)])
        for i, bv in enumerate(self.basis):
            f = self.z[bv]
            if f != 0:
                self.z, self.zden = _eliminate(
                    self.z, self.zden, f, self.rows[i], self.dens[i]
                )
        for _ in range(_MAX_PIVOTS):
            entering = next(
                (j for j in range(entering_cols) if self.z[j] < 0), None
            )
            if entering is None:
                return "optimal"
            # Bland's ratio test.  A row's ratio rhs / entry needs no row
            # denominator, and with both entries > 0 two ratios compare by
            # cross-multiplication.
            leaving = None
            for i in range(self.m):
                row = self.rows[i]
                a = row[entering]
                if a > 0:
                    num = row[self.cols]
                    if leaving is not None:
                        new, old = num * best_a, best_num * a
                        if new > old or (
                            new == old and self.basis[i] > self.basis[leaving]
                        ):
                            continue
                    leaving, best_num, best_a = i, num, a
            if leaving is None:
                return "unbounded"
            self.pivot(leaving, entering)
        raise ResourceLimitError("pivot cap exceeded")  # unreachable with Bland


def _eliminate(row: List[int], den: int, f: int, prow: List[int], pc: int):
    """row/den - (f/den) * prow/pc, which clears the pivot column, as one
    integer row over den*pc divided by the gcd of all its numbers."""
    out = [pc * e - f * p for e, p in zip(row, prow)]
    den *= pc
    g = gcd(den, *out)
    if g > 1:
        out = [e // g for e in out]
        den //= g
    return out, den


def lp_solve(problem: LPProblem) -> LPSolution:
    """Exact two-phase simplex; see module docstring for guarantees."""
    m, n = len(problem.b), len(problem.objective)
    # Flip rows with a negative rhs so the artificial basis starts feasible.
    row_sign = [-1 if bi < 0 else 1 for bi in problem.b]
    t = _Tableau(problem, row_sign)

    # Phase 1: minimize the sum of artificials.  Every rhs stays >= 0,
    # so the sum is zero exactly when no basic artificial is positive.
    phase1_cost = [Fraction(0)] * t.n + [Fraction(1)] * t.m
    t.run_bland(phase1_cost, t.cols)
    if any(t.rows[i][t.cols] != 0 for i in range(t.m) if t.basis[i] >= t.n):
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
    if redundant:
        # Excise redundant rows so the ratio test never sees them.
        live_rows = [i for i in range(t.m) if i not in redundant]
        t.rows = [t.rows[i] for i in live_rows]
        t.dens = [t.dens[i] for i in live_rows]
        t.basis = [t.basis[i] for i in live_rows]
        t.m = len(t.rows)

    status = t.run_bland(phase2_cost, t.n)
    if status == "unbounded":
        return LPSolution(status="unbounded")

    primal = [Fraction(0)] * n
    for i, bv in enumerate(t.basis):
        if bv < n:
            primal[bv] = Fraction(t.rows[i][t.cols], t.dens[i])
    primal = tuple(primal)

    # Dual from the artificial block: the artificial columns started as the
    # identity, so they accumulate the row-operation weights E with
    # tableau = E @ original_rows.  The artificials cost 0 in phase 2, so
    # their reduced costs are -c_B . E = -y.  Weights on excised redundant
    # rows are still part of a valid multiplier vector.
    dual = tuple(
        row_sign[k] * Fraction(-t.z[t.n + k], t.zden) for k in range(m)
    )

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

