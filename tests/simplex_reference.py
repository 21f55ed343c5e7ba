"""Test oracles for `jetcover.simplex` and the LPs the exchanges solve.

`vertex_lp_solve` decides a standard-form LP by enumerating basic
solutions, with no pivoting: an LP is feasible iff some basic solution
is feasible, unbounded iff it is feasible and some vertex of
{d >= 0, A d = 0, sum d = 1} has c . d < 0, and otherwise its optimum is
the least c . x over its basic feasible solutions.  The tests hold
`lp_solve`'s verdict and optimum against it.  `reference_verify_optimal`
is an optimality check in `Fraction` arithmetic, so it shares no
verifier with the solver; `strong_duality_holds` wraps the solver's own
integer check.  `flat_lp_problem` is the flat-polynomial LP that
`jetcover.flatpoly` solves by its integer exchange, and
`membership_lp_problem` the standard-form membership LP that
`jetcover.jetcovering` solves by its dual exchange; the tests hold both
exchanges against `lp_solve` on them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import perm
from operator import mul

from jetcover.errors import ConstructionError
from jetcover.jets import reverse_jet
from jetcover.linalg import Vec
from jetcover.simplex import LPProblem, LPSolution, _verify_optimal
from jetcovering_helpers import projection_of, radii_of  # local helper module


def membership_lp_problem(sys, target) -> LPProblem:
    """The standard form of max t s.t. projection u = x, |u_i| <= r_i - t,
    t >= 0 that `certify_membership` solved before its dual exchange:
    u_i = s_i - r_i + t with s_i + s'_i + 2t = 2 r_i, s, s', t >= 0, so N + n
    rows over the columns s_0, s'_0, ..., s_{n-1}, s'_{n-1}, t."""
    x = reverse_jet(target).flat()
    bounds = radii_of(sys)
    t = 2 * sys.n  # column of the margin
    rows, rhs = [], []
    for p_row, x_i in zip(projection_of(sys), x):
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
    bounds = radii_of(sys)
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


def _basic_solution(a, b, n, cols):
    """The x with support in `cols` and a x = b, by Gauss-Jordan elimination
    on those columns; None if they are dependent, b is not in their span or
    an entry of x is negative."""
    rows = [[row[j] for j in cols] + [bi] for row, bi in zip(a, b)]
    for k in range(len(cols)):
        p = next((i for i in range(k, len(rows)) if rows[i][k] != 0), None)
        if p is None:
            return None
        pivot = rows[p]
        rows[p] = rows[k]
        rows[k] = [e / pivot[k] for e in pivot]
        for i, row in enumerate(rows):
            if i != k and row[k] != 0:
                rows[i] = [e - row[k] * q for e, q in zip(row, rows[k])]
    if any(row[-1] != 0 for row in rows[len(cols):]):
        return None
    x = [Fraction(0)] * n
    for j, row in zip(cols, rows):
        x[j] = row[-1]
    return x if all(e >= 0 for e in x) else None


def _basic_feasible_solutions(a, b, n):
    """Every basic feasible solution of a x = b, x >= 0 over n columns: a
    basis has at most one column per row."""
    for size in range(min(n, len(b)) + 1):
        for cols in combinations(range(n), size):
            x = _basic_solution(a, b, n, cols)
            if x is not None:
                yield x


def vertex_lp_solve(problem: LPProblem):
    """(status, optimum) of `problem` from its basic solutions alone."""
    c, n = problem.objective, len(problem.objective)
    values = [sum(map(mul, c, x)) for x in _basic_feasible_solutions(problem.a, problem.b, n)]
    if not values:
        return "infeasible", None
    # the recession directions, scaled to sum 1, form a polytope whose
    # vertices are again basic feasible solutions
    directions = _basic_feasible_solutions(
        [*problem.a, [Fraction(1)] * n], [Fraction(0)] * len(problem.b) + [Fraction(1)], n)
    if any(sum(map(mul, c, d)) < 0 for d in directions):
        return "unbounded", None
    return "optimal", min(values)
