from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcover.errors import DegenerateInputError
from jetcover.simplex import LPProblem, lp_solve, strong_duality_holds


def test_trivial_equality():
    sol = lp_solve(LPProblem([1], [[1]], [1]))
    assert sol.is_optimal and sol.optimum == 1 and sol.primal == (F(1),)


def test_l1_split_encoding():
    # the |a0| encoding for a single constrained coefficient
    sol = lp_solve(LPProblem([1, 1], [[1, -1]], [-1]))
    assert sol.optimum == 1
    assert sol.primal == (F(0), F(1))


def test_beale_cycling_instance_terminates():
    # classic degenerate instance that cycles under naive pivoting
    c = [F(-3, 4), 150, F(-1, 50), 6, 0, 0, 0]
    a = [
        [F(1, 4), -60, F(-1, 25), 9, 1, 0, 0],
        [F(1, 2), -90, F(-1, 50), 3, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    problem = LPProblem(c, a, [0, 0, 1])
    sol = lp_solve(problem)
    assert sol.is_optimal and sol.optimum == F(-1, 20)
    assert strong_duality_holds(problem, sol)


def test_infeasible_verdict():
    assert lp_solve(LPProblem([0], [[1]], [-1])).status == "infeasible"


def test_unbounded_verdict():
    assert lp_solve(LPProblem([-1, 0], [[1, -1]], [0])).status == "unbounded"
    assert lp_solve(LPProblem([-1], [], [])).status == "unbounded"  # no rows


def test_redundant_rows():
    problem = LPProblem([1, 1], [[1, 1], [1, 1]], [2, 2])
    sol = lp_solve(problem)
    assert sol.is_optimal and sol.optimum == 2
    assert strong_duality_holds(problem, sol)


def test_shape_validation():
    with pytest.raises(DegenerateInputError):
        LPProblem([1, 2], [[1]], [1])
    with pytest.raises(DegenerateInputError):
        LPProblem([1], [[1]], [1, 2])


@st.composite
def feasible_programs(draw):
    """A bounded LP with a known feasible point x* >= 0: random rows plus
    sum(x) = sum(x*), which boxes the region so it cannot be unbounded."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(2, 5))

    def rats(lo, hi, den):
        return st.builds(F, st.integers(lo, hi), st.integers(1, den))

    x_star = draw(st.lists(rats(0, 6, 4), min_size=n, max_size=n))
    row = st.lists(rats(-4, 4, 3), min_size=n, max_size=n)
    a = draw(st.lists(row, min_size=m, max_size=m)) + [[F(1)] * n]
    c = draw(st.lists(rats(-5, 5, 3), min_size=n, max_size=n))
    b = [sum(aij * x for aij, x in zip(r, x_star)) for r in a]
    return LPProblem(c, a, b), x_star


@settings(deadline=None)
@given(feasible_programs())
def test_random_feasible_programs_certified(program):
    # every optimum must carry an exact strong-duality certificate
    problem, x_star = program
    sol = lp_solve(problem)
    assert sol.is_optimal
    assert strong_duality_holds(problem, sol)
    cx = sum(cj * x for cj, x in zip(problem.objective, x_star))
    assert sol.optimum <= cx  # the seed point is feasible
