import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from jetcover import flatpoly, linalg
from jetcover.errors import ConstructionError, DegenerateInputError
from jetcover.flatpoly import find_flat_poly, flat_lp_problem, minimal_flat_poly
from jetcover.jetcovering import certify_membership
from jetcover.jets import Jet
from jetcover.simplex import LPProblem, lp_solve, strong_duality_holds
from simplex_reference import (  # local helper module
    reference_lp_solve,
    reference_verify_optimal,
)


def test_trivial_equality():
    sol = lp_solve(LPProblem([1], [[1]], [1]))
    assert sol.is_optimal and sol.optimum == 1 and sol.primal == (F(1),)


def test_l1_split_encoding():
    # the |a0| encoding for a single constrained coefficient
    sol = lp_solve(LPProblem([1, 1], [[1, -1]], [-1]))
    assert sol.optimum == 1
    assert sol.primal == (F(0), F(1))


# classic degenerate instance that cycles under naive pivoting
BEALE = LPProblem(
    [F(-3, 4), 150, F(-1, 50), 6, 0, 0, 0],
    [
        [F(1, 4), -60, F(-1, 25), 9, 1, 0, 0],
        [F(1, 2), -90, F(-1, 50), 3, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ],
    [0, 0, 1],
)


def test_beale_cycling_instance_terminates():
    sol = lp_solve(BEALE)
    assert sol.is_optimal and sol.optimum == F(-1, 20)
    assert strong_duality_holds(BEALE, sol)


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


@st.composite
def mixed_programs(draw):
    """Small LPs of every verdict: entries over mixed denominators, rhs of
    either sign and often zero (degenerate vertices, where Bland's tie rule
    decides), and optionally a duplicated row (kept consistent or made
    contradictory) and an all-zero row (rhs zero or not)."""
    m, n = draw(st.integers(0, 4)), draw(st.integers(1, 5))
    rats = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7, 12]))
    row = st.lists(rats, min_size=n, max_size=n)
    a = draw(st.lists(row, min_size=m, max_size=m))
    b = draw(st.lists(st.one_of(st.just(F(0)), rats), min_size=m, max_size=m))
    if a and draw(st.booleans()):
        k = draw(st.integers(0, m - 1))
        scale = draw(st.sampled_from([F(1), F(-2), F(1, 3)]))
        a.append([scale * e for e in a[k]])
        b.append(scale * b[k] + draw(st.sampled_from([0, 0, 1])))
    if draw(st.booleans()):
        a.append([F(0)] * n)
        b.append(draw(st.sampled_from([F(0), F(0), F(-1, 2)])))
    c = draw(st.lists(rats, min_size=n, max_size=n))
    return LPProblem(c, a, b)


@settings(deadline=None, max_examples=200)
@given(st.one_of(mixed_programs(), feasible_programs().map(lambda pr: pr[0])))
@example(BEALE)
@example(LPProblem([0, 0, 1], [[0, 1, 1], [-1, 0, 1]], [0, 0]))  # a ratio tie
def test_matches_fraction_reference(problem):
    # the integer-row tableau takes the Fraction tableau's pivots exactly
    assert lp_solve(problem) == reference_lp_solve(problem)


@pytest.mark.parametrize("big_n", [1, 2, 3, 4])
def test_flat_lps_match_reference(big_n):
    for n in range(big_n, big_n + 21):
        problem = flat_lp_problem(big_n, n)
        assert lp_solve(problem) == reference_lp_solve(problem), n


@pytest.mark.parametrize("order", [0, 1, 2])
def test_membership_lps_match_reference(order, request, monkeypatch):
    # grid points inside the box, one outside it (infeasible) and the zero
    # jet (a degenerate optimal face)
    sys = request.getfixturevalue(f"jet_sys_r{order}")
    problems = []

    def recording_solve(problem):
        problems.append(problem)
        return lp_solve(problem)

    monkeypatch.setattr("jetcover.jetcovering.lp_solve", recording_solve)
    rng = random.Random(20 + order)
    bounds = sys.coordinate_bounds()
    scales = [F(rng.randint(-1023, 1023), 1024) for _ in range(3)] + [F(2), F(0)]
    for scale in scales:
        u = [scale * r * rng.choice([1, -1]) for r in bounds]
        x = linalg.mat_vec(sys.projection, u)
        certify_membership(sys, Jet.scalar(tuple(reversed(x))))
    statuses = set()
    for problem in problems:
        sol = reference_lp_solve(problem)
        assert lp_solve(problem) == sol
        statuses.add(sol.status)
    assert statuses == {"optimal", "infeasible"}


def _reference_accepts(problem, sol):
    try:
        reference_verify_optimal(problem, sol.primal, sol.dual, sol.optimum)
    except ConstructionError:
        return False
    return True


@settings(deadline=None, max_examples=150)
@given(feasible_programs(), st.data())
def test_perturbed_certificates_rejected_by_both_verifiers(program, data):
    problem, _ = program
    sol = lp_solve(problem)
    assert strong_duality_holds(problem, sol) and _reference_accepts(problem, sol)
    eps = data.draw(st.fractions(-3, 3, max_denominator=7).filter(bool))
    kind = data.draw(st.sampled_from(["primal", "dual", "optimum"]))
    if kind == "primal":
        # every column meets the sum(x) row, so a moved entry breaks a row
        j = data.draw(st.integers(0, len(sol.primal) - 1))
        primal = list(sol.primal)
        primal[j] += eps
        bad = dataclasses.replace(sol, primal=tuple(primal))
    elif kind == "dual":
        # a dual weight on a row with b_i != 0 moves the dual objective
        rows = [i for i, bi in enumerate(problem.b) if bi != 0]
        assume(rows)
        i = data.draw(st.sampled_from(rows))
        dual = list(sol.dual)
        dual[i] += eps
        bad = dataclasses.replace(sol, dual=tuple(dual))
    else:
        bad = dataclasses.replace(sol, optimum=sol.optimum + eps)
    assert not strong_duality_holds(problem, bad)
    assert not _reference_accepts(problem, bad)


def test_a_costlier_feasible_primal_is_rejected():
    # x_1 meets no row, so raising it keeps every row and the dual objective:
    # only the primal cost check sees that c . x is no longer the optimum
    problem = LPProblem([1, 1], [[1, 0]], [1])
    sol = lp_solve(problem)
    assert sol.primal == (1, 0) and strong_duality_holds(problem, sol)
    assert not strong_duality_holds(problem, dataclasses.replace(sol, primal=(F(1), F(1))))


@settings(deadline=None, max_examples=100)
@given(feasible_programs())
def test_warm_start_from_the_optimal_basis_returns_the_same_solution(program):
    problem, _ = program
    cold = lp_solve(problem)
    assume(len(cold.basis) == len(problem.b))  # no redundant row was excised
    assert lp_solve(problem, start=cold.basis) == cold
    assert lp_solve(problem, start=tuple(reversed(cold.basis))) == cold


@pytest.mark.parametrize("start, what", [
    ((0, 4), "singular"),  # p_0 and q_0 are opposite columns
    ((1, 1), "singular"),
    ((0, 1), "not primal feasible"),  # a_0 + a_1 = -1, a_1 = -4 gives p_1 = -4
    ((0,), "not 2 structural columns"),
    ((0, 8), "not 2 structural columns"),  # column 8 is an artificial
])
def test_a_bad_start_basis_is_a_construction_error(start, what):
    with pytest.raises(ConstructionError, match=what):
        lp_solve(flat_lp_problem(2, 4), start=start)


@pytest.mark.parametrize("big_n", [1, 2, 3, 4, 5])
def test_warm_flat_ladder_matches_the_cold_ladder(big_n, monkeypatch):
    solves = []

    def recording_solve(problem, start=None):
        sol = lp_solve(problem, start)
        solves.append((problem, start, sol))
        return sol

    monkeypatch.setattr(flatpoly, "lp_solve", recording_solve)
    res = find_flat_poly(big_n)
    ladder = [(problem, sol) for problem, _, sol in solves[:len(res.history)]]
    assert [start is None for _, start, _ in solves[:len(res.history)]] == (
        [True] + [False] * (len(res.history) - 1)
    )  # a cold first degree, then every degree warm
    cold_history = []
    for (n, optimum), (problem, sol) in zip(res.history, ladder):
        cold_history.append((n, reference_lp_solve(problem).optimum))
        assert sol.optimum == optimum
        assert strong_duality_holds(problem, sol) and _reference_accepts(problem, sol)
    monkeypatch.undo()
    # the search degree's vertex is the cold solve's, tie or no tie
    cold = minimal_flat_poly(big_n, res.search_degree)
    assert res == dataclasses.replace(cold, history=tuple(cold_history))
    assert (res.coeffs, res.dual) == (cold.coeffs, cold.dual)
    assert [n for n, _ in res.history] == list(range(big_n, res.search_degree + 1))
