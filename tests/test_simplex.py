import dataclasses
import functools
import itertools
import json
import random
from fractions import Fraction as F
from math import floor, lcm, perm, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from jetcover import flatpoly, linalg, simplex
from jetcover.cli import main
from jetcover.errors import ConstructionError, DegenerateInputError
from jetcover.flatpoly import find_flat_poly, minimal_flat_poly
from jetcover.jetcovering import certify_membership
from jetcover.jets import Jet
from jetcover.rational import cleared
from jetcover.simplex import LPProblem, LPSolution, lp_solve
from simplex_reference import (  # local helper module
    flat_lp_problem,
    membership_lp_problem,
    reference_verify_optimal,
    strong_duality_holds,
    vertex_lp_solve,
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
def test_verdict_and_optimum_match_the_vertex_oracle(problem):
    # the verdict and optimum a pivot-free enumeration of basic solutions gives
    sol = lp_solve(problem)
    assert (sol.status, sol.optimum) == vertex_lp_solve(problem)
    assert not sol.is_optimal or _reference_accepts(problem, sol)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_membership_lps_match_reference(order, request):
    # grid points inside the box, one outside it (infeasible) and the zero
    # jet (a degenerate optimal face): the dual exchange certifies exactly
    # when the standard-form membership LP is feasible, and its margin is
    # the LP optimum
    sys = request.getfixturevalue(f"jet_sys_r{order}")
    rng = random.Random(20 + order)
    bounds = sys.coordinate_bounds()
    scales = [F(rng.randint(-1023, 1023), 1024) for _ in range(3)] + [F(2), F(0)]
    statuses = set()
    for scale in scales:
        u = [scale * r * rng.choice([1, -1]) for r in bounds]
        target = Jet.scalar(tuple(reversed(linalg.mat_vec(sys.projection, u))))
        problem = membership_lp_problem(sys, target)
        sol = lp_solve(problem)
        statuses.add(sol.status)
        res = certify_membership(sys, target)
        assert res.certified == sol.is_optimal
        assert not res.certified or res.margin == -sol.optimum
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


def _exchange_solution(big_n, n, nodes, scaled, m):
    """The exchange's basis as a flat LP solution: the p - q split of the
    primal, and the dual y with p(x) = sum_i y_i perm(x, i) solved from
    p(x_k) = sign a_{x_k} at the nodes."""
    primal = [F(0)] * (2 * n)
    for x, a in zip(nodes, scaled):
        primal[x if a > 0 else n + x] = F(abs(a), m)
    y = linalg.mat_vec(
        linalg.inverse(tuple(tuple(F(perm(x, i)) for i in range(big_n)) for x in nodes)),
        tuple(F(1 if a > 0 else -1) for a in scaled),
    )
    return LPSolution("optimal", F(sum(map(abs, scaled)), m), tuple(primal), y)


def _flat_solution(res):
    """A `minimal_flat_poly` result as a flat LP solution: the p - q split
    of Q's non-leading coefficients, with the x^k it divided out put back,
    and its falling-factorial dual."""
    a = (F(0),) * (res.search_degree - res.degree) + res.coeffs[:-1]
    primal = tuple(max(c, F(0)) for c in a) + tuple(max(-c, F(0)) for c in a)
    return LPSolution("optimal", res.optimum, primal, res.dual)


def test_flatpoly_holds_nothing_of_the_simplex():
    # the exchange is the one flat-polynomial solver
    assert not any(v is simplex or getattr(v, "__module__", None) == simplex.__name__
                   for v in vars(flatpoly).values())


@pytest.mark.parametrize("big_n", [1, 2, 3, 4, 5])
def test_warm_flat_ladder_matches_the_cold_ladder(big_n, monkeypatch):
    exchanges, solves = [], []

    def recording_exchange(n, nodes):
        out = exchange(n, nodes)
        exchanges.append((n, list(nodes), out))
        return out

    def recording_solve(problem):
        solves.append(problem)
        return lp_solve(problem)

    exchange = flatpoly._exchange
    monkeypatch.setattr(flatpoly, "_exchange", recording_exchange)
    monkeypatch.setattr(simplex, "lp_solve", recording_solve)
    res = find_flat_poly(big_n)
    monkeypatch.undo()
    # exactly one exchange per history degree, the first from 0..N-1 and
    # each later one from the last optimal nodes at degree p rescaled from
    # [0, p - 1] to [0, p]: x p / (p - 1) rounded half up, the top node to p;
    # none after the ladder, and no LP
    assert solves == []
    assert [n for n, _, _ in exchanges] == [n for n, _ in res.history]
    assert exchanges[0][1] == list(range(big_n))
    for (n, start, _), (p, _, last) in zip(exchanges[1:], exchanges):
        assert n == p + 1
        assert start == [floor(F(x * p, p - 1) + F(1, 2)) for x in last[0][:-1]] + [p]
        assert start == sorted(set(start)) and len(start) == big_n and start[-1] < n
    cold_history = []
    for (n, optimum), (_, _, (nodes, scaled, _, _, m)) in zip(res.history, exchanges):
        problem = flat_lp_problem(big_n, n)
        cold_history.append((n, lp_solve(problem).optimum))
        sol = _exchange_solution(big_n, n, nodes, scaled, m)
        assert sol.optimum == optimum
        assert strong_duality_holds(problem, sol) and _reference_accepts(problem, sol)
    # the ladder ends on the cold solve's vertex, tie or no tie
    cold = minimal_flat_poly(big_n, res.search_degree)
    assert res == dataclasses.replace(cold, history=tuple(cold_history))
    assert (res.coeffs, res.dual) == (cold.coeffs, cold.dual)
    assert [n for n, _ in res.history] == list(range(big_n, res.search_degree + 1))


@pytest.mark.parametrize("big_n, bases", [(4, 29), (8, 254)])
def test_the_ladder_evaluates_a_fixed_number_of_bases(big_n, bases, monkeypatch):
    # the count of exchange bases is fixed by the ladder's start rule
    calls = []
    basis = flatpoly._basis

    def counting_basis(nodes, n):
        calls.append(n)
        return basis(nodes, n)

    monkeypatch.setattr(flatpoly, "_basis", counting_basis)
    find_flat_poly(big_n)
    assert len(calls) == bases


@functools.lru_cache(maxsize=None)
def _reference_flat_lp(big_n, n):
    return lp_solve(flat_lp_problem(big_n, n))


def _lagrange_values(nodes, n):
    """p(0), ..., p(n - 1), lazily, in Fractions, for the basis on `nodes`:
    p = sum_k sigma_k l_k, with the Lagrange basis l_k(x) = w_k
    prod_{m != k} (x - x_m), w_k = 1 / prod_{m != k} (x_k - x_m), and sigma_k
    the sign of a_{x_k} = -l_k(n); the sum runs over the lcm of the w_k's
    denominators."""
    w = [F(1, prod(x - y for y in nodes if y != x)) for x in nodes]
    den = lcm(*(wk.denominator for wk in w))
    sigma = [-1 if wk * prod(n - y for y in nodes if y != x) > 0 else 1 for wk, x in zip(w, nodes)]
    c = [s * wk.numerator * (den // wk.denominator) for s, wk in zip(sigma, w)]
    return (F(sum(ck * prod(j - y for y in nodes if y != x) for ck, x in zip(c, nodes)), den)
            for j in range(n))


@functools.lru_cache(maxsize=None)
def _least_optimal_nodes(big_n, n):
    """The first N-subset of [0, n) in `itertools.combinations` order whose
    basis has |p(j)| <= 1 on all of [0, n)."""
    return next(list(nodes) for nodes in itertools.combinations(range(n), big_n)
                if all(abs(v) <= 1 for v in _lagrange_values(nodes, n)))


@functools.lru_cache(maxsize=None)
def _ladder_bases():
    """The optimal basis at each search degree of `find_flat_poly(N)`, N = 1..7."""
    bases = []
    for big_n in range(1, 8):
        n = find_flat_poly(big_n, n_max=flatpoly.FLAT_DEGREE_CAP).search_degree
        bases.append((tuple(flatpoly._exchange(n, list(range(big_n)))[0]), n))
    return bases


@st.composite
def flat_bases(draw):
    """(nodes, n): N <= 8 sorted nodes in [0, n), n <= 128.  Random nodes
    mostly fail a seed; nodes led by 0..k-1 hold their seeds at the nodes;
    the ladder's optimal bases, and those shifted by one, hold every seed."""
    kind = draw(st.sampled_from(["random", "led", "ladder"]))
    if kind == "ladder":
        nodes, n = draw(st.sampled_from(_ladder_bases()))
        return (nodes, n) if draw(st.booleans()) else (tuple(x + 1 for x in nodes), n + 1)
    big_n = draw(st.integers(1, 8))
    n = draw(st.integers(big_n, 128))
    lead = draw(st.integers(0, big_n)) if kind == "led" else 0
    rest = draw(st.sets(st.integers(lead, max(lead, n - 1)),  # empty if lead = N = n
                        min_size=big_n - lead, max_size=big_n - lead))
    return tuple(range(lead)) + tuple(sorted(rest)), n


@settings(deadline=None, max_examples=200)
@given(flat_bases())
@example(((0, 6, 22, 44, 66, 82, 88), 89))  # find_flat_poly(7)'s optimal basis
@example(((0, 1, 2, 3), 4))  # every j < n is a node
def test_the_basis_values_are_the_lagrange_values(basis):
    nodes, n = basis
    big_n = len(nodes)
    m, scaled, _, diffs, values, over = flatpoly._basis(list(nodes), n)
    ref = list(_lagrange_values(nodes, n))
    lowest = next((j for j, v in enumerate(ref) if abs(v) > 1), None)
    at_seed = lowest is not None and lowest < big_n
    assert over == lowest
    assert [F(a, m) for a in scaled] == [-F(prod(n - y for y in nodes if y != x),
                                            prod(x - y for y in nodes if y != x)) for x in nodes]
    # the list stops at the first seed that fails, else it runs to n - 1;
    # each listed value is M p(j)
    assert len(values) == (lowest + 1 if at_seed else n)
    assert values == [m * v for v in ref[:len(values)]]
    want, row = [], ref[:big_n]
    while row:
        want.append(m * row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    assert diffs == (None if at_seed else want)


@st.composite
def flat_starts(draw):
    big_n = draw(st.integers(1, 4))
    n = draw(st.integers(big_n, 24))
    return big_n, n, sorted(draw(st.sets(
        st.integers(0, n - 1), min_size=big_n, max_size=big_n)))


@settings(deadline=None, max_examples=150)
@given(flat_starts())
@example((5, 11, [0, 1, 2, 3, 4]))  # the exchange and the cold LP tie here
# tied optimal starts, the cold LP's vertex at (5, 11) and one of o3's search
# degree: both move on to the least
@example((5, 11, [0, 1, 5, 9, 10]))
@example((4, 23, [0, 6, 17, 22]))
def test_exchange_from_any_start_reaches_the_lp_optimum(start):
    big_n, n, nodes = start
    nodes, scaled, _, _, m = flatpoly._exchange(n, nodes)
    # from any start, the least optimal basis among those that tie
    assert nodes == _least_optimal_nodes(big_n, n)
    optimum = F(sum(map(abs, scaled)), m)
    assert optimum == _reference_flat_lp(big_n, n).optimum
    flatpoly.certify_degree(big_n, n, *_basis_certificate(big_n, n, nodes))
    problem = flat_lp_problem(big_n, n)
    sol = _exchange_solution(big_n, n, nodes, scaled, m)
    assert strong_duality_holds(problem, sol) and _reference_accepts(problem, sol)


@functools.lru_cache(maxsize=None)
def _cold_exchange(big_n, n):
    return flatpoly._exchange(n, list(range(big_n)))


@st.composite
def exchange_starts(draw):
    """(n, nodes): N <= 8 sorted, distinct nodes in [0, n), n <= 40."""
    big_n = draw(st.integers(1, 8))
    n = draw(st.integers(big_n, 40))
    return n, sorted(draw(st.sets(st.integers(0, n - 1), min_size=big_n, max_size=big_n)))


@settings(deadline=None, max_examples=200)
@given(exchange_starts())
@example((40, [0, 1, 2, 3, 4, 5, 6, 39]))
@example((11, [0, 1, 5, 9, 10]))  # the cold LP's vertex where optimal vertices tie
def test_the_exchange_ends_on_one_vertex_from_every_start(start):
    # what lets the ladder start each degree anywhere: the whole result,
    # nodes, primal, differences, values and M, is the cold start's
    n, nodes = start
    assert flatpoly._exchange(n, nodes) == _cold_exchange(len(nodes), n)


@st.composite
def flat_degrees(draw):
    big_n = draw(st.integers(1, 5))
    return big_n, draw(st.integers(big_n, 30))


@settings(deadline=None, max_examples=100)
@given(flat_degrees())
@example((5, 11))  # the exchange and the cold LP end on tied vertices
@example((4, 23))  # o3's search degree, where optimal vertices tie
@example((5, 40))  # the search degree of order 4
def test_minimal_flat_poly_matches_the_reference_lp(degree):
    big_n, n = degree
    problem = flat_lp_problem(big_n, n)
    lp = _reference_flat_lp(big_n, n)
    res = minimal_flat_poly(big_n, n)
    assert (res.optimum, res.dual) == (lp.optimum, lp.dual)
    sol = _flat_solution(res)
    assert strong_duality_holds(problem, sol) and _reference_accepts(problem, sol)


def test_the_tied_degree_returns_the_cold_exchange_vertex(tmp_path):
    # at (N, n) = (5, 11) the cold exchange and the cold Bland LP end on
    # different optimal vertices, of equal L1 and with equal duals;
    # flat-poly --degree returns the exchange's
    problem = flat_lp_problem(5, 11)
    lp = _reference_flat_lp(5, 11)
    res = minimal_flat_poly(5, 11)
    nodes, scaled, _, _, m = flatpoly._exchange(11, list(range(5)))
    assert nodes == [0, 1, 5, 8, 10] == [j for j, c in enumerate(res.coeffs[:-1]) if c]
    assert [j for j in range(11) if lp.primal[j] or lp.primal[11 + j]] == [0, 1, 5, 9, 10]
    assert res.optimum == F(sum(map(abs, scaled)), m) == lp.optimum == F(13, 2)
    assert res.dual == lp.dual
    assert strong_duality_holds(problem, lp)
    assert strong_duality_holds(problem, _flat_solution(res))
    out = tmp_path / "flat.json"
    assert main(["flat-poly", "--flatness", "5", "--degree", "11", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["coeffs"] == [str(c) for c in res.coeffs]


def _certificate(res):
    """The certificate a flat result states, as `certify_degree` takes it:
    Q and its dual y, each as integers over the lcm of its denominators,
    and the optimum."""
    y, d = cleared(res.dual)
    return cleared(res.coeffs)[0], y, d, res.optimum


def _basis_certificate(big_n, n, nodes):
    """The certificate of the degree-n basis on `nodes`: its assembled
    primal, and the y with sum_i y_i perm(x_k, i) = sign a_{x_k}, solved at
    the nodes apart from the exchange."""
    m, scaled, *_ = flatpoly._basis(list(nodes), n)
    sol = _exchange_solution(big_n, n, nodes, scaled, m)
    return flatpoly._assemble(list(nodes), scaled, m, n), *cleared(sol.dual), sol.optimum


def _dp(y, j):
    """d p(j) for the dual y over d."""
    return sum(c * perm(j, i) for i, c in enumerate(y))


@pytest.mark.parametrize("big_n, n", [(2, 4), (3, 11), (4, 23), (5, 40)])
def test_the_degree_certificate_rejects_a_flipped_sign(big_n, n):
    coeffs, y, d, optimum = _certificate(minimal_flat_poly(big_n, n))
    flatpoly.certify_degree(big_n, n, coeffs, y, d, optimum)
    for j in [j for j, c in enumerate(coeffs[:-1]) if c]:
        flipped = coeffs[:j] + [-coeffs[j]] + coeffs[j + 1:]
        # sum |a_j| and the dual stay, so only the moment rows see it
        with pytest.raises(ConstructionError, match=r"certificate: moment rows$"):
            flatpoly.certify_degree(big_n, n, flipped, y, d, optimum)


@pytest.mark.parametrize("big_n, n", [(2, 6), (3, 11), (4, 23)])
def test_the_degree_certificate_rejects_one_violated_dual_bound(big_n, n):
    # a basis whose own primal and dual agree, but with |p(j)| > 1 at
    # exactly one j < n: only the dual bound can reject it
    found = 0
    for nodes in itertools.combinations(range(n), big_n):
        over = [j for j, v in enumerate(_lagrange_values(nodes, n)) if abs(v) > 1]
        if len(over) == 1:
            found += 1
            coeffs, y, d, optimum = _basis_certificate(big_n, n, nodes)
            assert [j for j in range(n) if abs(_dp(y, j)) > d] == over
            with pytest.raises(ConstructionError, match=rf"certificate: \|p\({over[0]}\)\| <= 1$"):
                flatpoly.certify_degree(big_n, n, coeffs, y, d, optimum)
    assert found


@pytest.mark.parametrize("big_n, n", [(2, 4), (3, 11), (4, 23), (5, 40)])
def test_the_degree_certificate_rejects_the_dual_at_n_minus_1(big_n, n):
    coeffs, y, d, optimum = _certificate(minimal_flat_poly(big_n, n))
    assert F(-_dp(y, n), d) == optimum
    off_by_one = F(-_dp(y, n - 1), d)
    with pytest.raises(ConstructionError, match=r"certificate: sum \|a_j\| = -p\(n\) = optimum$"):
        flatpoly.certify_degree(big_n, n, coeffs, y, d, off_by_one)


@pytest.mark.parametrize("big_n, n", [(3, 11), (4, 23), (5, 40)])
def test_the_degree_certificate_rejects_a_primal_off_its_nodes(big_n, n):
    # swapping two same-sign primal values keeps sum |a_j| and the dual,
    # so only the moment rows can reject it
    coeffs, y, d, optimum = _certificate(minimal_flat_poly(big_n, n))
    first, _, third = [j for j, c in enumerate(coeffs[:-1]) if c][:3]
    assert coeffs[first] * coeffs[third] > 0
    swapped = list(coeffs)
    swapped[first], swapped[third] = coeffs[third], coeffs[first]
    with pytest.raises(ConstructionError, match=r"certificate: moment rows$"):
        flatpoly.certify_degree(big_n, n, swapped, y, d, optimum)


@pytest.mark.parametrize("big_n, n, certificate", [
    (1, 1, ([0], [0], 1, F(0))),  # Q = 0: no leading coefficient M > 0
    (1, 1, ([-1, 1], [0], 0, F(1))),  # y over d = 0 bounds nothing
    # find_flat_poly(2)'s degree-4 Q, L1 5/3, claimed at n = 3, where the
    # optimum is 2; p(j) = (1 - 2j)/3 is bounded on 0..2 with -p(3) = 5/3
    (2, 3, ([1, 0, 0, -4, 3], [1, -2], 3, F(5, 3))),
    # (x - 1)^2 at n = 2 for N = 1, where the optimum is 1; the linear
    # p(j) = 1 - 2j is bounded on 0..1 with -p(2) = 3, but p has degree N
    (1, 2, ([1, -2, 1], [1, -2], 1, F(3))),
])
def test_the_degree_certificate_rejects_a_malformed_certificate(big_n, n, certificate):
    # every other check holds, so only the shape check can reject these
    with pytest.raises(ConstructionError, match=r"certificate: shape$"):
        flatpoly.certify_degree(big_n, n, *certificate)


@settings(deadline=None, max_examples=100)
@given(flat_degrees(), st.data())
def test_the_degree_certificate_is_exact(degree, data):
    # minimal_flat_poly's certificate passes; one y_i moved by 1/d moves
    # -p(n) by perm(n, i)/d, and a moved optimum breaks the equal values
    big_n, n = degree
    coeffs, y, d, optimum = _certificate(minimal_flat_poly(big_n, n))
    flatpoly.certify_degree(big_n, n, coeffs, y, d, optimum)
    i, step = data.draw(st.integers(0, big_n - 1)), data.draw(st.sampled_from([1, -1]))
    moved = y[:i] + [y[i] + step] + y[i + 1:]
    shift = data.draw(st.fractions(-2, 2, max_denominator=10 ** 9).filter(bool))
    for args in [(coeffs, moved, d, optimum), (coeffs, y, d, optimum + shift)]:
        with pytest.raises(ConstructionError, match=r"sum \|a_j\| = -p\(n\) = optimum$"):
            flatpoly.certify_degree(big_n, n, *args)


@pytest.mark.parametrize("big_n", [1, 2, 3, 4, 5])
def test_the_degree_certificate_runs_none_of_the_exchange(big_n, monkeypatch):
    # every ladder degree's certificate, checked with the exchange's code gone
    certificates, certify = [], flatpoly.certify_degree
    monkeypatch.setattr(flatpoly, "certify_degree", lambda *args: certificates.append(args))
    res = find_flat_poly(big_n)
    assert [args[:2] for args in certificates] == [(big_n, n) for n, _ in res.history]

    def producer(*args):
        raise AssertionError("the check ran the exchange's code")

    monkeypatch.setattr(flatpoly, "_basis", producer)
    monkeypatch.setattr(flatpoly, "_exchange", producer)
    for args in certificates:
        certify(*args)


@st.composite
def falling_factorial_duals(draw):
    """(N, y, n, d): a dual y of at most N integers, a degree n and a d
    near the size of the values sum_i y_i perm(j, i), j < n."""
    big_n = draw(st.integers(1, 8))
    y = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=big_n))
    n = draw(st.integers(1, 60))
    top = max(abs(_dp(y, j)) for j in range(n))
    return big_n, y, n, draw(st.integers(1, top + 1))


@settings(deadline=None, max_examples=100)
@given(falling_factorial_duals())
@example((1, [0], 1, 1))
@example((8, [1, -1, 1, -1, 1, -1, 1, -1], 40, 10 ** 9))
def test_the_degree_certificate_values_are_the_falling_factorial_sums(dual):
    # at each degree k <= n, Q = |dp_k| + d x over M = d, with dp_k = sum_i
    # y_i perm(k, i) made <= 0 by the sign of y, claims L1 optimum -dp_k / d:
    # the check of -p(k) passes exactly when the check's d p(k) is dp_k, and
    # the dual bound names the lowest j < k with |dp_j| > d
    big_n, y, n, d = dual
    for k in range(1, n + 1):
        s = -1 if _dp(y, k) > 0 else 1
        dp_k = abs(_dp(y, k))
        lowest = next((j for j in range(k) if abs(_dp(y, j)) > d), None)
        failed = ["moment rows"] + ([f"|p({lowest})| <= 1"] if lowest is not None else [])
        with pytest.raises(ConstructionError) as caught:
            flatpoly.certify_degree(big_n, k, [dp_k, d], [s * c for c in y], d, F(dp_k, d))
        assert str(caught.value) == f"degree {k} fails its certificate: {'; '.join(failed)}"
