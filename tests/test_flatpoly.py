import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatpoly_reference import (  # local helper module
    divisible_by_power,
    poly_eval,
    poly_nth_derivative,
    reference_b_table,
    reference_lambda_threshold,
    reference_projection,
    synthetic_division,
)
from jetcovering_helpers import projection_matrix  # local helper module
from simplex_reference import flat_lp_problem, strong_duality_holds  # local helper module
from jetcover import flatpoly, jetcovering
from jetcover.errors import (
    ConstructionError,
    DegenerateInputError,
    ResourceLimitError,
    SearchExhaustedError,
)
from jetcover.flatpoly import (
    FLAT_DEGREE_CAP,
    FlatPolyResult,
    find_flat_poly,
    l1_tail,
    lambda_threshold,
    minimal_flat_poly,
    scale_to_p,
)
from jetcover.jetcovering import auto_lambda, build_system
from jetcover.simplex import LPSolution, lp_solve


def test_synthetic_division_exact():
    # (x-1)^2 (x+2) = x^3 - 3x + 2
    coeffs = (F(2), F(-3), F(0), F(1))
    q, rem = synthetic_division(coeffs, F(1))
    assert rem == 0
    q2, rem2 = synthetic_division(q, F(1))
    assert rem2 == 0 and q2 == (F(2), F(1))
    assert divisible_by_power(coeffs, F(1), 2)
    assert not divisible_by_power(coeffs, F(1), 3)


def test_minimal_flat_forced_linear():
    res = minimal_flat_poly(1, 1)
    assert res.coeffs == (F(-1), F(1))
    assert res.optimum == 1


def test_minimal_flat_n2_degree3_oracle():
    # reduce the two equality constraints to one free coefficient and
    # grid-scan the resulting piecewise-linear objective exactly
    def l1_of(a2):
        a1 = -3 - 2 * a2
        a0 = 2 + a2
        return abs(a0) + abs(a1) + abs(a2)

    breakpoints = [F(-2), F(-3, 2), F(0)]
    grid = breakpoints + [F(k, 8) for k in range(-40, 17)]
    oracle_min = min(l1_of(a) for a in grid)
    res = minimal_flat_poly(2, 3)
    assert res.optimum == 2 == oracle_min == l1_of(F(-3, 2))


def test_minimal_flat_rejected_inputs():
    with pytest.raises(DegenerateInputError):
        minimal_flat_poly(3, 2)
    with pytest.raises(DegenerateInputError):
        minimal_flat_poly(0, 1)
    with pytest.raises(ResourceLimitError, match=f"above {FLAT_DEGREE_CAP}"):
        minimal_flat_poly(5, FLAT_DEGREE_CAP + 1)


def _moved_up(c, k):
    """c with its entry k added to entry k + 1 and k cleared."""
    c = list(c)
    c[k + 1] += c[k]
    c[k] = 0
    return c


ASSEMBLY_MUTANTS = {
    "drops the last node": lambda c: c[:-2] + [0, c[-1]],
    "drops the leading M": lambda c: c[:-1] + [0],
    "divides out one x too many": lambda c: c[1:],
    "moves the first coefficient up": lambda c: _moved_up(c, 0),
    "moves the last node up": lambda c: _moved_up(c, len(c) - 2),
}


@pytest.mark.parametrize("big_n, n", [(2, 4), (3, 9), (4, 23)])
@pytest.mark.parametrize("mutant", sorted(ASSEMBLY_MUTANTS))
def test_minimal_flat_catches_an_assembly_fault(monkeypatch, big_n, n, mutant):
    # the exchange and its dual are sound; only the coefficient vector built
    # from them is wrong, and the certificate's moment rows, evaluated on
    # that vector, see that (x - 1)^N no longer divides it (a leading
    # coefficient that is no longer positive breaks the shape too)
    assemble = flatpoly._assemble
    assert divisible_by_power(minimal_flat_poly(big_n, n).coeffs, F(1), big_n)
    monkeypatch.setattr(
        flatpoly, "_assemble", lambda *args: ASSEMBLY_MUTANTS[mutant](assemble(*args)))
    failure = f"degree {n} fails its certificate: (shape; )?moment rows"
    with pytest.raises(ConstructionError, match=failure):
        minimal_flat_poly(big_n, n)


def test_escalation_n2():
    res = find_flat_poly(2)
    assert res.optimum == F(5, 3)
    assert res.search_degree == 4
    assert res.coeffs[0] != 0
    assert divisible_by_power(res.coeffs, F(1), 2)
    # history is monotone non-increasing and starts at (x-1)^2
    values = [v for _, v in res.history]
    assert values[0] == 3
    assert all(values[i + 1] <= values[i] for i in range(len(values) - 1))


def test_escalation_n3_meets_margin():
    res = find_flat_poly(3)
    assert res.optimum <= 2 - F(1, 16)
    assert divisible_by_power(res.coeffs, F(1), 3)


def test_escalation_duality_certificate():
    res = find_flat_poly(2)
    problem = flat_lp_problem(res.flatness, res.search_degree)
    sol = lp_solve(problem)
    assert sol.optimum == res.optimum
    assert strong_duality_holds(
        problem, LPSolution("optimal", sol.optimum, sol.primal, res.dual)
    )


def test_escalation_exhaustion():
    with pytest.raises(SearchExhaustedError):
        find_flat_poly(2, margin=F(1, 16), n_max=3)


@pytest.mark.parametrize("big_n, n_max", [(4, 2), (2, 1), (1, 0)])
def test_escalation_rejects_cap_below_flatness(big_n, n_max, monkeypatch):
    # no degree below N has a root of order N at 1, so no exchange step
    # may run
    def no_exchange(*args):
        raise AssertionError("an exchange ran")

    monkeypatch.setattr("jetcover.flatpoly._exchange", no_exchange)
    with pytest.raises(DegenerateInputError, match="below the flatness"):
        find_flat_poly(big_n, n_max=n_max)


@pytest.mark.parametrize("margin", [F(3, 2), F(1) + F(1, 2 ** 20), 2, 0, -1])
def test_escalation_rejects_unreachable_margin(margin, monkeypatch):
    # Q(1) = 0 puts every non-leading L1 norm at >= 1, so no exchange step
    # may run
    def no_exchange(*args):
        raise AssertionError("an exchange ran")

    monkeypatch.setattr("jetcover.flatpoly._exchange", no_exchange)
    with pytest.raises(DegenerateInputError, match="is not in"):
        find_flat_poly(2, margin=margin)


@pytest.mark.parametrize("n_max", [FLAT_DEGREE_CAP + 1, 10 ** 6])
def test_escalation_rejects_a_degree_cap_above_the_limit(n_max, monkeypatch):
    # the ladder's cost is bounded before it starts
    def no_exchange(*args):
        raise AssertionError("an exchange ran")

    monkeypatch.setattr("jetcover.flatpoly._exchange", no_exchange)
    with pytest.raises(ResourceLimitError, match=f"above {FLAT_DEGREE_CAP}"):
        find_flat_poly(40, n_max=n_max)


@pytest.mark.parametrize("big_n", [0, -3])
def test_escalation_rejects_a_flatness_below_one(big_n, monkeypatch):
    # no Q has a root of order below 1 to find; refused before any exchange
    def no_exchange(*args):
        raise AssertionError("an exchange ran")

    monkeypatch.setattr("jetcover.flatpoly._exchange", no_exchange)
    with pytest.raises(DegenerateInputError, match="below 1"):
        find_flat_poly(big_n)


@pytest.mark.parametrize("big_n", [1, 4, 5])
def test_the_ladder_certifies_each_degree_once(big_n, monkeypatch):
    # the search degree is the ladder's own last vertex: no second solve
    certified, certify = [], flatpoly.certify_degree

    def counting_certify(big_n, n, *args):
        certified.append(n)
        return certify(big_n, n, *args)

    def no_cold_solve(*args):
        raise AssertionError("the ladder re-solved a degree")

    monkeypatch.setattr(flatpoly, "certify_degree", counting_certify)
    monkeypatch.setattr(flatpoly, "minimal_flat_poly", no_cold_solve)
    res = find_flat_poly(big_n)
    assert certified == [n for n, _ in res.history] == list(range(big_n, res.search_degree + 1))


def test_escalation_margin_one_is_reachable():
    # N = 1 meets a margin of exactly 1 with Q = x - 1
    res = find_flat_poly(1, margin=1)
    assert res.coeffs == (F(-1), F(1)) and res.optimum == 1


def test_scale_to_p_example():
    q1 = minimal_flat_poly(1, 1)
    p = scale_to_p(q1, F(3, 4))
    assert p == (F(-4, 3), F(1))
    assert l1_tail(p) == F(4, 3)
    assert build_system(1, F(3, 4), p).p_coeffs == p


def test_scale_to_p_lambda_too_small():
    q1 = minimal_flat_poly(1, 1)
    p = scale_to_p(q1, F(1, 3))
    assert l1_tail(p) == 3
    with pytest.raises(DegenerateInputError, match="not below 2"):
        build_system(1, F(1, 3), p)


@pytest.mark.parametrize("big_n", [1, 2, 3])
def test_build_system_accepts_exactly_below_l1_two(big_n):
    # the L1 tail is the only verdict a caller asks: on the whole 2^-10
    # grid and at the threshold's bracket, build_system accepts exactly
    # where it is below 2 and rejects every other contraction as input
    q = find_flat_poly(big_n)
    th = lambda_threshold(q)
    lams = [F(k, 2 ** 10) for k in range(1, 2 ** 10)] + [th, th + F(1, 2 ** 20)]
    accepted = 0
    for lam in lams:
        p = scale_to_p(q, lam)
        if l1_tail(p) < 2:
            assert build_system(big_n, lam, p).p_coeffs == p
            accepted += 1
        else:
            with pytest.raises(DegenerateInputError):
                build_system(big_n, lam, p)
    assert 0 < accepted < len(lams)


def test_scale_to_p_rejects_boundary_lambda():
    q1 = minimal_flat_poly(1, 1)
    with pytest.raises(DegenerateInputError):
        scale_to_p(q1, 1)
    with pytest.raises(DegenerateInputError):
        scale_to_p(q1, 0)


def test_lambda_threshold_linear():
    q1 = minimal_flat_poly(1, 1)
    th = lambda_threshold(q1)
    assert th == F(1, 2)
    eps = F(1, 2 ** 20)
    # bound fails at the threshold, holds one grid step above
    assert not (abs(q1.coeffs[0]) / th < 2)
    assert abs(q1.coeffs[0]) / (th + eps) < 2


def test_lambda_threshold_bracket_scaling(flat_q2):
    th = lambda_threshold(flat_q2)
    eps = F(1, 2 ** 20)
    assert l1_tail(scale_to_p(flat_q2, th)) >= 2
    assert l1_tail(scale_to_p(flat_q2, th + eps)) < 2


def test_threshold_monotone_in_flatness(flat_q2, flat_q3):
    assert lambda_threshold(flat_q3) >= lambda_threshold(flat_q2)


def _threshold_or_error(threshold, qres):
    try:
        return threshold(qres)
    except (ConstructionError, DegenerateInputError) as exc:
        return type(exc)


@st.composite
def monic_tails(draw):
    """A monic polynomial of degree n <= 40 whose non-leading coefficients
    have a drawn L1 norm in (0, 2], often near 2 where the bound fails
    even adjacent to 1."""
    n = draw(st.integers(1, 40))
    nums = draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n).filter(any))
    l1 = draw(st.one_of(
        st.fractions(F(1, 100), 2, max_denominator=1000),
        st.builds(lambda k: 2 - F(1, 2 ** k), st.integers(10, 40)),
    ))
    scale = l1 / sum(abs(x) for x in nums)
    coeffs = tuple(x * scale for x in nums) + (F(1),)
    return FlatPolyResult(flatness=1, coeffs=coeffs, optimum=l1, dual=(), search_degree=n)


@settings(deadline=None, max_examples=150)
@given(monic_tails())
def test_lambda_threshold_matches_fraction_bisection(qres):
    # the integer bisection decides every grid point as the Fraction one did
    assert _threshold_or_error(lambda_threshold, qres) == _threshold_or_error(
        reference_lambda_threshold, qres
    )


@pytest.mark.parametrize("big_n", [1, 2, 3, 4])
def test_lambda_threshold_of_flat_polys_matches_fraction_bisection(big_n):
    qres = find_flat_poly(big_n)
    assert lambda_threshold(qres) == reference_lambda_threshold(qres)


def test_b_table_base_case():
    # pi_0 = b_0 e_N = (0, B_0), and pi_1 = J pi_0 + b_1 e_N = (B_1', B_1)
    # with B_1(lam) = lam b_0 + b_1 and B_1' = b_0
    assert projection_matrix((F(-4, 3), F(1)), F(3, 4), 1) == ((F(-4, 3),),)
    pi = projection_matrix((F(-4, 3), F(1, 2), F(1)), F(3, 4), 2)
    assert pi == ((0, F(-4, 3)), (F(-4, 3), F(-1, 2)))


def test_build_system_judges_root_order_and_table(flat_q2, monkeypatch):
    # a P without a root of order N at 1/lam is an input error: x + 1 has
    # no root at 4/3, and (x - 4/3)(x - 1/4) only a simple one
    with pytest.raises(DegenerateInputError, match="root of order 1"):
        build_system(1, F(3, 4), (F(1), F(1)))
    simple_root = (F(1, 3), F(-19, 12), F(1))
    assert build_system(1, F(3, 4), simple_root).p_coeffs == simple_root
    with pytest.raises(DegenerateInputError, match="root of order 2"):
        build_system(2, F(3, 4), simple_root)
    # a wrong table entry, a structural zero or one next to B_n, is caught
    # by the semi-conjugacy judge
    lam = auto_lambda(lambda_threshold(flat_q2))
    p = scale_to_p(flat_q2, lam)
    beta, big_b, good, den = jetcovering.projection_rows(p, lam, 2)
    for i, k in ((0, 0), (1, len(p) - 2)):
        rows = [[7 * e for e in row] for row in good]
        rows[i][k] += den
        assert F(rows[i][k], 7 * den) == F(good[i][k], den) + F(1, 7)
        bad = (beta, big_b, rows, 7 * den)
        monkeypatch.setattr(jetcovering, "projection_rows", lambda *args, bad=bad: bad)
        with pytest.raises(ConstructionError, match="semi-conjugacy"):
            build_system(2, lam, p)


coefficients = st.builds(F, st.integers(-9, 9), st.integers(1, 9))


@settings(max_examples=60, deadline=None)
@given(
    coefficients.filter(lambda c: c != 0),
    st.lists(coefficients, max_size=6),
    st.builds(lambda a, b: F(a, a + b), st.integers(1, 50), st.integers(1, 50)),
    st.integers(1, 5),
)
def test_b_table_matches_direct_differentiation(b0, middle, lam, big_n):
    # the column recurrence equals direct differentiation for any monic b
    # with b_0 != 0, whether or not P has a root at 1/lam
    p = (b0, *middle, F(1))
    assert projection_matrix(p, lam, big_n) == reference_projection(p, lam, big_n)


def test_b_table_derivative_recurrence_random():
    # B_k^{(i)}(x) = x B_{k-1}^{(i)}(x) + i B_{k-1}^{(i-1)}(x) at random x,
    # checked against direct polynomial differentiation
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(2, 6)
        b = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] + [F(1)]
        x = F(rng.randint(-9, 9), rng.randint(1, 5))

        def bk_coeffs(k):
            return tuple(b[k - d] for d in range(k + 1))

        for k in range(1, n + 1):
            for i in range(1, 4):
                lhs = poly_eval(poly_nth_derivative(bk_coeffs(k), i), x)
                rhs = x * poly_eval(
                    poly_nth_derivative(bk_coeffs(k - 1), i), x
                ) + i * poly_eval(poly_nth_derivative(bk_coeffs(k - 1), i - 1), x)
                assert lhs == rhs


def test_projection_from_table(flat_q2):
    lam = lambda_threshold(flat_q2) + F(1, 2 ** 10)
    p = scale_to_p(flat_q2, lam)
    pi = projection_matrix(p, lam, 2)
    assert build_system(2, lam, p).projection == pi
    table = reference_b_table(p, lam, 2)
    n = len(p) - 1
    for i in range(1, 3):
        for k in range(n):
            assert pi[i - 1][k] == table[2 - i][k]
