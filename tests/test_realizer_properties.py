"""Property tests: the realizer's closed forms against the generic paths.

Contractions come from the 2^-10 grid in (1/2, 1); systems use grid
contractions strictly above the threshold of their order (0 to 3).  The
membership LP is checked against box points whose projection is known.
"""

from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcover import linalg
from jetcover.errors import ResourceLimitError
from jetcover.flatpoly import find_flat_poly, lambda_threshold, scale_to_p
from jetcover.jetcovering import (
    IntegerPullback,
    branch_matrix,
    build_system,
    certify_membership,
    power_norm_numerator,
    realization_steps,
    realize_jet,
    residual_bound,
    word_jet,
)
from jetcover.jets import Jet, continuation_jet, standard_families
from jetcovering_helpers import fraction_pullback_step  # local helper module

GRID = 2 ** 10
lams = st.integers(GRID // 2 + 1, GRID - 1).map(lambda j: F(j, GRID))
words = st.text("+-", min_size=1, max_size=40)
orders = st.integers(0, 3)
grid_points = st.integers(-GRID + 1, GRID - 1).map(lambda j: F(j, GRID))


@lru_cache(maxsize=None)
def flat_and_threshold(order):
    flat = find_flat_poly(order + 1)
    return flat, lambda_threshold(flat)


@lru_cache(maxsize=None)
def grid_system(order, lam):
    return build_system(order + 1, lam, scale_to_p(flat_and_threshold(order)[0], lam))


@st.composite
def systems(draw, top_order=3):
    order = draw(st.integers(0, top_order))
    threshold = flat_and_threshold(order)[1]
    first = threshold.numerator * GRID // threshold.denominator + 1
    return grid_system(order, F(draw(st.integers(first, GRID - 1)), GRID))


@settings(deadline=None)
@given(lams, words, orders)
def test_word_jet_matches_lifted_maps(lam, word, order):
    families = standard_families(lam, order)
    assert word_jet(lam, word, order) == continuation_jet(families, word, order)
    assert word_jet(lam, "", order) == Jet.zero(order)


@settings(deadline=None)
@given(lams, st.integers(1, 5), st.integers(0, 60))
def test_power_norm_matches_matrix_power(lam, jet_dim, k):
    power = linalg.identity(jet_dim)
    for _ in range(k):
        power = linalg.mat_mul(power, branch_matrix(jet_dim, lam))
    norm = F(power_norm_numerator(lam, jet_dim, k), lam.denominator ** k)
    assert norm == linalg.inf_norm_mat(power)


@settings(deadline=None)
@given(lams, st.integers(1, 5), st.integers(1, 400))
def test_power_norm_is_log_concave(lam, jet_dim, k):
    # the premise of the bisection in realization_steps; the common
    # factor q^(2k) cancels from both sides
    before, at, after = (
        power_norm_numerator(lam, jet_dim, j) for j in (k - 1, k, k + 1)
    )
    assert at * at >= before * after


@settings(max_examples=40, deadline=None)
@given(systems(), st.integers(1, 12))
def test_realization_steps_is_the_first_step_meeting_tol(sys, bits):
    tol = F(1, 2 ** bits)
    try:
        k = realization_steps(sys, tol, max_steps=2000)
    except ResourceLimitError:
        assert residual_bound(sys, 2000) > tol
        return
    assert residual_bound(sys, k) <= tol
    earlier = set(range(min(k, 20))) | set(range(max(k - 20, 0), k))
    assert all(residual_bound(sys, j) > tol for j in earlier)
    assert realization_steps(sys, tol, max_steps=k) == k
    if k > 0:
        with pytest.raises(ResourceLimitError):
            realization_steps(sys, tol, max_steps=k - 1)


@settings(max_examples=40, deadline=None)
@given(systems(), st.integers(1, 40), st.randoms(use_true_random=False))
def test_integer_pullback_matches_fraction_step(sys, steps, rng):
    bounds = sys.coordinate_bounds()
    u = tuple(F(rng.randint(-1000, 1000), 1000) * r for r in bounds)
    pullback = IntegerPullback(sys, u)
    assert pullback.point() == u
    for _ in range(steps):
        delta, u = fraction_pullback_step(sys, u)
        assert pullback.step() == delta
        assert pullback.point() == u


@settings(max_examples=40, deadline=None)
@given(systems(top_order=2), st.data())
def test_membership_certifies_projected_grid_points(sys, data):
    # u* on the 2^-10 grid strictly inside the box: its target is interior,
    # and the LP's witness meets it exactly with the optimal uniform margin
    bounds = sys.coordinate_bounds()
    u_star = [data.draw(grid_points) * r for r in bounds]
    x = linalg.mat_vec(sys.projection, u_star)
    res = certify_membership(sys, Jet.scalar(tuple(reversed(x))))
    assert res.certified
    assert linalg.mat_vec(sys.projection, res.witness) == x
    assert all(abs(w) <= r - res.margin for w, r in zip(res.witness, bounds))
    assert res.margin >= min(r - abs(u) for u, r in zip(u_star, bounds))


@pytest.mark.parametrize("order", [0, 1])
def test_realize_zero_steps(order):
    # tol at the reach itself needs no pullback step: the word is empty,
    # the zero jet is realized and the residual is the target's size
    sys = grid_system(order, F(1023, GRID))
    reach = sys.reach
    assert realization_steps(sys, reach) == 0
    half = tuple(r / 2 for r in sys.coordinate_bounds())
    x = linalg.mat_vec(sys.projection, half)
    target = Jet.scalar(tuple(reversed(x)))
    res = realize_jet(sys, target, reach)
    assert res.steps == 0 and res.itinerary == ()
    assert res.achieved_residual == max(abs(c) for c in x)
    assert res.achieved_residual <= res.residual_bound == reach
