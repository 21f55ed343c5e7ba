"""Property tests: the realizer's closed forms against the generic paths.

Contractions come from the 2^-10 grid in (1/2, 1); systems use grid
contractions strictly above the threshold of their order (0 to 3).  The
membership LP is checked against box points whose projection is known.
"""

import random
import tracemalloc
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcover import jetcovering, linalg
from jetcover.errors import DegenerateInputError, ResourceLimitError
from jetcover.flatpoly import find_flat_poly, lambda_threshold, scale_to_p
from jetcover.jetcovering import (
    PRECISION_FLOOR,
    branch_matrix,
    build_system,
    certify_membership,
    fixed_point_pullback,
    power_norm_numerator,
    power_norm_sum,
    realization_plan,
    realize_jet,
    residual_bound,
    word_jet,
)
from jetcover.jets import Jet, continuation_jet, standard_families
from jetcovering_helpers import (  # local helper module
    IntegerPullback,
    fixed_point_step,
    fraction_pullback_step,
    power_norms,
    projection_of,
    radii_of,
    rounding_term,
)

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
    norm = F(power_norm_numerator(lam, jet_dim, k), lam.denominator ** k)
    assert norm == power_norms(jet_dim, lam, k)[-1]


@settings(deadline=None)
@given(lams, st.integers(1, 4), st.integers(0, 40))
def test_power_norm_sum_bounds_the_matrix_power_norms(lam, jet_dim, k):
    # the rounding term's S against norm(J^t) of generic matrix powers,
    # t = 0..k: a realization of k steps sums t = 1..k
    assert power_norm_sum(lam, jet_dim) >= sum(power_norms(jet_dim, lam, k))


@settings(deadline=None)
@given(lams, st.integers(1, 5), st.integers(1, 400))
def test_power_norm_is_log_concave(lam, jet_dim, k):
    # the premise of the bisection in realization_plan; the common
    # factor q^(2k) cancels from both sides
    before, at, after = (
        power_norm_numerator(lam, jet_dim, j) for j in (k - 1, k, k + 1)
    )
    assert at * at >= before * after


@settings(max_examples=40, deadline=None)
@given(systems(), st.integers(1, 12))
def test_realization_steps_is_the_first_step_meeting_tol(sys, bits):
    # k = 0 meets tol with residual_bound(0) <= tol, and k > 0 with
    # residual_bound(k) < tol, which leaves room to round
    tol = F(1, 2 ** bits)
    try:
        k = realization_plan(sys, tol, max_steps=2000)[0]
    except ResourceLimitError:
        assert residual_bound(sys, 2000) >= tol
        return
    assert residual_bound(sys, k) < tol or k == 0 and residual_bound(sys, 0) == tol
    earlier = set(range(min(k, 20))) | set(range(max(k - 20, 0), k))
    assert all(residual_bound(sys, j) > tol if j == 0 else residual_bound(sys, j) >= tol
               for j in earlier)
    assert realization_plan(sys, tol, max_steps=k)[0] == k
    if k > 0:
        with pytest.raises(ResourceLimitError):
            realization_plan(sys, tol, max_steps=k - 1)


def steps_by_the_old_rule(sys, tol, max_steps):
    """The step count of the retrying realizer: the least k with
    residual_bound(k) <= tol, by doubling and bisection, then one step
    more when k > 0 and residual_bound(k) = tol, within max_steps."""
    def meets(k):
        return residual_bound(sys, k) <= tol

    lo, hi = -1, 0
    while not meets(hi):
        if hi >= max_steps:
            raise ResourceLimitError(f"unreachable within {max_steps} steps")
        lo, hi = hi, min(2 * hi + 1, max_steps)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if meets(mid) else (mid, hi)
    if hi and residual_bound(sys, hi) == tol:
        if hi == max_steps:
            raise ResourceLimitError(f"unreachable within {max_steps} steps")
        hi += 1
    return hi


def old_bound(sys, k, tol):
    """(P, bound) of the former two-call realizer, in Fractions: the least
    P >= PRECISION_FLOOR with bound = residual_bound(sys, k) + 2^-P (max_i
    |pi_{i,n-1}| S + norm(pi)) <= tol; k = 0 rounds nothing."""
    bound = residual_bound(sys, k)
    if bound > tol or k and bound == tol:
        raise DegenerateInputError(f"{k} steps leave no room to round below tol {tol}")
    if k == 0:
        return 0, bound
    _, _, rows, den = sys.integer_rows
    term = (max(abs(row[-1]) for row in rows) * power_norm_sum(sys.lam, sys.jet_dim)
            + max(sum(map(abs, row)) for row in rows)) / den
    precision = max(PRECISION_FLOOR, (-(-term // (tol - bound)) - 1).bit_length())
    return precision, bound + term / 2 ** precision


@settings(max_examples=60, deadline=None)
@given(systems(), st.integers(0, 300), st.sampled_from(["exact", "above", "below", "dyadic"]),
       st.integers(1, 12), st.integers(0, 400))
def test_realization_steps_keeps_the_retrying_rule(sys, j, where, bits, max_steps):
    # the one plan gives the k that the search plus one retry step gave,
    # and the (P, bound) of the former Fraction rule for that k, for a tol
    # of exactly residual_bound(j), next to it, or a power of 2, with the
    # step cap below or above it
    bound = residual_bound(sys, j)
    tol = {"exact": bound, "above": bound * (1 + F(1, 2 ** 40)),
           "below": bound * (1 - F(1, 2 ** 40)), "dyadic": F(1, 2 ** bits)}[where]
    try:
        expected = steps_by_the_old_rule(sys, tol, max_steps)
    except ResourceLimitError:
        with pytest.raises(ResourceLimitError, match=f"within {max_steps} steps"):
            realization_plan(sys, tol, max_steps)
        return
    plan = realization_plan(sys, tol, max_steps)
    assert plan == (expected, *old_bound(sys, expected, tol))
    _, precision, proved = plan
    assert proved <= tol and (expected == 0 or precision >= 128)


@settings(max_examples=40, deadline=None)
@given(systems(), st.integers(1, 40), st.randoms(use_true_random=False))
def test_integer_pullback_matches_fraction_step(sys, steps, rng):
    bounds = radii_of(sys)
    u = tuple(F(rng.randint(-1000, 1000), 1000) * r for r in bounds)
    pullback = IntegerPullback(sys, u)
    assert pullback.point() == u
    for _ in range(steps):
        delta, u = fraction_pullback_step(sys, u)
        assert pullback.step() == delta
        assert pullback.point() == u


# per order: grid contractions past the first one above the threshold, the
# bits of tol and the examples that keep k in reach of the exact oracle
ORACLE_GRID = {1: (64, 12, 16), 2: (8, 12, 12), 3: (2, 4, 4)}


@pytest.mark.parametrize("order", sorted(ORACLE_GRID))
def test_fixed_point_word_and_steps_equal_the_exact_oracles(order):
    # at P >= 128 the rounded walk takes the exact greedy walk's branches
    span, top_bits, examples = ORACLE_GRID[order]
    threshold = flat_and_threshold(order)[1]
    first = threshold.numerator * GRID // threshold.denominator + 1

    @settings(max_examples=examples, deadline=None)
    @given(st.integers(0, span), st.integers(1, top_bits), st.data())
    def check(offset, bits, data):
        sys = grid_system(order, F(min(first + offset, GRID - 1), GRID))
        u_star = [data.draw(grid_points) * r for r in radii_of(sys)]
        target = Jet.scalar(tuple(reversed(linalg.mat_vec(projection_of(sys), u_star))))
        tol = F(1, 2 ** bits)
        try:
            k, precision, bound = realization_plan(sys, tol, max_steps=6000)
        except ResourceLimitError:
            return
        res = realize_jet(sys, target, tol)
        assert res.steps == k and precision >= 128 and res.residual_bound == bound
        oracle = IntegerPullback(sys, res.membership.witness)
        assert res.itinerary == tuple("+" if oracle.step() == 1 else "-" for _ in range(k))

    check()


@settings(max_examples=60, deadline=None)
@given(systems(), st.integers(0, 12), st.integers(1, 40), st.booleans(),
       st.randoms(use_true_random=False))
def test_fixed_point_pullback_matches_the_rounded_fraction_walk(sys, precision, steps,
                                                                dyadic, rng):
    # a base off the 2^-P grid tells a box test of the rounded value from
    # one of the exact value; any base in (1, box_base] keeps the covering
    if not dyadic:
        sys = build_system(sys.jet_dim, sys.lam, sys.p_coeffs, 1 + (sys.box_base - 1) * F(2, 3))
    bounds = radii_of(sys)
    u = tuple(F(rng.randint(-1000, 1000), 1000) * r for r in bounds)
    word = fixed_point_pullback(sys, u, precision, steps)
    grid = 2 ** precision
    point = tuple(F(int(x * grid), grid) for x in u)  # the witness, rounded toward zero
    expected = []
    for _ in range(steps):
        delta, point = fixed_point_step(sys, point, precision)
        expected.append("+" if delta == 1 else "-")
    assert word == tuple(expected)


def test_the_pullback_holds_n_window_entries(jet_sys_r1):
    # k = 17,634 steps of P = 2,012 bits: a window of every entry would
    # peak past 5 MiB, one of the last n = 4 entries stays far below 1 MiB
    k, precision, _ = realization_plan(jet_sys_r1, F(1, 2 ** 2000))
    witness = certify_membership(jet_sys_r1, Jet.scalar([F(1, 4), F(-1)])).witness
    assert (k, precision, len(witness)) == (17634, 2012, 4)
    tracemalloc.start()
    try:
        fixed_point_pullback(jet_sys_r1, witness, precision, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@settings(max_examples=20, deadline=None)
@given(systems(top_order=2), st.integers(1, 8), st.data())
def test_the_proved_bound_covers_the_telescoped_rounding(sys, bits, data):
    # x - F_word(0) = J^k pi u~_k - sum_{t<k} J^(t+1) pi e_t + pi (u_0 - u~_0),
    # replayed exactly on the rounded walk, with each term under its share
    # of the reported bound
    bounds = radii_of(sys)
    u_star = [data.draw(grid_points) * r for r in bounds]
    x = linalg.mat_vec(projection_of(sys), u_star)
    tol = F(1, 2 ** bits)
    try:
        res = realize_jet(sys, Jet.scalar(tuple(reversed(x))), tol, max_steps=400)
    except ResourceLimitError:
        return
    k, pi, jay = res.steps, projection_of(sys), branch_matrix(sys.jet_dim, sys.lam)
    precision = realization_plan(sys, tol)[1]
    grid = 2 ** precision
    u0 = res.membership.witness
    point = tuple(F(int(e * grid), grid) for e in u0)
    rounding = linalg.mat_vec(pi, linalg.vec_sub(u0, point))
    errors = []  # e_t, the rounding of step t's appended coordinate
    for letter in res.itinerary:
        exact = -sum(b * e for b, e in zip(sys.p_coeffs, point))
        delta, point = fixed_point_step(sys, point, precision)
        assert ("+" if delta == 1 else "-") == letter
        errors.append(point[-1] - delta - exact)
    # sum_{t<k} J^(t+1) pi e_t by Horner from the innermost step
    carried = (F(0),) * sys.jet_dim
    for e in reversed(errors):
        carried = linalg.mat_vec(jay, linalg.vec_add(carried, tuple(e * row[-1] for row in pi)))
    powers = power_norms(sys.jet_dim, sys.lam, k)
    head = linalg.mat_vec(pi, point)
    for _ in range(k):
        head = linalg.mat_vec(jay, head)
    far = linalg.vec_sub(x, word_jet(sys.lam, res.itinerary, sys.order).flat()[::-1])
    assert far == linalg.vec_add(linalg.vec_sub(head, carried), rounding)
    last = max(abs(row[-1]) for row in pi)
    brute = (powers[-1] * sys.reach + (last * sum(powers[1:]) + linalg.inf_norm_mat(pi)) / grid
             if k else sys.reach)
    assert max(map(abs, far)) == res.achieved_residual <= brute <= res.residual_bound
    assert res.residual_bound == residual_bound(sys, k) + (rounding_term(sys, precision)
                                                           if k else 0)


@settings(max_examples=40, deadline=None)
@given(systems(top_order=2), st.data())
def test_membership_certifies_projected_grid_points(sys, data):
    # u* on the 2^-10 grid strictly inside the box: its target is interior,
    # and the LP's witness meets it exactly with the optimal uniform margin
    bounds = radii_of(sys)
    u_star = [data.draw(grid_points) * r for r in bounds]
    x = linalg.mat_vec(projection_of(sys), u_star)
    res = certify_membership(sys, Jet.scalar(tuple(reversed(x))))
    assert res.certified
    assert linalg.mat_vec(projection_of(sys), res.witness) == x
    assert all(abs(w) <= r - res.margin for w, r in zip(res.witness, bounds))
    assert res.margin >= min(r - abs(u) for u, r in zip(u_star, bounds))


@pytest.mark.parametrize("length", [1, 511, 512, 513, 1024, 1025, 1600])
def test_tree_word_jet_matches_lifted_maps_across_leaf_runs(length):
    # runs of at most _LEAF letters are Horner sums; longer words split
    assert jetcovering._LEAF == 512
    rng = random.Random(length)
    lam, order = F(rng.randint(GRID // 2 + 1, GRID - 1), GRID), 3
    word = "".join(rng.choice("+-") for _ in range(length))
    assert word_jet(lam, word, order) == continuation_jet(standard_families(lam, order), word, order)


@pytest.mark.parametrize("order", [0, 1])
def test_realize_zero_steps(order):
    # tol at the reach itself needs no pullback step: the word is empty,
    # the zero jet is realized and the residual is the target's size
    sys = grid_system(order, F(1023, GRID))
    reach = sys.reach
    assert realization_plan(sys, reach) == (0, 0, reach)
    half = tuple(r / 2 for r in radii_of(sys))
    x = linalg.mat_vec(projection_of(sys), half)
    target = Jet.scalar(tuple(reversed(x)))
    res = realize_jet(sys, target, reach)
    assert res.steps == 0 and res.itinerary == ()
    assert res.achieved_residual == max(abs(c) for c in x)
    assert res.achieved_residual <= res.residual_bound == reach
