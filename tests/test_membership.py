"""The membership dual exchange: held to the reference LP, its capped
optimum, the sign of its margin, its step cap, and the mutants its
certificate checker must reject.

The optimum of max t s.t. projection u = x, |u_i| <= r_i - t is
min(r_min, min_y R(y)), r_min = box_base.  Targets near 0 hit the cap
r_min; there u_{n-1} = 0 and the optimal set is a face, so the witness
need not be the reference LP's vertex.
"""

import hashlib
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetcover import jetcovering, linalg
from jetcover.errors import (
    ConstructionError,
    NotCoveredError,
    ResourceLimitError,
    SingularMatrixError,
)
from jetcover.flatpoly import find_flat_poly, lambda_threshold, minimal_flat_poly, scale_to_p
from jetcover.jetcovering import (
    auto_lambda,
    build_system,
    certify_membership,
    check_membership,
    membership_certificate,
    realize_jet,
)
from jetcover.jets import Jet
from jetcover.simplex import lp_solve
from jetcovering_helpers import rank  # local oracle module
from simplex_reference import (  # local oracle module
    membership_from_lp,
    membership_lp_problem,
)


@lru_cache(maxsize=None)
def system(order):
    """The systems of the conftest fixtures, and order 3 at auto lambda."""
    flat = minimal_flat_poly(1, 1) if order == 0 else find_flat_poly(order + 1)
    lam = F(3, 4) if order == 0 else auto_lambda(lambda_threshold(flat))
    return build_system(order + 1, lam, scale_to_p(flat, lam))


def target_of(x):
    return Jet.scalar(tuple(reversed(x)))


def projected(sys, u):
    return target_of(linalg.mat_vec(sys.projection, u))


def cap_vertex(sys):
    """pi u for u_i = sign(c_i) (r_i - r_min), c = pi^T y, y = (1, -1/2, 1/3,
    ...): u maximizes y.pi u over the box shrunk by the cap, so pi u lies on
    the boundary of the capped targets."""
    r = sys.coordinate_bounds()
    y = [F((-1) ** k, k + 1) for k in range(sys.jet_dim)]
    c = [sum(map(F.__mul__, column, y)) for column in zip(*sys.projection)]
    return [(1 if ck > 0 else -1) * (rk - r[-1]) if k < sys.n - 1 else F(0)
            for k, (ck, rk) in enumerate(zip(c, r))]


KINDS = {
    "interior": (-1023, 1023, 1024),  # u_i = k/1024 r_i
    "capped": (-8, 8, 10 ** 6),
    "outside": (-3000, 3000, 1024),  # mostly beyond the box
}


@st.composite
def membership_targets(draw):
    order = draw(st.sampled_from([0, 1, 1, 2, 2, 3]))
    lo, hi, den = KINDS[draw(st.sampled_from(sorted(KINDS)))]
    sys = system(order)
    u = [F(draw(st.integers(lo, hi)), den) * r for r in sys.coordinate_bounds()]
    return order, projected(sys, u)


@settings(deadline=None, max_examples=30)
@given(membership_targets())
@example((1, Jet.scalar([F(1, 4), F(-1)])))
@example((3, Jet.scalar([F(1, 4), F(-1), F(0), F(0)])))
@example((2, Jet.scalar([F(0)] * 3)))
def test_exchange_matches_the_reference_lp(case):
    order, target = case
    sys = system(order)
    res = certify_membership(sys, target)
    certified, witness, margin = membership_from_lp(
        sys, lp_solve(membership_lp_problem(sys, target)))
    assert (res.certified, res.margin) == (certified, margin)
    # a tie: a capped optimum is a face, and its witness may be another
    # vertex of it than the reference's; every other optimum was a vertex
    assert res.witness == witness or res.margin == sys.box_base


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_zero_jet_hits_the_cap(order):
    sys = system(order)
    u, t, y = membership_certificate(sys, target_of([F(0)] * sys.jet_dim))
    assert t == sys.box_base and u[-1] == 0
    assert linalg.mat_vec(sys.projection, u) == (0,) * sys.jet_dim
    assert all(abs(ui) <= r - t for ui, r in zip(u, sys.coordinate_bounds()))
    check_membership(sys, target_of([F(0)] * sys.jet_dim), u, t, y)
    if order == 0:
        assert u == (0,)


# sha256 of the zero jet's witness, as "p/q" strings, at orders 2 and 3.
# The capped optimum is a face; the exchange's lowest-index rules pick its
# vertex, so a change of rule shows here (and in a capped realize output)
CAPPED_WITNESS_DIGESTS = {
    2: "d77ee06d5a783d0dc7731062e3f4bc71368934243d83ba609634ce8a716d3d8e",
    3: "a2932bb4b138da3131effcebdeab4fc4dc1a6702f22b6f108174cd32795cf9d2",
}


@pytest.mark.parametrize("order", sorted(CAPPED_WITNESS_DIGESTS))
def test_the_capped_vertex_is_pinned(order):
    sys = system(order)
    u, _, _ = membership_certificate(sys, target_of([F(0)] * sys.jet_dim))
    digest = hashlib.sha256(repr([str(e) for e in u]).encode()).hexdigest()
    assert digest == CAPPED_WITNESS_DIGESTS[order]


def test_a_tiny_target_hits_the_cap():
    sys = system(1)
    res = certify_membership(sys, Jet.scalar([F(1, 10 ** 6), F(0)]))
    assert res.certified and res.margin == sys.box_base == F(1025, 1024)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_targets_just_inside_and_just_outside_the_cap(order):
    sys = system(order)
    edge = cap_vertex(sys)
    inside = projected(sys, [(1 - F(1, 10 ** 6)) * e for e in edge])
    assert certify_membership(sys, inside).margin == sys.box_base
    assert certify_membership(sys, projected(sys, edge)).margin == sys.box_base
    outside = projected(sys, [(1 + F(1, 10 ** 6)) * e for e in edge])
    res = certify_membership(sys, outside)
    assert res.certified and 0 < res.margin < sys.box_base
    if order < 3:  # the order-3 reference LP takes about a second
        _, witness, margin = membership_from_lp(
            sys, lp_solve(membership_lp_problem(sys, outside)))
        assert (res.margin, res.witness) == (margin, witness)


def test_margin_zero_is_certified_and_a_negative_margin_is_not():
    # pi of a box vertex that maximizes y.pi u lies on the boundary of the
    # covered set: margin 0, certified, and not realizable
    sys = system(2)
    r = sys.coordinate_bounds()
    y = [F(1), F(-1, 2), F(1, 3)]
    c = [sum(map(F.__mul__, column, y)) for column in zip(*sys.projection)]
    vertex = [(1 if ck > 0 else -1) * rk for ck, rk in zip(c, r)]
    res = certify_membership(sys, projected(sys, vertex))
    assert res.certified and res.margin == 0
    with pytest.raises(NotCoveredError):
        realize_jet(sys, projected(sys, vertex), F(1, 100))
    beyond = projected(sys, [F(1025, 1024) * v for v in vertex])
    assert certify_membership(sys, beyond) == jetcovering.MembershipResult(certified=False)
    u, t, y = membership_certificate(sys, beyond)
    assert t < 0
    check_membership(sys, beyond, u, t, y)  # the negative optimum is proved too


def test_a_step_cap_on_the_exchange(monkeypatch):
    sys, target = system(2), Jet.scalar([F(1, 4), F(-1), F(0)])
    monkeypatch.setattr(jetcovering, "_MAX_EXCHANGES", 1)
    with pytest.raises(ResourceLimitError):
        certify_membership(sys, target)


def _mutants(sys, u, t, y):
    """Certificates the checker must reject, each broken in one place."""
    r = sys.coordinate_bounds()
    bound = next(k for k, (uk, rk) in enumerate(zip(u, r)) if abs(uk) == rk - t and uk)
    flipped = list(u)
    flipped[bound] = -u[bound]
    # u + lam z with pi z = 0 and z_j = 1 keeps pi u = x and the dual
    # equation, and moves the free coordinate j past its bound
    j = next(k for k, (uk, rk) in enumerate(zip(u, r)) if abs(uk) < rk - t)
    others = [k for k in range(sys.n) if k != j][:sys.jet_dim]
    z_others = linalg.mat_vec(
        linalg.inverse(tuple(tuple(row[k] for k in others) for row in sys.projection)),
        tuple(-row[j] for row in sys.projection),
    )
    z = [F(0)] * sys.n
    z[j] = F(1)
    for k, zk in zip(others, z_others):
        z[k] = zk
    lam = r[j] - t - u[j] + F(1, 1000)
    moved = [uk + lam * zk for uk, zk in zip(u, z)]
    k = next(k for k, yk in enumerate(y) if yk)
    sign_flip = list(y)
    sign_flip[k] = -y[k]
    return {
        "a bound coordinate on its other side": (tuple(flipped), t, y),
        "the zero dual": (u, t, (0,) * len(y)),
        "a free coordinate outside its bound": (tuple(moved), t, y),
        "one dual entry with its sign flipped": (u, t, tuple(sign_flip)),
        "t one step of its denominator higher": (u, t + F(1, t.denominator), y),
    }


# each mutant and the check that must catch it
MUTANTS = {
    "a bound coordinate on its other side": "does not project",
    "the zero dual": "does not prove",
    "a free coordinate outside its bound": "leaves its shrunk box",
    "one dual entry with its sign flipped": "does not prove",
    "t one step of its denominator higher": "leaves its shrunk box",
}


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_checker_rejects_mutants(order, name):
    sys = system(order)
    target = Jet.scalar([F(1, 4), F(-1)] + [F(0)] * (order - 1))
    u, t, y = membership_certificate(sys, target)
    assert 0 < t < sys.box_base
    check_membership(sys, target, u, t, y)
    with pytest.raises(ConstructionError, match=MUTANTS[name]):
        check_membership(sys, target, *_mutants(sys, u, t, y)[name])


def test_a_capped_certificate_with_a_raised_margin_is_rejected():
    sys = system(2)
    target = target_of([F(0)] * 3)
    u, t, y = membership_certificate(sys, target)
    with pytest.raises(ConstructionError):
        check_membership(sys, target, u, t + F(1, t.denominator), y)


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 6).flatmap(lambda size: st.lists(
    st.lists(st.integers(-3, 3), min_size=size, max_size=size), min_size=size, max_size=size)))
def test_the_fraction_free_inverse(rows):
    # zero pivots are common in these matrices, so row swaps are exercised
    a = linalg.mat(rows)
    if rank(a) < len(rows):
        with pytest.raises(SingularMatrixError):
            linalg.integer_inverse(rows)
        return
    inverse, d = linalg.integer_inverse(rows)
    assert linalg.mat_mul(a, linalg.mat(inverse)) == tuple(
        tuple(F(d if i == j else 0) for j in range(len(rows))) for i in range(len(rows)))
    det = F(1)
    for pivot in _elimination_pivots(a):
        det *= pivot
    assert d == abs(det)  # the determinant, made positive


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("kind", ["interior", "capped", "zero"])
def test_each_membership_reference_is_inverted_once(order, kind, monkeypatch):
    # the exchange visits one reference per step, so the least step cap it
    # finishes under counts them; each is inverted once, the start included
    sys = system(order)
    r = sys.coordinate_bounds()
    scale = {"interior": F(1, 3), "capped": F(1, 10 ** 6), "zero": F(0)}[kind]
    target = projected(sys, [scale * (-1) ** i * ri for i, ri in enumerate(r)])
    calls = []

    def counted(rows):
        calls.append(rows)
        return linalg.integer_inverse(rows)

    monkeypatch.setattr(jetcovering, "integer_inverse", counted)
    steps = 1
    while True:
        monkeypatch.setattr(jetcovering, "_MAX_EXCHANGES", steps)
        calls.clear()
        try:
            membership_certificate(sys, target)
            break
        except ResourceLimitError:
            steps += 1
    assert len(calls) == steps


def _elimination_pivots(a):
    """The pivots of Gaussian elimination with row swaps; their product is
    the determinant up to sign."""
    rows = [list(r) for r in a]
    for col in range(len(rows)):
        p = next(r for r in range(col, len(rows)) if rows[r][col] != 0)
        rows[col], rows[p] = rows[p], rows[col]
        for r in range(col + 1, len(rows)):
            f = rows[r][col] / rows[col][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
        yield rows[col][col]


def test_jetcovering_holds_nothing_of_the_simplex():
    from jetcover import simplex

    assert not any(v is simplex or getattr(v, "__module__", None) == simplex.__name__
                   for v in vars(jetcovering).values())
