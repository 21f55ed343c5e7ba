import functools
import itertools
import math
import random
from dataclasses import fields, replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetcover import jetcovering, linalg, serialize
from jetcover.boxes import Interval
from jetcover.errors import (
    ConstructionError,
    DegenerateInputError,
    NotCoveredError,
    ResourceLimitError,
)
from covering_reference import reference_certify_window_cover  # local helper module
from flatpoly_reference import divisible_by_power, reference_projection  # local helper module
from jetcovering_helpers import (  # local helper module
    generic_residuals,
    inverse_branch,
    judge_projection,
    projection_matrix,
    rank,
    rounding_term,
    scan_box_base,
    semiconjugacy_residuals,
    shift_map,
)
from jetcover.jetcovering import (
    PRECISION_FLOOR,
    JetCoveringSystem,
    auto_lambda,
    box_inequality,
    branch_matrix,
    build_system,
    certify_delta_covering,
    certify_membership,
    choose_box_base,
    greedy_pullback_step,
    projection_rows,
    realization_plan,
    realize_jet,
    residual_bound,
    verify_semiconjugacy,
)
from jetcover.jets import Jet, continuation_jet, reverse_jet, standard_families
from jetcover.flatpoly import (
    find_flat_poly,
    l1_tail,
    lambda_threshold,
    scale_to_p,
)


def test_l1_error_quotes_a_norm_past_the_digit_limit():
    big = F(10 ** 5000 + 1, 3)  # a side past the 4,300-digit limit of int -> str
    with pytest.raises(DegenerateInputError, match="non-leading L1 norm 10{4999}4/3 is not below 2"):
        build_system(2, F(1, 2), [1, -big, 1])


def test_branch_matrix_shapes():
    lam = F(3, 4)
    assert branch_matrix(1, lam) == ((lam,),)
    assert branch_matrix(2, lam) == ((lam, F(1)), (F(0), lam))
    assert branch_matrix(3, lam) == (
        (lam, F(2), F(0)),
        (F(0), lam, F(1)),
        (F(0), F(0), lam),
    )


def test_closed_form_system(jet_sys_r0):
    sys = jet_sys_r0
    assert sys.projection == ((F(-4, 3),),)
    assert sys.branch_matrix == ((F(3, 4),),)
    assert sys.box_base == 1 + F(1, 2 ** 10)
    for delta in (1, -1):
        m, t = shift_map(sys, delta)
        assert m == ((F(3, 4),),)
        assert t == (F(-3, 4) * delta,)


def test_semiconjugacy_zero(jet_sys_r0, jet_sys_r1, jet_sys_r2):
    for sys in (jet_sys_r0, jet_sys_r1, jet_sys_r2):
        # the residuals share one matrix identity: both shifts have one linear part
        assert shift_map(sys, 1)[0] == shift_map(sys, -1)[0]
        assert verify_semiconjugacy(sys) is None
        for mat_res, vec_res in semiconjugacy_residuals(sys, sys.projection).values():
            assert all(e == 0 for row in mat_res for e in row)
            assert all(e == 0 for e in vec_res)


def test_semiconjugacy_numeric_spotcheck(jet_sys_r1):
    # evaluate both sides on random vectors, float mode first, then exact
    sys = jet_sys_r1
    rng = random.Random(2)
    for delta in (1, -1):
        m, t = shift_map(sys, delta)
        for _ in range(5):
            u = tuple(F(rng.randint(-50, 50), 49) for _ in range(sys.n))
            lhs = linalg.vec_add(
                linalg.mat_vec(
                    sys.branch_matrix, linalg.mat_vec(sys.projection, u)
                ),
                tuple(delta * e for e in sys.branch_offset),
            )
            rhs = linalg.mat_vec(
                sys.projection, linalg.vec_add(linalg.mat_vec(m, u), t)
            )
            assert max(abs(float(a) - float(b)) for a, b in zip(lhs, rhs)) < 1e-9
            assert lhs == rhs


def test_semiconjugacy_residuals_are_formed_once(jet_sys_r2, monkeypatch):
    # judged from one pass of the closed form, on the system's own rows
    formed = []
    closed_form = jetcovering._residual_ints
    monkeypatch.setattr(jetcovering, "_residual_ints",
                        lambda *args: formed.append(args) or closed_form(*args))
    assert verify_semiconjugacy(jet_sys_r2) is None
    assert formed == [(jet_sys_r2.jet_dim, jet_sys_r2.lam, *jet_sys_r2.integer_rows)]
    monkeypatch.undo()
    pi = jet_sys_r2.projection
    residuals = semiconjugacy_residuals(jet_sys_r2, pi)
    assert residuals == generic_residuals(jet_sys_r2, pi)
    assert not any(e for mat, vec in residuals.values() for row in (*mat, vec) for e in row)


def test_semiconjugacy_tamper_detected(jet_sys_r0):
    # a tampered P fails against the stated projection, and against the
    # projection a copy derives from it (P then lacks the root)
    tampered = replace(
        jet_sys_r0, p_coeffs=(jet_sys_r0.p_coeffs[0] + F(1, 7), F(1))
    )
    with pytest.raises(ConstructionError):
        judge_projection(tampered, jet_sys_r0.projection)
    with pytest.raises(ConstructionError):
        verify_semiconjugacy(tampered)
    res = semiconjugacy_residuals(tampered, jet_sys_r0.projection)
    assert any(
        e != 0 for mat_res, vec_res in res.values() for e in vec_res
    ) or any(
        e != 0 for mat_res, _ in res.values() for row in mat_res for e in row
    )


@pytest.fixture
def jet_sys_r0_quadratic():
    # order 0 with n = 2: projection column 1 is pinned by the matrix
    # residual alone
    return build_system(1, F(3, 4), (F(1, 3), F(-19, 12), F(1)))


@pytest.mark.parametrize(
    "fixture", ["jet_sys_r0_quadratic", "jet_sys_r1", "jet_sys_r2"]
)
def test_semiconjugacy_catches_every_projection_entry(fixture, request):
    # a zero residual determines the projection, so the judge rejects a
    # perturbation of any single entry
    sys = request.getfixturevalue(fixture)
    assert judge_projection(sys, sys.projection) is None
    for i, k in itertools.product(range(sys.jet_dim), range(sys.n)):
        rows = [list(row) for row in sys.projection]
        rows[i][k] += F(1, 3)
        with pytest.raises(ConstructionError):
            judge_projection(sys, rows)


@pytest.mark.parametrize(
    "fixture", ["jet_sys_r0_quadratic", "jet_sys_r1", "jet_sys_r2"]
)
def test_semiconjugacy_sees_scale_and_root(fixture, request):
    # two tampers that single entries do not isolate: a scaled projection
    # leaves only the offset residual nonzero, and a projection rebuilt by
    # the recurrence for a P without the root only the last matrix column
    sys = request.getfixturevalue(fixture)
    scaled = tuple(tuple(2 * e for e in row) for row in sys.projection)
    with pytest.raises(ConstructionError, match="offset"):
        judge_projection(sys, scaled)
    rootless = (sys.p_coeffs[0] + F(1, 5),) + sys.p_coeffs[1:]
    rebuilt = replace(sys, p_coeffs=rootless)  # a copy derives its projection afresh
    assert rebuilt.projection == projection_matrix(rootless, sys.lam, sys.jet_dim)
    for judge in (lambda: verify_semiconjugacy(rebuilt),
                  lambda: judge_projection(rebuilt, rebuilt.projection)):
        with pytest.raises(ConstructionError, match=rf"matrix\[\d+\]\[{sys.n - 1}\]"):
            judge()


def test_semiconjugacy_multiplies_no_matrices(monkeypatch, jet_sys_r1):
    # the residuals are read off lam I + S and the shifts' structure, so
    # neither judging, building nor reloading a system forms a generic product
    def refuse(*args):
        raise AssertionError("a generic matrix product ran")

    monkeypatch.setattr(linalg, "mat_mul", refuse)
    monkeypatch.setattr(linalg, "mat_vec", refuse)
    verify_semiconjugacy(jet_sys_r1)
    rebuilt = build_system(jet_sys_r1.jet_dim, jet_sys_r1.lam, jet_sys_r1.p_coeffs)
    payload = serialize.jet_system_payload(jet_sys_r1, certify_delta_covering(jet_sys_r1))
    assert rebuilt == serialize.jet_system_from_payload(payload) == jet_sys_r1


def test_branches_are_derived_from_the_jet_dimension_and_contraction(jet_sys_r2):
    # J and T are no fields: a system holds no branch that could disagree
    # with lam I + S and e_N (a file's stated J and T are compared on reload)
    sys = jet_sys_r2
    assert not {"branch_matrix", "branch_offset"} & {f.name for f in fields(sys)}
    assert sys.branch_matrix == branch_matrix(sys.jet_dim, sys.lam)
    assert sys.branch_offset == (F(0),) * (sys.jet_dim - 1) + (F(1),)
    assert replace(sys, lam=F(7, 8)).branch_matrix == branch_matrix(sys.jet_dim, F(7, 8))


@pytest.mark.parametrize("jet_dim, p_coeffs", [
    (2, (F(-4, 3), F(1))),  # n = 1 < N = 2, with the root 4/3 = 1/lam
    (2, (F(1, 3), F(-19, 12), F(1))),  # (x - 4/3)(x - 1/4): a simple root
    (1, (F(1), F(-1) + F(1, 2 ** 40), F(1))),  # L1 tail 2 - 2^-40: no base rung
])
def test_a_rootless_polynomial_is_an_input_error(jet_dim, p_coeffs):
    # the last matrix column of the semi-conjugacy residual is the root
    # test; it is judged before `choose_box_base`, which would fail the
    # third polynomial with a ConstructionError
    lam = F(3, 4)
    assert not divisible_by_power(p_coeffs, 1 / lam, jet_dim)
    assert l1_tail(p_coeffs) < 2
    with pytest.raises(DegenerateInputError, match=f"no root of order {jet_dim} at 1/lam"):
        build_system(jet_dim, lam, p_coeffs)


@settings(deadline=None, max_examples=150)
@given(
    st.integers(1, 5).flatmap(lambda big_n: st.tuples(
        st.just(big_n),
        st.lists(st.fractions(-3, 3, max_denominator=12), min_size=big_n, max_size=big_n + 4),
    )),
    st.fractions(0, 1, max_denominator=64),
    st.fractions(-3, 3, max_denominator=12).filter(bool),
)
def test_the_projection_has_full_rank(dim_and_tail, lam, b0):
    # build_system tests no rank: with b_0 != 0 and n >= N, the columns
    # pi_c = sum_{j<=c} b_j J^(c-j) e_N span R^N, as e_N is cyclic for J
    big_n, tail = dim_and_tail
    b = (b0, *tail, F(1))
    assert rank(projection_matrix(b, lam, big_n)) == big_n


def test_the_reach_is_computed_once_per_system(monkeypatch, jet_sys_r1):
    # the step search and the residual bound of a realization share it
    calls = []
    reach = JetCoveringSystem.__dict__["reach"]
    compute = reach.func
    monkeypatch.setattr(reach, "func", lambda sys: calls.append(sys) or compute(sys))
    sys = replace(jet_sys_r1)  # a fresh system, with nothing cached
    res = realize_jet(sys, Jet.scalar([F(1, 8)] + [0] * sys.order), F(1, 10 ** 8))
    assert len(calls) == 1 and calls[0] is sys
    rounding = rounding_term(sys, realization_plan(sys, F(1, 10 ** 8))[1])
    assert res.residual_bound == residual_bound(sys, res.steps) + rounding == residual_bound(
        jet_sys_r1, res.steps) + rounding


@pytest.mark.parametrize("fixture", ["jet_sys_r0_quadratic", "jet_sys_r1", "jet_sys_r2"])
@pytest.mark.parametrize("base", [None, F(3, 2), F(7, 3), F(1025, 1024)])
def test_the_integer_radii_are_the_coordinate_bounds(fixture, base, request):
    # base^(n-i) as integers over b^n for base = a/b, from one computation;
    # the reach reads them and equals its Fraction form
    sys = request.getfixturevalue(fixture)
    sys = replace(sys, box_base=base or sys.box_base)
    radii, den = sys.integer_radii
    powers = tuple(sys.box_base ** (sys.n - i) for i in range(sys.n))
    assert den == sys.box_base.denominator ** sys.n
    assert tuple(F(r, den) for r in radii) == sys.coordinate_bounds() == powers
    assert sys.pullback_box().intervals == tuple(Interval(-r, r) for r in powers)
    assert sys.reach == max(sum(abs(e) * r for e, r in zip(row, powers))
                            for row in sys.projection)


@functools.lru_cache(maxsize=None)
def _flat_and_threshold(order):
    q = find_flat_poly(order + 1)
    return q, lambda_threshold(q)


@settings(deadline=None, max_examples=80)
@given(
    st.integers(0, 3),
    st.integers(1, 15),
    st.sampled_from(["none", "entry", "scale", "rootless"]),
    st.data(),
)
def test_closed_form_residuals_equal_the_generic_products(order, step, tamper, data):
    # lam on a grid strictly between its threshold and 1; the tampers are the
    # families above: one projection entry, a scaled projection, and a P
    # without the root whose projection is rebuilt by the recurrence
    q, threshold = _flat_and_threshold(order)
    lam = threshold + (1 - threshold) * F(step, 16)
    sys = build_system(order + 1, lam, scale_to_p(q, lam))
    nonzero = st.fractions(-3, 3, max_denominator=9).filter(bool)
    pi = [list(row) for row in sys.projection]
    if tamper == "entry":
        i = data.draw(st.integers(0, sys.jet_dim - 1))
        k = data.draw(st.integers(0, sys.n - 1))
        pi[i][k] += data.draw(nonzero)
    elif tamper == "scale":
        factor = data.draw(nonzero.filter(lambda f: f != 1))
        pi = [[factor * e for e in row] for row in pi]
    elif tamper == "rootless":
        b0 = sys.p_coeffs[0] + data.draw(nonzero.filter(lambda f: f != -sys.p_coeffs[0]))
        sys = replace(sys, p_coeffs=(b0,) + sys.p_coeffs[1:])
        pi = sys.projection  # derived afresh by the recurrence
        assert pi == projection_matrix(sys.p_coeffs, sys.lam, sys.jet_dim)
    residuals = semiconjugacy_residuals(sys, pi)
    assert residuals == generic_residuals(sys, pi)
    entries = [e for mat_res, vec_res in residuals.values() for row in (*mat_res, vec_res)
               for e in row]
    assert any(entries) == (tamper != "none")


coefficients = st.builds(F, st.integers(-9, 9), st.integers(1, 9))


@settings(deadline=None, max_examples=150)
@given(
    coefficients.filter(bool),
    st.lists(coefficients, max_size=6),
    st.builds(lambda a, b: F(a, a + b), st.integers(1, 50), st.integers(1, 50)),
    st.integers(1, 5),
    st.booleans(),
    st.sampled_from(["none", "entry", "scale", "column"]),
    st.data(),
)
def test_integer_projection_and_judge_match_the_references(b0, middle, lam, big_n, rooted,
                                                           tamper, data):
    # for any monic b with b_0 != 0, root or not, the integer rows over one
    # denominator are the directly differentiated projection; and on it, or
    # on one entry, the whole matrix or one column rescaled, the judge's
    # verdict and first named entry are those of the generic products
    p = (b0, *middle, F(1))
    if rooted:  # times (x - 1/lam)^N: the untampered projection passes
        for _ in range(big_n):
            p = tuple(a - c / lam for a, c in zip((0, *p), (*p, 0)))
    beta, big_b, _, _ = projection_rows(p, lam, big_n)
    assert big_b == math.lcm(*(c.denominator for c in p)) and beta == [c * big_b for c in p]
    pi = [list(row) for row in projection_matrix(p, lam, big_n)]
    assert pi == [list(row) for row in reference_projection(p, lam, big_n)]
    nonzero = st.fractions(-3, 3, max_denominator=9).filter(lambda f: f not in (0, 1))
    k, exact = data.draw(st.integers(0, len(p) - 2)), [row[:] for row in pi]
    if tamper == "entry":
        pi[data.draw(st.integers(0, big_n - 1))][k] += data.draw(nonzero)
    elif tamper in ("scale", "column"):
        factor = data.draw(nonzero)
        pi = [[e * factor if tamper == "scale" or j == k else e for j, e in enumerate(row)]
              for row in pi]
    sys = JetCoveringSystem(big_n, lam, p, F(2))
    generic = generic_residuals(sys, pi)
    assert semiconjugacy_residuals(sys, pi) == generic
    named = [f"{where} = {e} for branch {delta:+d}"
             for delta, (mat_res, vec_res) in generic.items()
             for where, e in [*((f"matrix[{i}][{j}]", e) for i, row in enumerate(mat_res)
                                for j, e in enumerate(row)),
                              *((f"offset[{i}]", e) for i, e in enumerate(vec_res))] if e]
    # rescaling a zero column changes nothing, so the judge must find nothing
    assert not rooted or bool(named) == (pi != exact)
    # the system's own rows are the untampered pi, so its checker judges them too
    judges = [lambda: judge_projection(sys, pi)]
    judges += [lambda: verify_semiconjugacy(sys)] * (tamper == "none")
    for judge in judges:
        if not named:
            assert judge() is None
        else:
            with pytest.raises(ConstructionError) as exc:
                judge()
            assert str(exc.value) == f"semi-conjugacy residual {named[0]}"


def test_integer_rows_are_projection_rows_of_the_definition(jet_sys_r2, monkeypatch):
    # a system is (N, lam, P, base): build_system primes the rows it judged,
    # so building, checking and reading pi run projection_rows once, and a
    # copy derives its rows afresh from its own definition
    assert [f.name for f in fields(JetCoveringSystem)] == ["jet_dim", "lam", "p_coeffs",
                                                           "box_base"]
    calls = []
    monkeypatch.setattr(jetcovering, "projection_rows",
                        lambda *args: calls.append(args) or projection_rows(*args))
    built = build_system(jet_sys_r2.jet_dim, jet_sys_r2.lam, jet_sys_r2.p_coeffs)
    verify_semiconjugacy(built)
    certify_delta_covering(built)
    assert built.projection and built.reach and len(calls) == 1
    fresh = replace(built)
    assert "integer_rows" not in vars(fresh) and "projection" not in vars(fresh)
    moved = replace(built, lam=F(7, 8))
    for sys in (built, fresh, moved):
        beta, big_b, rows, den = sys.integer_rows
        assert sys.integer_rows == projection_rows(sys.p_coeffs, sys.lam, sys.jet_dim)
        assert sys.projection == tuple(tuple(F(e, den) for e in row) for row in rows)
        assert tuple(F(c, big_b) for c in beta) == sys.p_coeffs
    assert len(calls) == 3 and moved.projection != built.projection


def test_base_feasibility_window(jet_sys_r0):
    # for the closed form, base * 4/3 < base + 1 means base < 3; a base
    # the caller gives is an input, so breaking the inequality is its fault
    with pytest.raises(DegenerateInputError, match="box inequality"):
        build_system(1, F(3, 4), jet_sys_r0.p_coeffs, box_base=5)
    explicit = build_system(1, F(3, 4), jet_sys_r0.p_coeffs, box_base=2)
    assert explicit.box_base == 2


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 60),
    st.fractions(1, 2, max_denominator=2 ** 40).filter(lambda t: 1 < t < 2),
)
@example(1, F(3, 2))  # 2^-10
@example(4, 2 - F(1, 2 ** 18))  # 2^-22
@example(60, 2 - F(1, 2 ** 40))  # no rung
def test_box_base_matches_a_grid_scan(n, l1):
    expected = scan_box_base(n, l1)
    if expected is None:
        with pytest.raises(ConstructionError):
            choose_box_base(n, l1)
    else:
        assert choose_box_base(n, l1) == expected


@pytest.mark.parametrize("order, shift", [(0, 18), (1, 30), (2, 26), (3, 26)])
def test_box_base_near_the_threshold(order, shift):
    # one grid step of lambda_threshold above it, 2^-10 is too coarse
    q = find_flat_poly(order + 1)
    lam = lambda_threshold(q) + F(1, 2 ** 20)
    sys = build_system(order + 1, lam, scale_to_p(q, lam))
    assert sys.box_base == 1 + F(1, 2 ** shift)
    assert sys.box_base == scan_box_base(sys.n, l1_tail(sys.p_coeffs))


def test_delta_covering_explicit_base(jet_sys_r0):
    sys2 = build_system(1, F(3, 4), jet_sys_r0.p_coeffs, box_base=2)
    cert = certify_delta_covering(sys2)
    assert cert.functional_range.lo == F(-8, 3)
    assert cert.functional_range.hi == F(8, 3)
    assert cert.inequality_lhs == F(8, 3) < cert.inequality_rhs == 3
    assert cert.window_leaves == ((Interval(F(-8, 3), 0), "-"), (Interval(0, F(8, 3)), "+"))
    assert cert.margin == F(1, 6)


def test_delta_covering_tampered_base(jet_sys_r0):
    bad = replace(jet_sys_r0, box_base=F(5))
    with pytest.raises(ConstructionError):
        certify_delta_covering(bad)


def test_delta_covering_all_systems(jet_sys_r1, jet_sys_r2):
    for sys in (jet_sys_r1, jet_sys_r2):
        cert = certify_delta_covering(sys)
        assert cert.inequality_lhs < cert.inequality_rhs
        covered = sum((iv.width for iv, _ in cert.window_leaves), F(0))
        assert covered == cert.functional_range.width


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 4), st.data())
def test_delta_window_leaves_are_the_subdivision_drivers(order, data):
    # lam on the 2^-10 grid above its threshold and a stated base that keeps
    # the box inequality; the closed-form leaves and margin are what the
    # Fraction driver finds for [-R, R], R and m formed here from b and base
    q, threshold = _flat_and_threshold(order)
    lam = F(data.draw(st.integers(math.floor(threshold * 1024) + 1, 1023)), 1024)
    p = scale_to_p(q, lam)
    bases = [b for b in (F(2), F(3, 2), 1 + F(1, 1024)) if box_inequality(b, len(p) - 1, l1_tail(p))[0]]
    sys = build_system(order + 1, lam, p, box_base=data.draw(st.sampled_from([None, *bases])))
    base, n = sys.box_base, sys.n
    reach = sum(abs(b) * base ** (n - j) for j, b in enumerate(p[:-1]))
    margin = min((base + 1 - reach) / 2, (base - 1) / 2)
    windows = [("+", Interval(1 - base, 1 + base)), ("-", Interval(-1 - base, -1 + base))]
    cert = certify_delta_covering(sys)
    assert cert.functional_range == Interval(-reach, reach) and cert.margin == margin
    assert cert.window_leaves == reference_certify_window_cover(
        Interval(-reach, reach), windows, margin, 64)


def test_membership_zero_jet(jet_sys_r0):
    res = certify_membership(jet_sys_r0, Jet.scalar([0]))
    assert res.certified
    assert res.witness == (F(0),)
    assert res.margin == jet_sys_r0.box_base


def test_membership_beyond_reach(jet_sys_r1):
    reach = jet_sys_r1.reach
    far = Jet.scalar([2 * reach] + [0] * jet_sys_r1.order)
    res = certify_membership(jet_sys_r1, far)
    assert not res.certified


def test_membership_round_trip(jet_sys_r1):
    sys = jet_sys_r1
    rng = random.Random(77)
    bounds = sys.coordinate_bounds()
    for _ in range(10):
        u_star = tuple(
            F(rng.randint(-800, 800), 1000) * bounds[i] for i in range(sys.n)
        )
        x = linalg.mat_vec(sys.projection, u_star)
        target = Jet.scalar(tuple(reversed(x)))
        res = certify_membership(sys, target)
        assert res.certified
        # the witness projects to the same jet even when it differs from u*
        assert linalg.mat_vec(sys.projection, res.witness) == x
        assert sys.pullback_box().contains_point(res.witness)


def test_residual_bound_closed_form(jet_sys_r0):
    sys = jet_sys_r0
    for k in (0, 1, 5, 10):
        expected = F(3, 4) ** k * F(4, 3) * sys.box_base
        assert residual_bound(sys, k) == expected


def test_residual_bound_n2_norm_formula(jet_sys_r1):
    sys = jet_sys_r1
    lam = sys.lam
    reach = sys.reach
    for k in (1, 3, 10, 40):
        assert residual_bound(sys, k) == lam ** (k - 1) * (lam + k) * reach


def test_residual_bound_submultiplicative(jet_sys_r1):
    sys = jet_sys_r1
    for k1, k2 in ((3, 5), (10, 7), (1, 20)):
        power = linalg.identity(sys.jet_dim)
        for _ in range(k1):
            power = linalg.mat_mul(power, sys.branch_matrix)
        assert residual_bound(sys, k1 + k2) <= linalg.inf_norm_mat(
            power
        ) * residual_bound(sys, k2)


def test_residual_bound_eventually_monotone(jet_sys_r1):
    sys = jet_sys_r1
    lam = sys.lam
    onset = int(lam * lam / (1 - lam)) + 1
    values = [residual_bound(sys, k) for k in range(onset, onset + 30)]
    assert all(values[i + 1] < values[i] for i in range(len(values) - 1))
    # tail ratio approaches the contraction from above like lam * (1 + 1/k)
    k_tail = onset + 28
    ratio = values[-1] / values[-2]
    assert lam < ratio < lam * (1 + F(2, k_tail))


def test_realizer_totality_corners_and_samples(jet_sys_r1):
    sys = jet_sys_r1
    bounds = sys.coordinate_bounds()
    for corner in itertools.product((-1, 1), repeat=sys.n):
        u = tuple(corner[i] * bounds[i] for i in range(sys.n))
        delta, nxt = greedy_pullback_step(sys, u)  # must not raise
        assert abs(nxt[-1]) < sys.box_base
    rng = random.Random(13)
    for _ in range(50):
        u = tuple(
            F(rng.randint(-1000, 1000), 1000) * bounds[i] for i in range(sys.n)
        )
        greedy_pullback_step(sys, u)


def test_realize_zero_jet_closed_form(jet_sys_r0):
    sys = jet_sys_r0
    tol = F(1, 10 ** 6)
    res = realize_jet(sys, Jet.scalar([0]), tol)
    assert res.achieved_residual <= res.residual_bound <= tol
    assert residual_bound(sys, res.steps - 1) > tol  # minimal k
    # alternating-type word: greedy flips sign repeatedly after the start
    assert set(res.itinerary) == {"+", "-"}


def test_realize_round_trip_word(jet_sys_r1):
    sys = jet_sys_r1
    fams = standard_families(sys.lam, sys.order)
    rng = random.Random(20)
    word = None
    for _ in range(500):
        cand = tuple(rng.choice("+-") for _ in range(20))
        target = continuation_jet(fams, cand, sys.order)
        if certify_membership(sys, target).certified:
            word = cand
            break
    assert word is not None
    target = continuation_jet(fams, word, sys.order)
    res = realize_jet(sys, target, F(1, 10 ** 8))
    assert res.achieved_residual <= res.residual_bound <= F(1, 10 ** 8)
    realized = continuation_jet(fams, res.itinerary, sys.order)
    diff = target - realized
    assert max(abs(row[0]) for row in diff.coeffs) == res.achieved_residual


def test_realize_rejects_uncertified(jet_sys_r1):
    reach = jet_sys_r1.reach
    far = Jet.scalar([2 * reach] + [0] * jet_sys_r1.order)
    with pytest.raises(NotCoveredError):
        realize_jet(jet_sys_r1, far, F(1, 100))


@pytest.mark.parametrize("fixture, k", [("jet_sys_r0", 5), ("jet_sys_r1", 200)])
def test_a_bound_of_exactly_tol_takes_one_step_more(request, fixture, k):
    # no rounding term fits beside residual_bound(k) = tol, so the plan
    # takes k + 1 steps
    sys = request.getfixturevalue(fixture)
    tol = residual_bound(sys, k)
    steps, precision, bound = realization_plan(sys, tol)
    assert steps == k + 1 and precision >= PRECISION_FLOOR
    assert bound == residual_bound(sys, k + 1) + rounding_term(sys, precision) <= tol
    res = realize_jet(sys, Jet.scalar([F(1, 8)] + [0] * sys.order), tol)
    assert res.steps == k + 1 and res.residual_bound == bound
    assert res.achieved_residual <= res.residual_bound <= tol
    with pytest.raises(ResourceLimitError, match=f"within {k} steps"):
        realize_jet(sys, Jet.scalar([F(1, 8)] + [0] * sys.order), tol, max_steps=k)


def test_realize_step_cap(jet_sys_r0):
    with pytest.raises(ResourceLimitError):
        realize_jet(jet_sys_r0, Jet.scalar([0]), F(1, 10 ** 6), max_steps=3)


@pytest.mark.parametrize("tol", [F(1000), F(1, 10 ** 8)])
def test_a_negative_step_cap_is_refused(jet_sys_r1, tol):
    # at tol 1000 it once planned 0 steps, and at 1e-8 it blamed the tol;
    # 0 steps stay a valid cap
    target = Jet.scalar([F(1, 8)] + [0] * jet_sys_r1.order)
    for max_steps in (-5, -1):
        with pytest.raises(DegenerateInputError, match=f"^max_steps {max_steps} is below 0$"):
            realization_plan(jet_sys_r1, tol, max_steps)
        with pytest.raises(DegenerateInputError, match=f"^max_steps {max_steps} is below 0$"):
            realize_jet(jet_sys_r1, target, tol, max_steps=max_steps)
    if tol > jet_sys_r1.reach:
        assert realization_plan(jet_sys_r1, tol, 0) == (0, 0, jet_sys_r1.reach)
    else:
        with pytest.raises(ResourceLimitError, match="within 0 steps"):
            realization_plan(jet_sys_r1, tol, 0)


@pytest.mark.parametrize("fixture", ["jet_sys_r0", "jet_sys_r1", "jet_sys_r2"])
def test_a_realization_forms_each_norm_once(request, monkeypatch, fixture):
    # the plan decides k, P and the bound from one room per k: no norm is
    # formed twice, and no residual_bound is formed beside them
    sys = request.getfixturevalue(fixture)
    norms, bounds = [], []
    power_norm, bound = jetcovering.power_norm_numerator, jetcovering.residual_bound
    monkeypatch.setattr(jetcovering, "power_norm_numerator",
                        lambda lam, big_n, k: norms.append(k) or power_norm(lam, big_n, k))
    monkeypatch.setattr(jetcovering, "residual_bound",
                        lambda sys, k: bounds.append(k) or bound(sys, k))
    res = realize_jet(sys, Jet.scalar([F(1, 8)] + [0] * sys.order), F(1, 10 ** 8))
    assert res.steps > 0 and res.steps in norms and bounds == []
    assert len(norms) == len(set(norms)) > 1


def test_pullback_matches_inverse_branch(jet_sys_r1):
    # pushing the pullback orbit through the projection agrees with
    # applying the inverse jet-space branch directly, step by step
    sys = jet_sys_r1
    res = certify_membership(sys, Jet.scalar([F(1, 8)] + [0] * sys.order))
    assert res.certified
    u = res.witness
    x = linalg.mat_vec(sys.projection, u)
    for _ in range(10):
        delta, u = greedy_pullback_step(sys, u)
        x = inverse_branch(sys, delta, x)
        assert linalg.mat_vec(sys.projection, u) == x


def test_build_system_validation(jet_sys_r0):
    with pytest.raises(DegenerateInputError):
        build_system(1, F(3, 4), (F(1), F(1)))  # wrong root
    with pytest.raises(DegenerateInputError):
        build_system(1, F(3, 2), jet_sys_r0.p_coeffs)
    with pytest.raises(DegenerateInputError):
        build_system(1, F(3, 4), jet_sys_r0.p_coeffs, box_base=F(1, 2))


def test_auto_lambda_brackets(flat_q2, flat_q3):
    for q in (flat_q2, flat_q3):
        th = lambda_threshold(q)
        lam = auto_lambda(th)
        assert th < lam < 1


def test_auto_lambda_halves_the_gap_when_the_grid_rounds_up_to_1():
    # a quarter of the way to 1 from 1 - 2^-20 rounds up to 1 on the 2^-10
    # grid; no order up to 7 has a threshold this close to 1
    threshold = F(2 ** 20 - 1, 2 ** 20)
    assert auto_lambda(threshold) == (threshold + 1) / 2


def test_semiconjugacy_jet_dim_4_lambda_grid():
    # order-3 jets, contraction swept on a grid above its threshold; the
    # box-base ladder must find a feasible base even right at the edge
    from jetcover.flatpoly import find_flat_poly, scale_to_p

    q4 = find_flat_poly(4)
    th = lambda_threshold(q4)
    lams = [auto_lambda(th)] + [
        th + F(j, 2 ** 11) for j in (2, 5, 9) if th + F(j, 2 ** 11) < 1
    ]
    assert len(lams) >= 2
    for lam in lams:
        verify_semiconjugacy(build_system(4, lam, scale_to_p(q4, lam)))


def test_reverse_jet_embedding(jet_sys_r1):
    # membership uses reversed coordinates: jets built from projected box
    # points must round trip through the reversal
    sys = jet_sys_r1
    u = tuple(F(1, 100) for _ in range(sys.n))
    x = linalg.mat_vec(sys.projection, u)
    jet = Jet.scalar(tuple(reversed(x)))
    assert reverse_jet(jet).flat() == x
