import random
from dataclasses import fields, replace
from fractions import Fraction as F

import pytest

from jetcover import blender
from jetcover.blender import (
    BlenderCoverResult,
    BranchSample,
    NearlyAffineReport,
    SkewSystem,
    branch_region,
    curve_domain_box,
    nearly_affine_check,
    realize_curve_jet,
    realize_point,
    render_unstable_union,
    unstable_heights,
    verify_example_covering,
)
from jetcover.boxes import Interval
from jetcover.covering import Certificate, CoveringFailure
from jetcover.errors import ConstructionError, DegenerateInputError
from jetcover.ifs import evaluate_word, standard_pair
from jetcover.jetcovering import realize_jet
from jetcover.jets import Jet, continuation_jet, standard_families
from jetcover.serialize import branch_table_from_csv
from blender_helpers import branch_table_to_csv, model_branch_table  # local helper module


def test_base_images():
    sys = SkewSystem(F(3, 4), F(1, 10))
    for sign in (1, -1):
        img = sys.base_image(sign)
        assert (img.lo, img.hi) == (F(-12, 5), F(12, 5))


@pytest.mark.parametrize("lam", [F(3, 5), F(3, 4), F(9, 10)])
def test_example_covering_passes(lam):
    result = verify_example_covering(SkewSystem(lam, F(1, 10)))
    assert result.ok
    assert all(holds for _, _, holds in result.base_images)
    assert isinstance(result.fiber_outcome, Certificate)


def test_blender_results_hold_their_evidence():
    # ok follows from the base images and the fiber outcome, and a
    # nearly-affine report cannot be made certified
    assert [f.name for f in fields(BlenderCoverResult)] == [
        "base_target", "base_images", "fiber_outcome"]
    assert [f.name for f in fields(NearlyAffineReport)] == ["lam", "plus", "minus", "grid_step"]
    result = verify_example_covering(SkewSystem(F(3, 4), F(1, 10)))
    short = ("+", Interval(-1, 1), False)
    assert not replace(result, base_images=(short,) + result.base_images[1:]).ok
    with pytest.raises(TypeError):
        NearlyAffineReport(F(3, 4), None, None, F(1, 4), certified=True)


def test_example_covering_fails_weak_contraction():
    result = verify_example_covering(SkewSystem(F(9, 20), F(1, 10)))
    assert not result.ok
    assert isinstance(result.fiber_outcome, CoveringFailure)


def test_example_covering_rejects_closed_domain():
    with pytest.raises(DegenerateInputError):
        verify_example_covering(SkewSystem(F(3, 4), 0))


def test_realize_point_fixed_point():
    sys = SkewSystem(F(3, 4), F(1, 10))
    for depth in (1, 5, 9):
        res = realize_point(sys, 4, depth)  # 4 = 1/(1-lam), all-plus tail
        assert res.word == ("+",) * depth
        # the expansion of the endpoint attains its bound exactly
        assert res.residual == res.error_bound


def test_realize_point_zero():
    sys = SkewSystem(F(3, 4), F(1, 10))
    res = realize_point(sys, 0, 8)
    assert res.error_bound == F(3, 4) ** 8 * 4
    assert res.residual <= res.error_bound


def test_realize_point_grid():
    sys = SkewSystem(F(3, 4), F(1, 10))
    bound = F(3, 4) ** 20 * 4
    y = F(-2)
    while y <= 2:
        res = realize_point(sys, y, 20)
        assert res.residual <= bound
        oracle = evaluate_word(standard_pair(sys.lam), res.word, (0,))[0]
        assert res.partial_sum == oracle
        y += F(1, 20)


def test_realize_point_range_check():
    sys = SkewSystem(F(3, 4), F(1, 10))
    with pytest.raises(DegenerateInputError):
        realize_point(sys, 5, 4)


def test_unstable_heights_depth_one():
    sys = SkewSystem(F(3, 4), F(1, 10))
    heights = unstable_heights(sys, 0, 1)
    assert [(h, w) for h, w in heights] == [(F(1), ("+",)), (F(-1), ("-",))]


def test_unstable_heights_gap_bound():
    sys = SkewSystem(F(3, 4), F(1, 10))
    depth = 12
    heights = sorted(h for h, _ in unstable_heights(sys, 0, depth))
    gap_bound = 2 * F(3, 4) ** depth / (1 - F(3, 4))
    worst = max(
        heights[i + 1] - heights[i] for i in range(len(heights) - 1)
    )
    assert worst <= gap_bound


def test_unstable_heights_parameter_shift():
    sys = SkewSystem(F(3, 4), F(1, 10))
    depth = 8
    a = F(1, 8)
    at_zero = dict((w, h) for h, w in unstable_heights(sys, 0, depth))
    at_a = dict((w, h) for h, w in unstable_heights(sys, a, depth))
    crude = depth * (2 / (1 - F(3, 4))) * a
    for w, h in at_zero.items():
        assert abs(at_a[w] - h) <= crude


def test_render_deterministic_and_wellformed():
    sys = SkewSystem(F(3, 4), F(1, 10))
    img1 = render_unstable_union(sys, 0, 6, 64, 64)
    img2 = render_unstable_union(sys, 0, 6, 64, 64)
    assert img1 == img2
    assert img1.startswith(b"P6\n64 64\n255\n")
    assert len(img1) == len(b"P6\n64 64\n255\n") + 64 * 64 * 3


def test_render_depth_one_rows():
    sys = SkewSystem(F(3, 4), F(1, 10))
    height = width = 16
    img = render_unstable_union(sys, 0, 1, width, height)
    body = img[len(b"P6\n16 16\n255\n"):]
    rows = [body[r * width * 3 : (r + 1) * width * 3] for r in range(height)]
    black = bytes((0, 0, 0)) * width
    # heights +-1 land on rows floor((2 -+ 1) * 16 / 4) = 4 and 12
    expected = {4, 12}
    assert {r for r in range(height) if rows[r] == black} == expected


def test_realize_curve_jet_constant_curve(jet_sys_r1):
    lam = jet_sys_r1.lam
    sys = SkewSystem(lam, F(1, 10))
    y0 = F(1, 5)
    y_jet = Jet.scalar([y0] + [0] * jet_sys_r1.order)
    x_jet = Jet.scalar([F(1, 2)] + [0] * jet_sys_r1.order)
    res = realize_curve_jet(sys, jet_sys_r1, x_jet, y_jet, F(1, 10 ** 6))
    assert res == realize_jet(jet_sys_r1, y_jet, F(1, 10 ** 6))  # the y-jet's realization
    assert res.achieved_residual <= F(1, 10 ** 6)
    # the value coefficient agrees with the pointwise greedy expansion bound
    point = realize_point(sys, y0, res.steps)
    fams = standard_families(lam, jet_sys_r1.order)
    realized = continuation_jet(fams, res.itinerary, jet_sys_r1.order)
    assert abs(realized.coeffs[0][0] - y0) <= res.achieved_residual
    assert abs(point.partial_sum - y0) <= point.error_bound


def test_realize_curve_jet_round_trip(jet_sys_r1):
    sys = SkewSystem(jet_sys_r1.lam, F(1, 10))
    fams = standard_families(jet_sys_r1.lam, jet_sys_r1.order)
    from jetcover.jetcovering import certify_membership

    rng = random.Random(4)
    target = None
    for _ in range(300):
        w = tuple(rng.choice("+-") for _ in range(15))
        cand = continuation_jet(fams, w, jet_sys_r1.order)
        if certify_membership(jet_sys_r1, cand).certified:
            target = cand
            break
    assert target is not None
    x_jet = Jet.scalar([0] * (jet_sys_r1.order + 1))
    res = realize_curve_jet(sys, jet_sys_r1, x_jet, target, F(1, 10 ** 6))
    assert res.achieved_residual <= res.residual_bound


def test_realize_curve_jet_rejects_x_outside(jet_sys_r1):
    sys = SkewSystem(jet_sys_r1.lam, F(1, 10))
    y_jet = Jet.scalar([0] * (jet_sys_r1.order + 1))
    bad_x = Jet.scalar([F(5)] + [0] * jet_sys_r1.order)
    with pytest.raises(DegenerateInputError):
        realize_curve_jet(sys, jet_sys_r1, bad_x, y_jet, F(1, 100))
    tilted = Jet.scalar([0] + [F(1)] * jet_sys_r1.order)  # derivative too big
    with pytest.raises(DegenerateInputError):
        realize_curve_jet(sys, jet_sys_r1, tilted, y_jet, F(1, 100))


def test_realize_curve_jet_requires_matching_contraction(jet_sys_r0):
    sys = SkewSystem(F(7, 8), F(1, 10))
    with pytest.raises(DegenerateInputError):
        realize_curve_jet(
            sys, jet_sys_r0, Jet.scalar([0]), Jet.scalar([0]), F(1, 10)
        )


def test_curve_domain_box():
    sys = SkewSystem(F(3, 4), F(1, 10))
    box = curve_domain_box(sys, 2)
    assert (box[0].lo, box[0].hi) == (F(-21, 10), F(21, 10))
    assert (box[1].lo, box[1].hi) == (F(-1, 10), F(1, 10))


def test_nearly_affine_exact_model():
    lam = F(3, 4)
    report = nearly_affine_check(
        lam,
        model_branch_table(lam, 1, 8, 8),
        model_branch_table(lam, -1, 8, 8),
        grid_step=F(1, 8),
    )
    assert report.plus.deviation == 0
    assert report.minus.deviation == 0
    # the pure model maps band boundaries onto the rectangle boundary,
    # so disjointness cannot be confirmed
    assert not report.plus.boundary_clear
    assert not report.minus.boundary_clear
    assert not report.certified


def test_nearly_affine_known_perturbation():
    lam = F(3, 4)
    amp = F(1, 100)

    def perturb(sign):
        y_hi = branch_region(lam, sign)[1].hi
        y_lo = branch_region(lam, sign)[1].lo
        scale = max(abs(y_hi), abs(y_lo))

        def p(x, y):
            return amp * y / scale, F(0), amp / scale

        return p

    report = nearly_affine_check(
        lam,
        model_branch_table(lam, 1, 4, 50, gx_perturb=perturb(1)),
        model_branch_table(lam, -1, 4, 50, gx_perturb=perturb(-1)),
        grid_step=F(1, 50),
    )
    for branch in (report.plus, report.minus):
        assert F(1, 200) <= branch.deviation <= F(2, 100)


def test_nearly_affine_domain_violation():
    lam = F(3, 4)
    bad = [
        BranchSample(
            x=F(3), y=F(0), gx=F(0), gy=F(0),
            dxx=F(0), dxy=F(0), dyx=F(0), dyy=1 / lam,
        )
    ]
    with pytest.raises(DegenerateInputError):
        nearly_affine_check(lam, bad, [], grid_step=F(1, 2))


def test_branch_table_csv_round_trip():
    lam = F(3, 4)
    rows = model_branch_table(lam, 1, 3, 3)
    text = branch_table_to_csv(rows)
    assert branch_table_from_csv(text) == rows
    with pytest.raises(DegenerateInputError):
        branch_table_from_csv("nope\n1,2\n")


# --- bug traps: each breaks the step before a ConstructionError trap, which stays


class SaysAboveOneHalf(F):
    """A contraction that compares as no more than 1/2 with nothing."""

    def __le__(self, other):
        return False


def test_a_contraction_passing_as_above_one_half_leaves_no_admissible_digit():
    # at lam = 1/4 the fiber bound is 4/3, and both preimages +-4 of 0 leave it
    sys = SkewSystem(F(3, 4), F(1, 10))
    object.__setattr__(sys, "lam", SaysAboveOneHalf(1, 4))
    with pytest.raises(ConstructionError,
                       match="^no admissible digit at 0; expansion broke its invariant$"):
        realize_point(sys, 0, 1)


def test_a_partial_sum_off_by_one_exceeds_the_expansion_bound(monkeypatch):
    # at depth 10 the bound is (3/4)^10 * 4 < 1/4, so a sum moved by 1 misses it
    word_jet = blender.word_jet
    monkeypatch.setattr(blender, "word_jet",
                        lambda lam, word, order: word_jet(lam, word, order) + Jet.scalar([1]))
    with pytest.raises(ConstructionError, match="^expansion residual exceeded its certified bound$"):
        realize_point(SkewSystem(F(3, 4), F(1, 10)), 0, 10)

