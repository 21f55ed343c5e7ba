"""Planar skew-product demonstrations over the two-branch expanding base.

The model is (x, y) -> (4|x| - 6, lam*y + sgn(x)) on two rectangles left
and right of the y-axis, with parametric fibers y -> (lam + a) y + sgn(x).
Its unstable manifolds are horizontal segments (the fiber map is constant
in x within a branch), so unions of unstable leaves reduce to exact sets
of fiber itinerary sums and curve realization reduces to the jet-space
realizer on the y coordinate.  Rendering is a deterministic PPM raster.

The nearly-affine checker compares user-supplied sample tables against
the two affine inverse-branch models; its estimates are grid maxima only
and are always flagged non-certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from .boxes import Box, Interval
from .covering import (
    DEFAULT_MAX_DEPTH,
    Certificate,
    CoveringFailure,
    certify_covering,
)
from .errors import ConstructionError, DegenerateInputError, ShapeError
from .ifs import Word, limit_set_cloud, standard_pair
from .jetcovering import (
    JetCoveringSystem,
    RealizationResult,
    realize_jet,
    word_jet,
)
from .jets import Jet
from .rational import rat
from .serialize import BranchSample, check_raster, encode_ppm


@dataclass(frozen=True)
class SkewSystem:
    """The skew product restricted to its two branch rectangles.

    overhang is the amount the branch domains extend past [1,2] and
    [-2,-1] in x (and past +-1/(1-lam) vertically); it must be positive
    for any open-covering statement to make sense.
    """

    lam: Fraction
    overhang: Fraction

    def __init__(self, lam, overhang):
        lam = rat(lam)
        overhang = rat(overhang)
        # contractions at or below 1/2 are admitted so the covering check
        # can return its negative verdict on them
        if not 0 < lam < 1:
            raise DegenerateInputError("contraction must lie in (0, 1)")
        if overhang < 0:
            raise DegenerateInputError("overhang must be >= 0")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "overhang", overhang)

    def branch_x_interval(self, sign: int) -> Interval:
        if sign > 0:
            return Interval(1 - self.overhang, 2 + self.overhang)
        return Interval(-2 - self.overhang, -1 + self.overhang)

    def base_image(self, sign: int) -> Interval:
        """Exact image of the branch x-interval under x -> 4|x| - 6."""
        iv = self.branch_x_interval(sign)
        if sign > 0:
            return iv.scale_add(Fraction(4), Fraction(-6))
        return iv.scale_add(Fraction(-4), Fraction(-6))


def curve_domain_box(sys: SkewSystem, order: int) -> Box:
    """Open jet box for admissible x-jets: value within the expanded base
    interval, higher coefficients within the overhang."""
    return Box(
        [Interval(-2 - sys.overhang, 2 + sys.overhang)]
        + [Interval(-sys.overhang, sys.overhang) for _ in range(order)]
    )


@dataclass(frozen=True)
class BlenderCoverResult:
    """Composite certificate for the planar example.

    ok requires: each branch's base image contains the expanded base
    target exactly, and the 1-d fiber pair covers [-2, 2] (certified by
    subdivision).  A failed fiber covering carries the witness gap.
    """

    ok: bool
    base_target: Interval
    base_images: Tuple[Tuple[str, Interval, bool], ...]
    fiber_outcome: Union[Certificate, CoveringFailure]


def verify_example_covering(
    sys: SkewSystem,
    margin=Fraction(1, 100),
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> BlenderCoverResult:
    """Exact check that the example is a covering blender at this contraction.

    Returns a negative verdict (ok=False with the uncovered fiber witness)
    rather than raising when the contraction is too weak, e.g. lam <= 1/2
    leaves a gap around 0 in the fiber images.
    """
    if sys.overhang == 0:
        raise DegenerateInputError("open covering needs a positive overhang")
    target = Interval(-2 - sys.overhang, 2 + sys.overhang)
    base_rows = []
    base_ok = True
    for label, sign in (("+", 1), ("-", -1)):
        img = sys.base_image(sign)
        holds = img.contains_interval(target)
        base_ok = base_ok and holds
        base_rows.append((label, img, holds))
    fiber = certify_covering(
        standard_pair(sys.lam), Box([Interval(-2, 2)]), margin, max_depth
    )
    ok = base_ok and isinstance(fiber, Certificate)
    return BlenderCoverResult(
        ok=ok,
        base_target=target,
        base_images=tuple(base_rows),
        fiber_outcome=fiber,
    )


@dataclass(frozen=True)
class PointRealization:
    word: Word
    partial_sum: Fraction
    residual: Fraction
    error_bound: Fraction


def realize_point(sys: SkewSystem, y, depth: int) -> PointRealization:
    """Greedy signed expansion of a fiber point, tie-break on +1.

    Digits keep the running preimage inside [-1/(1-lam), 1/(1-lam)], so
    |y - sum_j lam^j d_j| <= lam^depth / (1 - lam), exactly.
    """
    y = rat(y)
    lam = sys.lam
    if lam <= Fraction(1, 2):
        raise DegenerateInputError("greedy expansion needs contraction above 1/2")
    bound = 1 / (1 - lam)
    if abs(y) > bound:
        raise DegenerateInputError(f"|{y}| exceeds the fiber bound {bound}")
    if depth < 0:
        raise DegenerateInputError("depth must be >= 0")
    word: List[str] = []
    cur = y
    for _ in range(depth):
        nxt = (cur - 1) / lam
        if abs(nxt) <= bound:
            word.append("+")
        else:
            nxt = (cur + 1) / lam
            if abs(nxt) > bound:
                raise ConstructionError(
                    f"no admissible digit at {cur}; expansion broke its invariant"
                )
            word.append("-")
        cur = nxt
    partial = word_jet(lam, word, 0).coeffs[0][0]
    residual = abs(y - partial)
    error_bound = lam ** depth * bound
    if residual > error_bound:
        raise ConstructionError("expansion residual exceeded its certified bound")
    return PointRealization(
        word=tuple(word),
        partial_sum=partial,
        residual=residual,
        error_bound=error_bound,
    )


@dataclass(frozen=True)
class CurveJetRealization:
    """Realized curve jet on a horizontal unstable leaf.

    The leaf structure makes the x-jet match tautologically (the realized
    curve is the vertical projection of the target onto the leaf); the
    y-jet matches within the certified residual of the jet realizer.
    """

    realization: RealizationResult
    x_jet: Jet
    y_target: Jet
    x_exact: bool
    y_residual: Fraction


def realize_curve_jet(
    sys: SkewSystem,
    jet_sys: JetCoveringSystem,
    x_jet: Jet,
    y_jet: Jet,
    tol,
) -> CurveJetRealization:
    if jet_sys.lam != sys.lam:
        raise DegenerateInputError(
            "jet system and skew system must share the contraction"
        )
    order = jet_sys.order
    if x_jet.dim != 1 or y_jet.dim != 1:
        raise ShapeError("curve jets must be one-dimensional")
    if x_jet.order != order or y_jet.order != order:
        raise ShapeError(f"curve jets must have order {order}")
    domain = curve_domain_box(sys, order)
    flat = x_jet.flat()
    for iv, c in zip(domain.intervals, flat):
        if not (iv.lo < c < iv.hi):  # open box membership
            raise DegenerateInputError(
                f"x-jet coefficient {c} leaves the open window ({iv.lo}, {iv.hi})"
            )
    realization = realize_jet(jet_sys, y_jet, tol)
    return CurveJetRealization(
        realization=realization,
        x_jet=x_jet,
        y_target=y_jet,
        x_exact=True,
        y_residual=realization.achieved_residual,
    )


# --- rendering ----------------------------------------------------------------


def unstable_heights(
    sys: SkewSystem, a, depth: int
) -> List[Tuple[Fraction, Word]]:
    """Exact fiber heights X_a(w) for all words of length depth, lexicographic."""
    a = rat(a)
    lam_a = sys.lam + a
    if not Fraction(1, 2) < lam_a < 1:
        raise DegenerateInputError("perturbed contraction must stay in (1/2, 1)")
    cloud = limit_set_cloud(standard_pair(lam_a), depth)
    return [(pt[0], w) for pt, w in cloud]


def render_unstable_union(
    sys: SkewSystem, a, depth: int, width: int, height: int
) -> bytes:
    """PPM (P6) raster of [-2,2]^2 with one full-width segment per word.

    Pixel mapping: origin top-left, row-major; height y lands on row
    floor((2 - y) * height / 4), rows outside the viewport are clipped.
    Byte-identical output for identical inputs.
    """
    check_raster(width, height)  # before the 2^depth heights
    hit = {
        min(int((2 - y) * height // 4), height - 1)  # Fraction floor-div is exact
        for y, _ in unstable_heights(sys, a, depth)
        if -2 <= y <= 2
    }
    return encode_ppm(width, height, hit, range(width))


# --- nearly affine checks -------------------------------------------------------


@dataclass(frozen=True)
class BranchReport:
    deviation: Fraction  # C1 distance estimate on the grid
    boundary_clear: bool  # boundary-row images all avoid the rectangle
    samples: int
    boundary_samples: int


@dataclass(frozen=True)
class NearlyAffineReport:
    lam: Fraction
    plus: BranchReport
    minus: BranchReport
    grid_step: Fraction
    certified: bool = False  # sampling can bound nothing off the grid


def branch_region(lam: Fraction, sign: int) -> Box:
    """Domain rectangle of the inverse branch: full width, upper or lower band."""
    y_max = 1 / (1 - lam)
    y_cut = (2 * lam - 1) / (1 - lam)
    if sign > 0:
        band = Interval(-y_cut, y_max)
    else:
        band = Interval(-y_max, y_cut)
    return Box([Interval(-2, 2), band])


def _check_branch(
    lam: Fraction, sign: int, samples: Sequence[BranchSample]
) -> BranchReport:
    region = branch_region(lam, sign)
    y_max = 1 / (1 - lam)
    inv = 1 / lam
    deviation = Fraction(0)
    boundary_clear = True
    boundary_count = 0
    y_lo, y_hi = region[1].lo, region[1].hi
    for s in samples:
        if not region.contains_point((s.x, s.y)):
            raise DegenerateInputError(
                f"sample ({s.x}, {s.y}) leaves the branch domain {region}"
            )
        model_gy = (s.y - sign) / lam
        dev = max(
            abs(s.gx),
            abs(s.gy - model_gy),
            abs(s.dxx),
            abs(s.dxy),
            abs(s.dyx),
            abs(s.dyy - inv),
        )
        deviation = max(deviation, dev)
        if s.y in (y_lo, y_hi):
            boundary_count += 1
            inside_rect = abs(s.gx) <= 2 and abs(s.gy) <= y_max
            if inside_rect:
                boundary_clear = False
    if boundary_count == 0:
        boundary_clear = False  # nothing sampled, nothing confirmed
    return BranchReport(
        deviation=deviation,
        boundary_clear=boundary_clear,
        samples=len(samples),
        boundary_samples=boundary_count,
    )


def nearly_affine_check(
    lam,
    plus_samples: Sequence[BranchSample],
    minus_samples: Sequence[BranchSample],
    grid_step,
) -> NearlyAffineReport:
    """Grid C1-distance estimates against the two affine branch models.

    The models are (x, y) -> (0, (y -+ 1)/lam) on the upper/lower bands;
    deviations cover values and first derivatives.  Estimates are maxima
    over the supplied samples only.
    """
    lam = rat(lam)
    if not Fraction(1, 2) < lam < 1:
        raise DegenerateInputError("contraction must lie in (1/2, 1)")
    return NearlyAffineReport(
        lam=lam,
        plus=_check_branch(lam, 1, plus_samples),
        minus=_check_branch(lam, -1, minus_samples),
        grid_step=rat(grid_step),
    )
