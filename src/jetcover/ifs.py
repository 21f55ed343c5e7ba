"""Contracting affine iterated function systems on R^n.

Words are tuples of symbol labels ordered outermost-first: ``word[0]`` is
the *last* map applied, so ``evaluate_word(sys, w, x)`` computes
``f_{w[0]}(f_{w[1]}(... f_{w[-1]}(x) ...))``.  This matches the backward
itineraries used everywhere downstream (the most recent branch comes
first) and the pullback order of the jet realizer.

All arithmetic is exact rational; this module never touches floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .boxes import Interval
from .errors import (
    DegenerateInputError,
    ResourceLimitError,
    ShapeError,
    UnknownSymbolError,
)
from .linalg import Mat, Vec
from .rational import rat, rat_str

Word = Tuple[str, ...]

WORD_ENUMERATION_CAP = 2 ** 18  # words of one enumeration: 2 maps to depth 18
RASTER_PIXEL_CAP = 2 ** 22  # 2048 x 2048, a 12 MiB raster
COVER_LEAF_CAP = 2 ** 20  # leaves of one covering certificate


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix @ x + offset with a certified contraction bound.

    ``contraction`` upper-bounds the operator infinity norm of ``matrix``
    and must be < 1.  When omitted it defaults to the computed norm.
    """

    matrix: Mat
    offset: Vec
    contraction: Fraction

    def __init__(self, matrix, offset, contraction=None):
        m = linalg.mat(matrix)
        t = linalg.vec(offset)
        if len(m) != len(t) or (m and len(m[0]) != len(t)):
            raise ShapeError("matrix/offset dimensions disagree")
        norm = linalg.inf_norm_mat(m)
        c = norm if contraction is None else rat(contraction)
        if c < norm:
            raise DegenerateInputError(
                f"declared contraction {rat_str(c)} below the computed norm {rat_str(norm)}"
            )
        if c >= 1:
            raise DegenerateInputError(f"contraction bound {rat_str(c)} is not < 1")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", t)
        object.__setattr__(self, "contraction", c)

    @property
    def dim(self) -> int:
        return len(self.offset)

    def __call__(self, x: Sequence[Fraction]) -> Vec:
        if len(x) != self.dim:
            raise ShapeError(f"point has {len(x)} components, map expects {self.dim}")
        return linalg.vec_add(linalg.mat_vec(self.matrix, tuple(x)), self.offset)

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """self after inner: x -> self(inner(x)). Contraction bound multiplies."""
        return AffineMap(
            linalg.mat_mul(self.matrix, inner.matrix),
            linalg.vec_add(linalg.mat_vec(self.matrix, inner.offset), self.offset),
            self.contraction * inner.contraction,
        )


def affine_1d(slope, offset) -> AffineMap:
    return AffineMap(((slope,),), (offset,))


@dataclass(frozen=True)
class IFSystem:
    """Finite family of contracting affine maps with a symbol alphabet."""

    alphabet: Tuple[str, ...]
    maps: Dict[str, AffineMap]

    def __init__(self, alphabet: Sequence[str], maps: Dict[str, AffineMap]):
        alphabet = tuple(alphabet)
        if len(set(alphabet)) != len(alphabet) or not alphabet:
            raise DegenerateInputError("alphabet must be nonempty without repeats")
        if set(maps) != set(alphabet):
            raise DegenerateInputError("maps must cover exactly the alphabet")
        dims = {maps[s].dim for s in alphabet}
        if len(dims) != 1:
            raise ShapeError("all maps must share one dimension")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "maps", dict(maps))

    @property
    def dim(self) -> int:
        return self.maps[self.alphabet[0]].dim

    @property
    def lambda_max(self) -> Fraction:
        return max(self.maps[s].contraction for s in self.alphabet)

    @property
    def radius(self) -> Fraction:
        """Banach bound: every limit-set point has infinity norm <= radius."""
        off = max(linalg.inf_norm_vec(self.maps[s].offset) for s in self.alphabet)
        return off / (1 - self.lambda_max)

    def map_for(self, symbol: str) -> AffineMap:
        try:
            return self.maps[symbol]
        except KeyError:
            raise UnknownSymbolError(symbol) from None

    def origin(self) -> Vec:
        return tuple(Fraction(0) for _ in range(self.dim))


def standard_pair(lam) -> IFSystem:
    """The two-map line system x -> lam*x + 1 ('+') and x -> lam*x - 1 ('-')."""
    lam = rat(lam)
    return IFSystem(
        ("+", "-"),
        {"+": affine_1d(lam, 1), "-": affine_1d(lam, -1)},
    )


def evaluate_word(sys: IFSystem, word: Sequence[str], x: Sequence[Fraction]) -> Vec:
    """Apply the word composition to x, innermost (last) symbol first."""
    pt = linalg.vec(x)
    if len(pt) != sys.dim:
        raise ShapeError(f"point has {len(pt)} components, system is {sys.dim}-dim")
    for symbol in reversed(tuple(word)):
        pt = sys.map_for(symbol)(pt)
    return pt


def word_map(sys: IFSystem, word: Sequence[str]) -> AffineMap:
    """The composed affine map of a nonempty word."""
    word = tuple(word)
    if not word:
        raise DegenerateInputError("empty word has no composed map")
    composed: Optional[AffineMap] = None
    for symbol in reversed(word):
        f = sys.map_for(symbol)
        composed = f if composed is None else f.compose(composed)
    return composed


def word_fixed_point(sys: IFSystem, word: Sequence[str]) -> Vec:
    """Unique p with evaluate_word(sys, word, p) == p: p = (I - A_w)^-1 t_w.

    (I - A_w) is invertible because the composed contraction is < 1.
    """
    f = word_map(sys, word)
    i_minus_a = linalg.mat_sub(linalg.identity(f.dim), f.matrix)
    return linalg.mat_vec(linalg.inverse(i_minus_a), f.offset)


def limit_set_cloud(sys: IFSystem, depth: int) -> List[Tuple[Vec, Word]]:
    """All depth-k word evaluations at 0, in lexicographic word order.

    Every limit-set point lies within lambda_max^k * radius (inf norm) of
    some returned point, and conversely.  Points are computed by suffix
    sharing, so the whole cloud costs O(|alphabet|^k) map applications.
    """
    if depth < 1:
        raise DegenerateInputError("depth must be >= 1")
    size = len(sys.alphabet)  # the power is capped, so a huge depth forms no huge count
    if size ** min(depth, WORD_ENUMERATION_CAP.bit_length()) > WORD_ENUMERATION_CAP:
        raise ResourceLimitError(f"{size}^{depth} words exceed the cap {WORD_ENUMERATION_CAP}")
    level: List[Tuple[Vec, Word]] = [(sys.origin(), ())]
    for _ in range(depth):
        level = [
            (sys.map_for(b)(pt), (b,) + w)
            for b in sys.alphabet
            for pt, w in level
        ]
    return level


@dataclass(frozen=True)
class TwoMapVerdict:
    """Outcome of the two-map line trichotomy.

    ``robust_interior`` carries the epsilon-trimmed interval covered by the
    two branch images of its interior (epsilon = half the image overlap);
    otherwise a perturbation can split the images and empty the interior.
    """

    robust_interior: bool
    trimmed: Optional[Interval] = None
    epsilon: Optional[Fraction] = None

    @property
    def kind(self) -> str:
        return "RobustInterior" if self.robust_interior else "PerturbablyEmpty"


def _map_interval(f: AffineMap, iv: Interval) -> Interval:
    return iv.scale_add(f.matrix[0][0], f.offset[0])


def decide_two_map_line(f1: AffineMap, f2: AffineMap) -> TwoMapVerdict:
    """Trichotomy for two contracting maps of the line.

    I = convex hull of the two fixed points.  Overlapping interiors of
    f1(I), f2(I) give a robustly covered trimmed interval; disjoint
    interiors can be perturbed to genuinely disjoint images.
    """
    if f1.dim != 1 or f2.dim != 1:
        raise ShapeError("trichotomy is for one-dimensional maps")
    if f1.matrix == f2.matrix and f1.offset == f2.offset:
        raise DegenerateInputError("the two maps are identical")
    p1 = f1.offset[0] / (1 - f1.matrix[0][0])
    p2 = f2.offset[0] / (1 - f2.matrix[0][0])
    hull = Interval(min(p1, p2), max(p1, p2))
    img1 = _map_interval(f1, hull)
    img2 = _map_interval(f2, hull)
    overlap_lo = max(img1.lo, img2.lo)
    overlap_hi = min(img1.hi, img2.hi)
    if overlap_lo >= overlap_hi:
        return TwoMapVerdict(robust_interior=False)
    eps = (overlap_hi - overlap_lo) / 2
    return TwoMapVerdict(
        robust_interior=True,
        trimmed=Interval(hull.lo + eps, hull.hi - eps),
        epsilon=eps,
    )
