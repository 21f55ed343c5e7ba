"""The pairwise partition check, kept as the test oracle.

This is the partition test `jetcover.covering` ran before its checker
replayed the bisection tree, copied unchanged.  It accepts any exact
partition of the target: containment, total volume, and pairwise
disjoint interiors, at a cost of one `Box.interiors_disjoint` call per
pair of leaves.  The replay accepts only the leaf sets of the midpoint
bisection tree, so the two verdicts agree on every certificate
`certify_covering` writes and on its mutants, and differ on partitions
cut off the midpoints.

It also keeps the doubling loop that `Certificate.depth_used` ran before
its closed form, as that property's oracle, and makes the planar
certificates the covering tests share.  It keeps the `Fraction`
subdivision driver that `certify_covering` and the 1-d window cover ran
before the dyadic integer grid, with the midpoint bisection that was
`Box.bisect`: it is the oracle of `certify_covering` and of the two
window leaves `certify_delta_covering` states in closed form, and it
shares no code with the grid driver.

Last, it keeps the `Fraction` checker that `check_certificate` was before
it decided on integer cell coordinates (the bisection replay on endpoint
bounds and the per-leaf endpoint fit test), and the loader that parsed
every endpoint string of a certificate afresh, as the oracles of the
integer checker and of the parse-once loader.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple, Union

from jetcover import linalg
from jetcover.boxes import Box, Interval
from jetcover.covering import (
    DEFAULT_MAX_DEPTH,
    Certificate,
    CoveringFailure,
    certify_covering,
)
from jetcover.errors import (
    CertificateFormatError,
    DegenerateInputError,
    ResourceLimitError,
    SingularMatrixError,
)
from jetcover.ifs import COVER_LEAF_CAP, AffineMap, IFSystem
from jetcover.rational import rat
from jetcover.serialize import _affine_from_dict


def _leaves_partition(target: Box, leaves: Sequence[Box]) -> bool:
    """Exact partition check: containment, disjoint interiors, full volume.

    Finitely many closed sub-boxes of U with pairwise disjoint interiors
    and total volume equal to vol(U) cover U entirely, so this is an exact
    verification of the partition claim.
    """
    if not leaves:
        return False
    vol = Fraction(0)
    for leaf in leaves:
        if not target.contains_box(leaf):
            return False
        vol += leaf.volume()
    if vol != target.volume():
        return False
    for i in range(len(leaves)):
        for j in range(i + 1, len(leaves)):
            if not leaves[i].interiors_disjoint(leaves[j]):
                return False
    return True


def loop_depth_used(cert: Certificate) -> int:
    """The doubling loop, one step per level, capped by the file's depth."""
    v = cert.target.volume()
    depths = []
    for leaf, _ in cert.leaves:
        d = 0
        lv = leaf.volume()
        while lv < v and d < cert.max_depth:
            lv *= 2
            d += 1
        depths.append(d)
    return max(depths, default=0)


def planar_system(lam: Fraction) -> IFSystem:
    """x -> lam x + (±1, ±1), one map per corner."""
    maps = {
        label: AffineMap([[lam, 0], [0, lam]], [sx, sy])
        for label, sx, sy in (("a", 1, 1), ("b", 1, -1), ("c", -1, 1), ("d", -1, -1))
    }
    return IFSystem(("a", "b", "c", "d"), maps)


@lru_cache(maxsize=None)
def planar_certificate(lam: Fraction, h: Fraction, inverse_margin: int) -> Certificate:
    """Certificate of `planar_system(lam)` on [-2, h]^2 at margin
    1/inverse_margin."""
    outcome = certify_covering(
        planar_system(lam), Box.of((-2, h), (-2, h)), Fraction(1, inverse_margin)
    )
    assert isinstance(outcome, Certificate)
    return outcome


# --- the Fraction subdivision driver -------------------------------------------
#
# `_subdivide` and the midpoint bisection as they were before the driver ran
# on the dyadic integer grid, copied unchanged apart from the bisection: it
# was the method `Box.bisect`, and is a function here that `_subdivide`
# takes as its `split`, so a test can cut pieces off the midpoints.


def longest_axis(box: Box) -> int:
    widths = [iv.width for iv in box.intervals]
    return widths.index(max(widths))


def bisect_interval(iv: Interval) -> Tuple[Interval, Interval]:
    m = (iv.lo + iv.hi) / 2
    return Interval(iv.lo, m), Interval(m, iv.hi)


def bisect(box: Box) -> Tuple[Box, Box]:
    """Split along the longest axis (lowest index on ties)."""
    ax = longest_axis(box)
    left, right = bisect_interval(box.intervals[ax])
    lo = list(box.intervals)
    hi = list(box.intervals)
    lo[ax] = left
    hi[ax] = right
    return Box(lo), Box(hi)


def _subdivide(root: Union[Box, Interval], witness: Callable, max_depth: int, split=None):
    """Bisect depth-first, lower half first, until `witness` labels each piece.

    Returns ``(leaves, None)`` in visit order, or ``(None, piece)`` for the
    first piece still unlabelled at `max_depth`.
    """
    if split is None:
        split = bisect_interval if isinstance(root, Interval) else bisect
    leaves = []
    stack = [(root, 0)]
    while stack:
        piece, depth = stack.pop()
        label = witness(piece)
        if label is not None:
            leaves.append((piece, label))
            continue
        if depth >= max_depth:
            return None, piece
        lo_half, hi_half = split(piece)
        stack.append((hi_half, depth + 1))
        stack.append((lo_half, depth + 1))
    return tuple(leaves), None


# --- the per-box certifier ---------------------------------------------------
#
# `certify_covering` and `inverse_image_box` as they were while the certifier
# inverted the branch matrix once per box and symbol tried, copied unchanged
# apart from the certifier's name and its `split`, which defaults to the
# midpoint bisection.  The certifier now inverts each map once and decides
# on the integer grid, and must decide every box as this copy does.



def inverse_image_box(f: AffineMap, box: Box) -> Box:
    """Box enclosure of f^{-1}(box) by exact interval evaluation.

    The enclosure is the exact inverse image when the inverse matrix is
    diagonal (in particular for every 1-d map); otherwise a superset,
    which keeps the certificate sound.
    """
    if box.dim != f.dim:
        raise DegenerateInputError("box dimension does not match the map")
    try:
        inv = linalg.inverse(f.matrix)
    except SingularMatrixError:
        raise SingularMatrixError("branch matrix is singular") from None
    shifted = [
        Interval(iv.lo - t, iv.hi - t) for iv, t in zip(box.intervals, f.offset)
    ]
    out = []
    for row in inv:
        lo = Fraction(0)
        hi = Fraction(0)
        for a, iv in zip(row, shifted):
            img = iv.scale_add(a, Fraction(0))
            lo += img.lo
            hi += img.hi
        out.append(Interval(lo, hi))
    return Box(out)


def reference_certify_covering(
    sys: IFSystem,
    target: Box,
    margin,
    max_depth: int = DEFAULT_MAX_DEPTH,
    split=None,
) -> Union[Certificate, CoveringFailure]:
    """Depth-first subdivision certifier.

    Leaves are emitted in deterministic depth-first order (lower bisection
    half first); the witness is the first alphabet symbol whose inverse
    image fits in the shrunk target.
    """
    margin = rat(margin)
    if margin <= 0:
        raise DegenerateInputError("margin must be positive")
    if target.dim != sys.dim:
        raise DegenerateInputError("target box dimension does not match the system")
    shrunk = target.shrink(margin)  # raises DegenerateInputError if too thin

    def witness(box: Box) -> Optional[str]:
        for b in sys.alphabet:
            if shrunk.contains_box(inverse_image_box(sys.maps[b], box)):
                return b
        return None

    leaves, stuck = _subdivide(target, witness, max_depth, split)
    if stuck is not None:
        return CoveringFailure(witness_box=stuck, max_depth=max_depth)
    return Certificate(
        system=sys, target=target, margin=margin, max_depth=max_depth, leaves=leaves
    )


def reference_certify_window_cover(
    target: Interval,
    windows: Sequence[Tuple[str, Interval]],
    margin: Fraction,
    max_depth: int = 40,
) -> Union[Tuple[Tuple[Interval, str], ...], CoveringFailure]:
    """`certify_window_cover` as it was on the `Fraction` driver, copied
    unchanged apart from its name and its return value: the leaves, as
    (interval, label) pairs in visit order, in place of a certificate."""
    if max_depth < 0:
        raise DegenerateInputError("max_depth must be non-negative")
    if margin <= 0:
        raise DegenerateInputError("margin must be positive")
    shrunk = [(label, win.shrink(margin)) for label, win in windows]

    def witness(iv: Interval) -> Optional[str]:
        return next((lb for lb, win in shrunk if win.contains_interval(iv)), None)

    leaves, stuck = _subdivide(target, witness, max_depth)
    if stuck is not None:
        return CoveringFailure(witness_box=Box([stuck]), max_depth=max_depth)
    return leaves


# --- the Fraction checker ---------------------------------------------------
#
# `check_certificate` and its helpers as they were before the checker ran on
# integer cell coordinates, copied unchanged apart from the names of the
# replay (`replay_partition`, was `_leaves_partition`) and of the checker.


def _bounds(box: Box) -> Tuple[Tuple[Fraction, Fraction], ...]:
    return tuple((iv.lo, iv.hi) for iv in box.intervals)


def _split(piece):
    """The checker's own midpoint split of a piece given by its bounds:
    the longest axis, the lowest index on ties, lower half first."""
    widths = [hi - lo for lo, hi in piece]
    ax = widths.index(max(widths))
    lo, hi = piece[ax]
    mid = (lo + hi) / 2
    return (
        piece[:ax] + ((lo, mid),) + piece[ax + 1:],
        piece[:ax] + ((mid, hi),) + piece[ax + 1:],
    )


def replay_partition(target: Box, leaves: Sequence[Box]) -> bool:
    """True iff the leaves are the leaf set of the midpoint bisection tree
    of `target`, in any order.

    After a containment and volume pass (which raises on a leaf of the
    wrong dimension), the tree is replayed from the target: a piece that
    is a leaf is struck off, any other piece is split.  A tree with L
    leaves has L - 1 splits, so the replay gives up at the L-th and costs
    O(L) whatever the leaves are; it accepts iff every leaf is struck off.
    An exact partition cut anywhere but at the midpoints is rejected.
    """
    if not leaves:
        return False
    vol = Fraction(0)
    for leaf in leaves:
        if not target.contains_box(leaf):
            return False
        vol += leaf.volume()
    if vol != target.volume():
        return False
    remaining = {_bounds(leaf) for leaf in leaves}
    if len(remaining) != len(leaves):
        return False  # a repeated leaf
    splits_left = len(leaves) - 1
    stack = [_bounds(target)]
    while stack:
        piece = stack.pop()
        if piece in remaining:
            remaining.remove(piece)
        elif splits_left == 0:
            return False
        else:
            splits_left -= 1
            stack.extend(_split(piece))
    return not remaining


def _inverse_branch(f: AffineMap, shrunk: Box):
    """The inverse matrix M^-1 of f(x) = M x + t, and the rows' windows
    `shrunk + M^-1 t`: f^-1(x) = M^-1 x - M^-1 t lies in `shrunk` iff
    each row of M^-1 x lies in its window."""
    if f.dim != shrunk.dim:
        raise DegenerateInputError("box dimension does not match the map")
    try:
        inv = linalg.inverse(f.matrix)
    except SingularMatrixError:
        raise SingularMatrixError("branch matrix is singular") from None
    shift = linalg.mat_vec(inv, f.offset)
    windows = [(iv.lo + c, iv.hi + c) for iv, c in zip(shrunk.intervals, shift)]
    return inv, windows


def _preimage_fits(inv: linalg.Mat, windows, leaf: Box) -> bool:
    """Whether the interval enclosure of inv @ leaf lies in `windows`."""
    for row, (w_lo, w_hi) in zip(inv, windows):
        lo = hi = Fraction(0)
        for a, iv in zip(row, leaf.intervals):
            if a > 0:
                lo += a * iv.lo
                hi += a * iv.hi
            elif a < 0:
                lo += a * iv.hi
                hi += a * iv.lo
        if lo < w_lo or hi > w_hi:
            return False
    return True


def reference_check_certificate(cert: Certificate) -> bool:
    """Re-verify a certificate from scratch; True iff every claim holds.

    The leaves must be the leaf set of the target's midpoint bisection
    tree (`replay_partition`), and each leaf's witness branch must pull
    the leaf into the target shrunk by the margin.  Each witness map is
    inverted once, on its first use, so a map no leaf names is never
    inverted.
    """
    if not isinstance(cert, Certificate):
        raise CertificateFormatError("not a certificate")
    if cert.margin <= 0:
        return False
    try:
        shrunk = cert.target.shrink(cert.margin)
    except DegenerateInputError:
        return False
    if not replay_partition(cert.target, [leaf for leaf, _ in cert.leaves]):
        return False
    branches = {}
    for leaf, witness in cert.leaves:
        if witness not in cert.system.maps:
            return False
        if witness not in branches:
            branches[witness] = _inverse_branch(cert.system.maps[witness], shrunk)
        if not _preimage_fits(*branches[witness], leaf):
            return False
    return True


# --- the parse-every-string loader -------------------------------------------
#
# `serialize.load_certificate` and `box_from_list` as they were before the
# loader parsed each distinct endpoint string once, copied unchanged apart
# from the loader's name and `Interval.of(lo, hi)`, now `Interval(lo, hi)`,
# which coerces its endpoints itself.


def box_from_list(entries: Sequence) -> Box:
    return Box([Interval(lo, hi) for lo, hi in entries])


def reference_load_certificate(payload: dict) -> Certificate:
    """Parse a certificate; more leaves than `COVER_LEAF_CAP` is a
    ResourceLimitError, raised before any box is parsed."""
    try:
        system = payload["system"]
        if len(payload["leaves"]) > COVER_LEAF_CAP:
            raise ResourceLimitError(
                f"certificate has more than {COVER_LEAF_CAP} leaves"
            )
        return Certificate(
            system=IFSystem(
                tuple(system["alphabet"]),
                {s: _affine_from_dict(m) for s, m in system["maps"].items()},
            ),
            target=box_from_list(payload["box"]),
            margin=rat(payload["margin"]),
            max_depth=int(payload["depth"]),
            leaves=tuple(
                (box_from_list(leaf["box"]), str(leaf["witness"]))
                for leaf in payload["leaves"]
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateFormatError(f"malformed certificate: {exc}") from exc
