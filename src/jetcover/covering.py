"""Machine-checkable covering certificates.

A certificate proves ``Closure(U) subset Union_b f_b(Interior(U))`` for a
closed box U by exhibiting a finite partition of U into sub-boxes (leaves)
and, per leaf, one witness branch whose exact inverse image fits inside U
shrunk by a positive margin.  The margin is the quantitative robustness
radius: any perturbation of the inverse branches smaller than it keeps the
covering valid.

Certification is semi-decidable by subdivision: success is a proof,
failure (depth exhausted) is inconclusive and reports the offending
sub-box for diagnosis.  Box and window covers share one subdivision
driver; the JSON wire format lives in `serialize`.  The certifier
inverts each branch map at most once per call, the first time its
symbol is tried, and tests every box against that map's row windows.

The checker accepts exactly the leaf sets of the target's midpoint
bisection tree (longest axis, lowest index on ties), in any order, which
is what the certifier emits.  It replays that tree with its own split,
striking off leaves, and inverts each witness map once; it shares no
subdivision or inverse-image code with the certifier and runs in time
linear in the leaf count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple, Union

from . import linalg
from .boxes import Box, Interval
from .errors import CertificateFormatError, DegenerateInputError, SingularMatrixError
from .ifs import AffineMap, IFSystem
from .rational import rat

DEFAULT_MAX_DEPTH = 24


def _subdivide(root: Union[Box, Interval], witness: Callable, max_depth: int):
    """Bisect depth-first, lower half first, until `witness` labels each piece.

    Returns ``(leaves, None)`` in visit order, or ``(None, piece)`` for the
    first piece still unlabelled at `max_depth`.
    """
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
        lo_half, hi_half = piece.bisect()
        stack.append((hi_half, depth + 1))
        stack.append((lo_half, depth + 1))
    return tuple(leaves), None


def _inverted(f: AffineMap):
    """The rows of M^-1 and the vector M^-1 t for f(x) = M x + t, so that
    f^-1(x) = M^-1 x - M^-1 t.  A row is kept as its nonzero entries
    `(axis, entry, entry > 0)`, the form `_row_enclosure` reads."""
    try:
        inv = linalg.inverse(f.matrix)
    except SingularMatrixError:
        raise SingularMatrixError("branch matrix is singular") from None
    rows = tuple(
        tuple((j, a, a > 0) for j, a in enumerate(row) if a) for row in inv
    )
    return rows, linalg.mat_vec(inv, f.offset)


def _row_enclosure(row, box: Box) -> Tuple[Fraction, Fraction]:
    """Exact interval enclosure (lo, hi) of x -> row . x over the box."""
    lo = hi = Fraction(0)
    for j, a, positive in row:
        iv = box.intervals[j]
        if positive:
            lo += a * iv.lo
            hi += a * iv.hi
        else:
            lo += a * iv.hi
            hi += a * iv.lo
    return lo, hi


def inverse_image_box(f: AffineMap, box: Box) -> Box:
    """Box enclosure of f^{-1}(box) by exact interval evaluation.

    The enclosure is the exact inverse image when the inverse matrix is
    diagonal (in particular for every 1-d map); otherwise a superset,
    which keeps the certificate sound.  It is the enclosure of M^-1 box
    shifted by -M^-1 t, endpoint for endpoint the one `certify_covering`
    tests against its windows.
    """
    if box.dim != f.dim:
        raise DegenerateInputError("box dimension does not match the map")
    rows, shift = _inverted(f)
    spans = (_row_enclosure(row, box) for row in rows)
    return Box([Interval(lo - c, hi - c) for (lo, hi), c in zip(spans, shift)])


def _first_fit(sys: IFSystem, shrunk: Box) -> Callable[[Box], Optional[str]]:
    """The witness test of `certify_covering`: the first alphabet symbol
    whose inverse branch pulls a box into `shrunk`, or None.

    A branch map is inverted the first time its symbol is tried, and its
    rows' windows `shrunk + M^-1 t` are kept: f^-1(box) lies in `shrunk`
    iff the enclosure of each row of M^-1 box lies in that row's window.
    """
    branches = {}

    def fits(symbol: str, box: Box) -> bool:
        if symbol not in branches:
            rows, shift = _inverted(sys.maps[symbol])
            windows = [(iv.lo + c, iv.hi + c) for iv, c in zip(shrunk.intervals, shift)]
            branches[symbol] = tuple(zip(rows, windows))
        for row, (w_lo, w_hi) in branches[symbol]:
            lo, hi = _row_enclosure(row, box)
            if lo < w_lo or hi > w_hi:
                return False
        return True

    def witness(box: Box) -> Optional[str]:
        return next((b for b in sys.alphabet if fits(b, box)), None)

    return witness


@dataclass(frozen=True)
class Certificate:
    system: IFSystem
    target: Box
    margin: Fraction
    max_depth: int
    leaves: Tuple[Tuple[Box, str], ...]

    @property
    def depth_used(self) -> int:
        # leaf depth is recoverable from volumes (each bisection halves): the
        # least d with lv * 2^d >= v, in closed form and capped by max_depth,
        # so a hostile zero-volume leaf reads max_depth at constant cost
        v = self.target.volume()
        depth = 0
        for leaf, _ in self.leaves:
            lv = leaf.volume()
            if lv >= v:
                continue
            d = self.max_depth if lv <= 0 else (-(-v // lv) - 1).bit_length()
            depth = max(depth, min(d, self.max_depth))
        return depth


@dataclass(frozen=True)
class CoveringFailure:
    """Inconclusive outcome: no single witness at max depth for this box."""

    witness_box: Box
    max_depth: int


def certify_covering(
    sys: IFSystem,
    target: Box,
    margin,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> Union[Certificate, CoveringFailure]:
    """Depth-first subdivision certifier.

    Leaves are emitted in deterministic depth-first order (lower bisection
    half first); the witness is the first alphabet symbol whose inverse
    image fits in the shrunk target.  Each branch map is inverted at most
    once per call, the first time its symbol is tried (`_first_fit`).
    """
    if max_depth < 0:
        raise DegenerateInputError("max_depth must be non-negative")
    margin = rat(margin)
    if margin <= 0:
        raise DegenerateInputError("margin must be positive")
    if target.dim != sys.dim:
        raise DegenerateInputError("target box dimension does not match the system")
    shrunk = target.shrink(margin)  # raises DegenerateInputError if too thin
    leaves, stuck = _subdivide(target, _first_fit(sys, shrunk), max_depth)
    if stuck is not None:
        return CoveringFailure(witness_box=stuck, max_depth=max_depth)
    return Certificate(
        system=sys, target=target, margin=margin, max_depth=max_depth, leaves=leaves
    )


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


def _leaves_partition(target: Box, leaves: Sequence[Box]) -> bool:
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


def check_certificate(cert: Certificate) -> bool:
    """Re-verify a certificate from scratch; True iff every claim holds.

    The leaves must be the leaf set of the target's midpoint bisection
    tree (`_leaves_partition`), and each leaf's witness branch must pull
    the leaf into the target shrunk by the margin.  Each witness map is
    inverted once, on its first use, so a map no leaf names is never
    inverted.  The checker shares no subdivision or inverse-image code
    with `certify_covering`, and its cost is linear in the leaf count.
    """
    if not isinstance(cert, Certificate):
        raise CertificateFormatError("not a certificate")
    if cert.margin <= 0:
        return False
    try:
        shrunk = cert.target.shrink(cert.margin)
    except DegenerateInputError:
        return False
    if not _leaves_partition(cert.target, [leaf for leaf, _ in cert.leaves]):
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


# --- one-dimensional window covers -----------------------------------------
#
# Same subdivision driver, but the witness test is direct containment of
# the leaf in one of finitely many open windows (shrunk by the margin).
# Used to certify shift-map coverings in pulled-back coordinates, where
# the "branches" are ranges of an affine functional rather than inverse
# maps of a contraction.


@dataclass(frozen=True)
class WindowCoverCertificate:
    target: Interval
    windows: Tuple[Tuple[str, Interval], ...]
    margin: Fraction
    leaves: Tuple[Tuple[Interval, str], ...]


def certify_window_cover(
    target: Interval,
    windows: Sequence[Tuple[str, Interval]],
    margin: Fraction,
    max_depth: int = 40,
) -> Union[WindowCoverCertificate, CoveringFailure]:
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
    return WindowCoverCertificate(
        target=target, windows=tuple(windows), margin=margin, leaves=leaves
    )
