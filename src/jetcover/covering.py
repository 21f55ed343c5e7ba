"""Machine-checkable covering certificates.

A certificate proves ``Closure(U) subset Union_b f_b(Interior(U))`` for a
closed box U by exhibiting a finite partition of U into sub-boxes (leaves)
and, per leaf, one witness branch whose exact inverse image fits inside U
shrunk by a positive margin.  The margin is the quantitative robustness
radius: any perturbation of the inverse branches smaller than it keeps the
covering valid.

Certification is semi-decidable by subdivision: success is a proof,
failure (depth exhausted) is inconclusive and reports the offending
sub-box.  Certifier and checker both work on the target's dyadic grid,
each with its own code.  `certify_covering` bisects depth-first on
integer cell indices, tests each cell in integers alone, inverts each
branch map at most once and refuses more than `COVER_LEAF_CAP` leaves or
`COVER_DEPTH_CAP` depth.  Certified and loaded certificates alike hold
their leaves as `Leaves`: per axis each leaf's side as reduced integer
ratios, which the writer renders as they are, and the witnesses; their
(Box, witness) pairs are built only when `Certificate.leaves` is read as
a sequence.  The checker reads each leaf as its cell, a tuple of per-axis
heap indices that `Leaves.cells` derives from the sides with the
checker's own `_heap_indices`, each distinct side once; the certifier
hands on no cell or exponent of its own, and any other leaves go through
the same function.  The checker accepts exactly the leaf sets of the
target's midpoint bisection tree (longest axis, lowest index on ties), in
any order, by replaying that tree on the cells a depth at a time (one
split axis per depth), and tests each cell against integer rows made
once per witness and shifted per exponent vector; it inverts each
witness map once and is linear in the leaf count.  The JSON wire format
lives in `serialize`.
"""

from __future__ import annotations

import functools
from collections import abc
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, prod
from operator import mul
from typing import Sequence, Tuple, Union

from . import linalg
from .boxes import Box, Interval
from .errors import (
    CertificateFormatError,
    DegenerateInputError,
    ResourceLimitError,
    ShapeError,
    SingularMatrixError,
)
from .ifs import COVER_LEAF_CAP, AffineMap, IFSystem
from .rational import cleared, rat, ratio_str

DEFAULT_MAX_DEPTH = 24
# a failing path costs time quadratic in its depth and makes no leaves, so
# the leaf cap cannot stop it: deeper searches are refused up front
COVER_DEPTH_CAP = 1024


def _inverted(f: AffineMap):
    """The rows of M^-1, as their nonzero entries `(axis, entry)`, and the
    vector M^-1 t for f(x) = M x + t, so that f^-1(x) = M^-1 x - M^-1 t."""
    try:
        inv = linalg.inverse(f.matrix)
    except SingularMatrixError:
        raise SingularMatrixError("branch matrix is singular") from None
    rows = tuple(tuple((j, a) for j, a in enumerate(row) if a) for row in inv)
    return rows, linalg.mat_vec(inv, f.offset)


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
    out = []
    for row, c in zip(rows, shift):
        lo = hi = Fraction(0)
        for j, a in row:
            u, v = a * box[j].lo, a * box[j].hi
            lo, hi = (lo + u, hi + v) if a > 0 else (lo + v, hi + u)
        out.append(Interval(lo - c, hi - c))
    return Box(out)


@dataclass(frozen=True)
class Certificate:
    system: IFSystem
    target: Box
    margin: Fraction
    max_depth: int
    leaves: Sequence[Tuple[Box, str]]  # `Leaves` as certified or loaded, or a tuple

    @property
    def depth_used(self) -> int:
        # leaf depth is recoverable from volumes (each bisection halves): the
        # least d with lv * 2^d >= v, in closed form and capped by max_depth,
        # so a hostile zero-volume leaf reads max_depth at constant cost;
        # each volume n/m comes from the leaves' integer sides, no Box
        leaves = Leaves.of(self.target, self.leaves)
        widths = [_widths(pairs) for pairs in leaves.sides]
        volumes = ((prod(map(dict.__getitem__, widths, leaf)),
                    prod(b * d for (_, b), (_, d) in leaf)) for leaf in zip(*leaves.sides))
        v, w = self.target.volume().as_integer_ratio()  # the target's volume v/w
        depth = 0
        for n, m in volumes:  # a leaf's volume n/m, m > 0
            if n * w >= v * m:
                continue
            d = self.max_depth if n <= 0 else (-(-v * m // (w * n)) - 1).bit_length()
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

    Bisects the target depth-first, lower half first; a cell's witness is
    the first alphabet symbol whose inverse image of it fits in the shrunk
    target.  The Certificate holds its leaves, in visit order, as `Leaves`
    of their sides in reduced integer ratios, with no Box or Fraction per
    leaf.  Returns the first cell without one at `max_depth` as a
    CoveringFailure; raises ResourceLimitError for a `max_depth` above
    `COVER_DEPTH_CAP` or past `COVER_LEAF_CAP` leaves.

    A cell at depth d is ``[L_c + k_c s_c, L_c + (k_c + 1) s_c]`` on axis c,
    for the target's lower corner ``L_c = O_c / R_c``, an index vector k and
    the step ``s_c = W_c / 2^e_c``, ``W_c = N_c / R_c``, whose exponents e
    depend on d alone (each depth halves its longest step, lowest axis on
    ties: ``k_c -> 2 k_c, 2 k_c + 1``); its endpoints are ``(O_c 2^e_c + k_c
    N_c) / (R_c 2^e_c)``.  For f(x) = M x + t, f^-1(cell) lies in `shrunk`
    iff each row a of M^-1 maps the cell into its window ``shrunk_c + (M^-1
    t)_c``, and over the cell the row's exact enclosure is ``a.L + sum_c a_c
    s_c k_c + [sum_{a_c<0} a_c s_c, sum_{a_c>0} a_c s_c]``.  Over the common
    denominator q of the ``a_c W_c`` and of its window less ``a.L``, the row
    is the integers ``A_c``, ``Lo`` and ``Hi``, made when its symbol is first
    tried, so each map is inverted at most once.  Scaled by ``q 2^E``, ``E =
    max_c e_c``, the test is ``lo_min <= sum_c alpha_c k_c <= hi_max`` with
    ``alpha_c = A_c 2^(E - e_c)``, ``lo_min = Lo 2^E - sum_{alpha_c<0}
    alpha_c`` and ``hi_max = Hi 2^E - sum_{alpha_c>0} alpha_c``: a depth only
    shifts the rows, and no cell costs a `Fraction` operation.
    """
    if max_depth < 0:
        raise DegenerateInputError("max_depth must be non-negative")
    if max_depth > COVER_DEPTH_CAP:
        raise ResourceLimitError(f"max_depth {max_depth} exceeds the cap of {COVER_DEPTH_CAP}")
    margin = rat(margin)
    if margin <= 0:
        raise DegenerateInputError("margin must be positive")
    if target.dim != sys.dim:
        raise DegenerateInputError("target box dimension does not match the system")
    shrunk = target.shrink(margin)  # raises DegenerateInputError if too thin
    origin = [iv.lo for iv in target]
    widths = [iv.width for iv in target]
    rows = {}  # symbol -> its integer rows (A, Lo, Hi)

    def shifted(label: str, exps):
        """The symbol's rows at a depth's exponents: (alpha, lo_min, hi_max)."""
        if label not in rows:
            inv, shift = _inverted(sys.maps[label])
            rows[label] = []
            for row, iv, c in zip(inv, shrunk, shift):
                at = sum(a * origin[j] for j, a in row)
                (*coeffs, lo, hi), _ = cleared(
                    [*(a * widths[j] for j, a in row), iv.lo + c - at, iv.hi + c - at]
                )
                rows[label].append((tuple(zip([j for j, _ in row], coeffs)), lo, hi))
        top, out = max(exps), []
        for terms, lo, hi in rows[label]:
            alphas = tuple((c, a << (top - exps[c])) for c, a in terms)
            out.append((alphas, (lo << top) - sum(a for _, a in alphas if a < 0),
                        (hi << top) - sum(a for _, a in alphas if a > 0)))
        return out

    axes = [cleared(pair) for pair in zip(origin, widths)]  # ([O_c, N_c], R_c)

    @functools.lru_cache(maxsize=None)  # the leaves share their sides
    def side(c: int, e: int, k: int):
        """Cell k's side on axis c at exponent e, as reduced integer ratios."""
        (o, n), r = axes[c]
        at, den = (o << e) + k * n, r << e
        g, h = gcd(at, den), gcd(at + n, den)
        return (at // g, den // g), ((at + n) // h, den // h)

    levels = []  # per depth: exponents, split axis, shifted rows per symbol
    leaves = []  # (cell, exponents, witness) in visit order
    stack = [((0,) * len(widths), 0)]
    while stack:
        cell, depth = stack.pop()
        if depth == len(levels):  # a cell is at most one deeper than its parent
            exps = (0,) * len(widths)
            if levels:
                exps, ax, _ = levels[-1]
                exps = exps[:ax] + (exps[ax] + 1,) + exps[ax + 1:]
            steps = [w / (1 << e) for w, e in zip(widths, exps)]
            levels.append((exps, steps.index(max(steps)), [None] * len(sys.alphabet)))
        exps, ax, tests = levels[depth]
        for i, label in enumerate(sys.alphabet):
            if tests[i] is None:
                tests[i] = shifted(label, exps)
            for terms, lo_min, hi_max in tests[i]:
                s = 0
                for c, alpha in terms:
                    s += alpha * cell[c]
                if s < lo_min or s > hi_max:
                    break
            else:  # every row fits: the witness
                if len(leaves) >= COVER_LEAF_CAP:
                    raise ResourceLimitError(f"the covering needs more than {COVER_LEAF_CAP} leaves")
                leaves.append((cell, exps, label))
                break
        else:  # no witness
            if depth >= max_depth:
                ends = (side(c, exps[c], k) for c, k in enumerate(cell))
                box = Box([Interval(Fraction(*lo), Fraction(*hi)) for lo, hi in ends])
                return CoveringFailure(witness_box=box, max_depth=max_depth)
            head, k, tail = cell[:ax], 2 * cell[ax], cell[ax + 1:]
            stack += (head + (k + 1,) + tail, depth + 1), (head + (k,) + tail, depth + 1)
    sides = [[side(c, exps[c], cell[c]) for cell, exps, _ in leaves] for c in range(len(widths))]
    return Certificate(
        system=sys, target=target, margin=margin, max_depth=max_depth,
        leaves=Leaves(target, sides, [label for _, _, label in leaves]),
    )


def _widths(pairs) -> dict:
    """Each distinct side ((a, b), (c, d)) in `pairs`, the side [a/b, c/d]
    with b, d > 0, to ``c b - a d``, its width times b d: integers, no gcd.
    A side with a/b > c/d is a DegenerateInputError, as for `Interval`."""
    out = {}
    for pair in dict.fromkeys(pairs):
        (a, b), (c, d) = pair
        out[pair] = w = c * b - a * d
        if w < 0:
            raise DegenerateInputError(f"empty interval [{ratio_str(a, b)}, {ratio_str(c, d)}]")
    return out


def _heap_indices(axis: Interval, pairs) -> dict:
    """Each distinct pair ((a, b), (c, d)) of integer ratios in `pairs`, the
    side [a/b, c/d], to its heap index ``2^e + k`` if it is cell k of the 2^e
    equal cells of `axis`, else to None; cell m halves into 2m and 2m + 1."""
    (p, r), (u, v) = axis.lo.as_integer_ratio(), axis.width.as_integer_ratio()
    out = _widths(pairs)
    for pair, w in out.items():
        (a, b), (c, d) = pair
        out[pair] = None
        if w > 0:
            n, n_rem = divmod(u * b * d, v * w)
            k, k_rem = divmod((a * r - p * b) * d, r * w)
            if not n_rem and not k_rem and n.bit_count() == 1 and 0 <= k < n:
                out[pair] = n + k
    return out


class Leaves(abc.Sequence):
    """A certificate's leaves held as their sides, for the dyadic grid of
    `target`: an immutable sequence of (Box, witness) pairs, built on first
    use, that compares and hashes as their tuple.  `sides` holds per axis each leaf's
    side as reduced integer ratios ((a, b), (c, d)); `cells`, made from the
    sides on first use, each leaf's tuple of per-axis heap indices, or None
    when some side is no cell."""

    __slots__ = ("target", "sides", "witnesses", "_cells", "_pairs")

    def __init__(self, target: Box, sides, witnesses):
        self.target, self.sides, self.witnesses = target, sides, tuple(witnesses)
        self._cells = self._pairs = None

    @property
    def cells(self):
        if self._cells is None:
            heaps = [_heap_indices(iv, pairs) for iv, pairs in zip(self.target, self.sides)]
            on_grid = not any(None in heap.values() for heap in heaps)
            cells = zip(*(map(heap.__getitem__, pairs) for heap, pairs in zip(heaps, self.sides)))
            self._cells = (list(cells) if on_grid else None,)
        return self._cells[0]

    @classmethod
    def of(cls, target: Box, leaves) -> "Leaves":
        """`leaves` themselves if they are `Leaves` held for `target`, so a
        loaded certificate keeps its cells; any other (Box, witness) pairs
        put on the grid of `target`, where a leaf of another dimension is a
        ShapeError."""
        if isinstance(leaves, Leaves) and leaves.target == target:
            return leaves
        if any(box.dim != target.dim for box, _ in leaves):
            raise ShapeError("box dimension mismatch")
        sides = [[(iv.lo.as_integer_ratio(), iv.hi.as_integer_ratio()) for iv in axis]
                 for axis in zip(*(box.intervals for box, _ in leaves))]
        return cls(target, sides, [w for _, w in leaves])

    def _tuple(self) -> tuple:
        if self._pairs is None:  # one Interval per distinct side, the target's own first
            made = {(iv.lo.as_integer_ratio(), iv.hi.as_integer_ratio()): iv
                    for iv in reversed(self.target.intervals)}
            for pair in chain.from_iterable(self.sides):
                if pair not in made:
                    made[pair] = Interval(Fraction(*pair[0]), Fraction(*pair[1]))
            boxes = zip(*(map(made.__getitem__, pairs) for pairs in self.sides))
            self._pairs = tuple(zip(map(Box, boxes), self.witnesses))
        return self._pairs

    def __len__(self) -> int:
        return len(self.witnesses)

    def __getitem__(self, i):
        return self._tuple()[i]

    def __add__(self, other):
        return self._tuple() + other

    def __eq__(self, other):
        return self._tuple() == other

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __repr__(self) -> str:
        return repr(self._tuple())


def _split(piece, ax: int):
    """The checker's own midpoint split of a cell, a tuple of per-axis heap
    indices, on axis ax, lower half first: ``m -> 2m, 2m + 1``."""
    head, m, tail = piece[:ax], piece[ax], piece[ax + 1:]
    return head + (2 * m,) + tail, head + (2 * m + 1,) + tail


def _tree_cells(target: Box, cells):
    """The cells, tuples of per-axis heap indices (`Leaves.cells`), each
    paired with the exponents of its depth, if they are the leaf set of the
    midpoint bisection tree of `target`, in any order, else None.  The tree
    is replayed on these tuples one depth at a time: a piece that is a leaf
    is struck off, any other is split on its depth's longest axis
    ``W_c/2^e_c`` (lowest index on ties).  L leaves need L - 1 splits, so
    the replay gives up at the L-th: O(L)."""
    exps_of = dict.fromkeys(cells)  # cell -> its depth's exponents, once struck off
    if not cells or len(exps_of) != len(cells):
        return None  # no leaf, or a repeated leaf
    level, splits_left = [(1,) * target.dim], len(cells) - 1  # the target: cell 0 of 2^0
    widths, _ = cleared([iv.width for iv in target])  # the W_c over one denominator
    while level:  # the pieces of one depth, which share their exponents
        exps = tuple(m.bit_length() - 1 for m in level[0])
        steps = [w << (max(exps) - e) for w, e in zip(widths, exps)]
        ax, inner = steps.index(max(steps)), []
        for piece in level:
            if piece in exps_of:
                exps_of[piece] = exps
            elif splits_left == 0:
                return None
            else:
                splits_left -= 1
                inner += _split(piece, ax)
        level = inner
    return None if None in exps_of.values() else list(exps_of.items())


def _fit_test(f: AffineMap, target: Box, shrunk: Box):
    """Invert f(x) = M x + t once; `fits(cell, exps)` is whether f^-1 pulls
    the cell into `shrunk`: each row a of M^-1 maps it into ``shrunk + M^-1
    t``.  Each row goes over one denominator q once, in integers: ``A_c =
    q a_c W_c`` and its window less a.L, ``[Lo, Hi]``.  Scaled by ``q 2^E``,
    ``E = max_c e_c``, the test on heap indices ``m_c = 2^e_c + k_c`` is
    ``lo <= sum_c alpha_c m_c <= hi`` with ``alpha_c = A_c 2^(E - e_c)``
    and ``lo = (Lo + sum_c A_c) 2^E - sum_{alpha_c<0} alpha_c``, hi alike:
    an exponent vector only shifts the rows, with no Fraction or rounding."""
    if f.dim != shrunk.dim:
        raise DegenerateInputError("box dimension does not match the map")
    try:
        inv = linalg.inverse(f.matrix)
    except SingularMatrixError:
        raise SingularMatrixError("branch matrix is singular") from None
    # row a's window less a.L, for the target's lower corner L: shrunk + M^-1 (t - L)
    at = linalg.mat_vec(inv, [t - iv.lo for t, iv in zip(f.offset, target)])
    rows, tests = [], {}
    for row, iv, c in zip(inv, shrunk, at):
        values = [a * w.width for a, w in zip(row, target)] + [iv.lo + c, iv.hi + c]
        (*coeffs, lo, hi), _ = cleared(values)
        rows.append((coeffs, lo + sum(coeffs), hi + sum(coeffs)))

    def fits(cell, exps) -> bool:
        shifted = tests.get(exps)
        if shifted is None:
            top, shifted = max(exps), tests.setdefault(exps, [])
            for coeffs, lo, hi in rows:
                alphas = [a << (top - e) for a, e in zip(coeffs, exps)]
                shifted.append((alphas, (lo << top) - sum(a for a in alphas if a < 0),
                                (hi << top) - sum(a for a in alphas if a > 0)))
        for alphas, lo, hi in shifted:
            if not lo <= sum(map(mul, alphas, cell)) <= hi:
                return False
        return True

    return fits


def check_certificate(cert: Certificate) -> bool:
    """Re-verify a certificate from scratch; True iff every claim holds.

    On integer cell coordinates: the leaves must be the leaf set of the
    target's midpoint bisection tree (`_tree_cells`), and each witness must
    pull its leaf's cell into the target shrunk by the margin (`_fit_test`,
    one inversion per witness map, at its first use, so a map no leaf names
    is never inverted).  The leaves are read through `Leaves.of`, which
    keeps the cells of `Leaves` held for the certificate's target and puts
    any other leaves on its grid.  It shares no subdivision or
    inverse-image code with `certify_covering`, and is linear in the leaf
    count.
    """
    if not isinstance(cert, Certificate):
        raise CertificateFormatError("not a certificate")
    if cert.margin <= 0:
        return False
    try:
        shrunk = cert.target.shrink(cert.margin)
    except DegenerateInputError:
        return False
    leaves = Leaves.of(cert.target, cert.leaves)
    cells = leaves.cells and _tree_cells(cert.target, leaves.cells)
    if not cells:
        return False
    maps, tests = cert.system.maps, {}
    for witness, (cell, exps) in zip(leaves.witnesses, cells):
        if witness not in tests:
            if witness not in maps:
                return False
            tests[witness] = _fit_test(maps[witness], cert.target, shrunk)
        if not tests[witness](cell, exps):
            return False
    return True
