"""Property tests: covering certificates survive the wire format, and every
false claim written into one is rejected.

Systems are two-map line IFS x -> a x + u ('+'), x -> b x - v ('-') on
[-2, 2], with slopes on the 2^-6 grid and offsets placed so that the two
branch windows overlap by a chosen sliver; certificates then take 2 to
about 10 leaves.  The mutations are judged by hand-computed exact inverse
images, not by the checker's own code.

The checker's partition test (a replay of the midpoint bisection tree) is
also compared with the pairwise test it replaced, kept in
`covering_reference`, on these certificates, on planar ones, and on
their mutants.  The whole checker, which decides on integer cell
coordinates, is compared with the `Fraction` checker it replaced, kept
there too, on the same mutants and on mutants made to probe the grid.
Last, the loader and checker, which hold and read the leaves as grid
cells, are compared with the loader and checker kept there, on wire
payloads and their mutants, and on loaded certificates whose leaves or
target `dataclasses.replace` swaps.
"""

import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covering_reference import _leaves_partition as reference_partition  # local helper module
from covering_reference import (
    bisect,
    planar_certificate,
    reference_check_certificate,
    reference_load_certificate,
)
from jetcover.boxes import Box, Interval
from jetcover.covering import (
    Certificate,
    Leaves,
    _tree_cells,
    certify_covering,
    check_certificate,
)
from jetcover.ifs import IFSystem, affine_1d
from jetcover.rational import rat_str
from jetcover.serialize import (
    box_to_list,
    canonical_json,
    covering_outcome_payload,
    load_certificate,
)

TARGET = Box([Interval(-2, 2)])
slopes = st.integers(40, 63).map(lambda j: F(j, 64))


@st.composite
def certificates(draw):
    a, b = draw(slopes), draw(slopes)
    margin = F(1, draw(st.sampled_from([4, 16, 64])))
    reach = 2 - margin  # inverse images must land in [-reach, reach]
    slack = 2 * (a + b) * reach - 4  # total room for the two offsets
    overlap = draw(st.integers(1, 8))
    k = draw(st.integers(1, 63 - overlap))
    u = 2 - a * reach + slack * k / 64
    v = 2 - b * reach + slack * (64 - k - overlap) / 64
    system = IFSystem(("+", "-"), {"+": affine_1d(a, u), "-": affine_1d(b, -v)})
    outcome = certify_covering(system, TARGET, margin)
    assert isinstance(outcome, Certificate)
    return outcome


def wire(payload) -> dict:
    return json.loads(canonical_json(payload))


def accepted(payload) -> bool:
    return check_certificate(load_certificate(wire(payload)))


@settings(deadline=None, max_examples=60)
@given(certificates())
def test_certificate_round_trip_is_accepted(cert):
    payload = wire(covering_outcome_payload(cert))
    assert load_certificate(payload) == cert
    assert accepted(payload)


@settings(deadline=None, max_examples=60)
@given(certificates(), st.data())
def test_false_claims_are_rejected(cert, data):
    payload = wire(covering_outcome_payload(cert))
    leaves = payload["leaves"]
    i = data.draw(st.integers(0, len(leaves) - 1))
    rest = leaves[:i] + leaves[i + 1:]
    assert not accepted(dict(payload, leaves=rest))
    assert not accepted(dict(payload, leaves=leaves + [leaves[i]]))

    lo, hi = (F(e) for e in leaves[i]["box"][0])
    shift = (hi - lo) * F(data.draw(st.integers(1, 8)), 4)
    shift *= data.draw(st.sampled_from([1, -1]))
    moved = dict(leaves[i], box=[[rat_str(lo + shift), rat_str(hi + shift)]])
    assert not accepted(dict(payload, leaves=rest[:i] + [moved] + rest[i:]))

    reach = 2 - F(payload["margin"])

    def escapes(leaf, symbol):
        f = payload["system"]["maps"][symbol]
        a, t = F(f["matrix"][0][0]), F(f["offset"][0])
        ends = [(F(e) - t) / a for e in leaf["box"][0]]
        return min(ends) < -reach or max(ends) > reach

    swaps = [
        (j, s)
        for j, leaf in enumerate(leaves)
        for s in ("+", "-")
        if s != leaf["witness"] and escapes(leaf, s)
    ]
    assert swaps  # the leaf at -2 can only be '-'
    j, s = data.draw(st.sampled_from(swaps))
    swapped = leaves[:j] + [dict(leaves[j], witness=s)] + leaves[j + 1:]
    assert not accepted(dict(payload, leaves=swapped))

    half_width = TARGET[0].width / 2
    margin = half_width * F(data.draw(st.integers(4, 12)), 4)
    assert not accepted(dict(payload, margin=rat_str(margin)))


# (λ, h, 1/margin) for x -> λx + (±1, ±1) on [-2, h]^2: 4, 131 and 131
# leaves; the pairwise oracle keeps them small
PLANAR = (
    (F(3, 4), F(2), 16),
    (F(296, 512), F(13, 8), 64),
    (F(308, 512), F(3, 2), 16),
)


def hull(a: Box, b: Box) -> Box:
    return Box([Interval(min(u.lo, v.lo), max(u.hi, v.hi)) for u, v in zip(a, b)])


def mutants(ordered, leaves, i, data):
    """Leaf lists derived from `leaves`, a shuffle of the certificate's
    `ordered` (box, witness) leaves: drop, duplicate or shift leaf i, split
    it into its two halves, merge two sibling leaves."""
    leaf, witness = leaves[i]
    rest = leaves[:i] + leaves[i + 1:]
    yield rest
    yield leaves + [leaves[i]]
    ax = data.draw(st.integers(0, leaf.dim - 1))
    shift = leaf[ax].width * F(data.draw(st.integers(1, 8)), 4)
    shift *= data.draw(st.sampled_from([1, -1]))
    moved = list(leaf.intervals)
    moved[ax] = Interval(moved[ax].lo + shift, moved[ax].hi + shift)
    yield rest[:i] + [(Box(moved), witness)] + rest[i:]
    yield rest[:i] + [(half, witness) for half in bisect(leaf)] + rest[i:]
    # depth-first order puts two sibling leaves next to each other
    siblings = [
        (a, b) for a, b in zip(ordered, ordered[1:]) if bisect(hull(a[0], b[0])) == (a[0], b[0])
    ]
    if len(leaves) > 1:
        assert siblings  # the deepest split of a tree has two leaf children
        a, b = data.draw(st.sampled_from(siblings))
        yield [(hull(a[0], b[0]), a[1])] + [c for c in leaves if c not in (a, b)]


def grid_mutants(target, leaves, i, data):
    """Leaf lists that probe the checker's grid: an endpoint of leaf i
    moved by 2^-60, a zero-width leaf added, leaf i cut to two thirds of
    its width, leaf i across or past the target's edge, leaf i written as
    a cell outside the target or on a grid of no power of two that has its
    own heap index, leaf i replaced by a descendant deeper than any replay
    reaches, leaf i naming a witness outside the alphabet, leaf i repeated
    with another witness."""
    leaf, witness = leaves[i]
    rest = leaves[:i] + leaves[i + 1:]
    ax = data.draw(st.integers(0, leaf.dim - 1))
    iv, edge = leaf[ax], target[ax]

    def on_axis(new):
        intervals = list(leaf.intervals)
        intervals[ax] = new
        return Box(intervals)

    nudge = F(data.draw(st.sampled_from([1, -1])), 2 ** 60)
    nudged = data.draw(st.sampled_from([
        Interval(iv.lo + nudge, iv.hi), Interval(iv.lo, iv.hi + nudge),
        Interval(iv.lo + nudge, iv.hi + nudge),
    ]))
    yield rest[:i] + [(on_axis(nudged), witness)] + rest[i:]
    point = data.draw(st.sampled_from([iv.lo, iv.hi, (iv.lo + iv.hi) / 2]))
    yield leaves + [(on_axis(Interval(point, point)), witness)]
    # W/w is an integer but no power of two when e > 0 and k is even
    yield rest[:i] + [(on_axis(Interval(iv.lo, iv.lo + iv.width * 2 / 3)), witness)] + rest[i:]
    across = Interval(edge.lo - iv.width / 2, edge.lo + iv.width / 2)
    past = Interval(edge.hi, edge.hi + iv.width)
    # outside the target, but 2^e + k is leaf i's own heap index: cell
    # n/2 + k of n/2 (twice as wide), and cell k - n of 2n (half as wide)
    n, k = edge.width / iv.width, (iv.lo - edge.lo) / iv.width
    beyond = Interval(edge.lo + (n + 2 * k) * iv.width, edge.lo + (n + 2 * k + 2) * iv.width)
    below = Interval(edge.lo + (k - n) * iv.width / 2, edge.lo + (k - n + 1) * iv.width / 2)
    for outside in (across, past, beyond, below):
        yield rest[:i] + [(on_axis(outside), witness)] + rest[i:]
    # cell m - n3 of n3 equal cells, n3 no power of two, would read as m
    m = int(n + k)
    n3 = m if m & (m - 1) else m - 1
    if n3 > 2:
        step = edge.width / n3
        third = Interval(edge.lo + (m - n3) * step, edge.lo + (m - n3 + 1) * step)
        yield rest[:i] + [(on_axis(third), witness)] + rest[i:]
    deep = leaf
    for _ in range(len(leaves) + 1):
        deep = bisect(deep)[data.draw(st.integers(0, 1))]
    yield rest[:i] + [(deep, witness)] + rest[i:]
    yield rest[:i] + [(leaf, data.draw(st.sampled_from(["z", "", "a+"])))] + rest[i:]
    yield leaves + [(leaf, data.draw(st.sampled_from(["+", "-", "a", "b", "c", "d"])))]


def boxes(leaves):
    return [leaf for leaf, _ in leaves]


def replayed(target, leaves) -> bool:
    """Whether the checker's replay takes the boxes `leaves`, put on the
    target's grid, for the leaf set of its bisection tree."""
    cells = Leaves.of(target, [(leaf, "") for leaf in leaves]).cells
    return cells is not None and _tree_cells(target, cells) is not None


def shuffled(cert, data):
    leaves = list(cert.leaves)
    random.Random(data.draw(st.integers(0, 2**32))).shuffle(leaves)
    return leaves


def assert_partition_verdicts_agree(cert, data):
    leaves = shuffled(cert, data)
    assert replayed(cert.target, boxes(leaves))
    assert reference_partition(cert.target, boxes(leaves))
    i = data.draw(st.integers(0, len(leaves) - 1))
    for mutant in mutants(list(cert.leaves), leaves, i, data):
        expected = reference_partition(cert.target, boxes(mutant))
        assert replayed(cert.target, boxes(mutant)) == expected


def assert_checker_verdicts_agree(cert, data):
    leaves = shuffled(cert, data)
    assert check_certificate(replace(cert, leaves=tuple(leaves)))
    i = data.draw(st.integers(0, len(leaves) - 1))
    for mutant in itertools.chain(
        mutants(list(cert.leaves), leaves, i, data),
        grid_mutants(cert.target, leaves, i, data),
    ):
        mutated = replace(cert, leaves=tuple(mutant))
        assert check_certificate(mutated) == reference_check_certificate(mutated)


@settings(deadline=None, max_examples=60)
@given(certificates(), st.data())
def test_partition_replay_agrees_with_pairwise_check_1d(cert, data):
    assert_partition_verdicts_agree(cert, data)


@settings(deadline=None, max_examples=12)
@given(st.sampled_from(PLANAR), st.data())
def test_partition_replay_agrees_with_pairwise_check_planar(params, data):
    assert_partition_verdicts_agree(planar_certificate(*params), data)


@settings(deadline=None, max_examples=60)
@given(certificates(), st.data())
def test_integer_checker_agrees_with_fraction_checker_1d(cert, data):
    assert_checker_verdicts_agree(cert, data)


@settings(deadline=None, max_examples=12)
@given(st.sampled_from(PLANAR), st.data())
def test_integer_checker_agrees_with_fraction_checker_planar(params, data):
    assert_checker_verdicts_agree(planar_certificate(*params), data)


@pytest.mark.parametrize("cuts", [(-2, 1, 2), (-2, 0, 0, 2)])
def test_partition_off_the_bisection_tree_is_rejected(cuts):
    # exact partitions, but [-2, 2] bisects at 0, not at 1, and a
    # zero-width leaf is no node of the tree
    target = Box([Interval(-2, 2)])
    leaves = [Box([Interval(lo, hi)]) for lo, hi in zip(cuts, cuts[1:])]
    assert reference_partition(target, leaves)
    assert not replayed(target, leaves)


def payload_mutants(payload, data):
    """Edited copies of a certificate's wire payload: leaf i with another
    witness, dropped or repeated, an endpoint of it moved off the grid by
    2^-60, it swapped for a cell 200 levels below it, and the margin raised."""
    leaves = payload["leaves"]
    i = data.draw(st.integers(0, len(leaves) - 1))
    leaf = leaves[i]

    def with_leaf(new):
        return dict(payload, leaves=leaves[:i] + [new] + leaves[i + 1:])

    others = [s for s in payload["system"]["alphabet"] if s != leaf["witness"]]
    yield with_leaf(dict(leaf, witness=data.draw(st.sampled_from(others))))
    yield dict(payload, leaves=leaves[:i] + leaves[i + 1:])
    yield dict(payload, leaves=leaves + [leaf])
    box = [list(side) for side in leaf["box"]]
    ax, end = data.draw(st.integers(0, len(box) - 1)), data.draw(st.integers(0, 1))
    box[ax][end] = rat_str(F(box[ax][end]) + F(data.draw(st.sampled_from([1, -1])), 2 ** 60))
    yield with_leaf(dict(leaf, box=box))
    deep, path = Box.of(*leaf["box"]), data.draw(st.integers(0, 2 ** 200 - 1))
    for level in range(200):
        deep = bisect(deep)[path >> level & 1]
    yield with_leaf(dict(leaf, box=box_to_list(deep)))
    factor = data.draw(st.sampled_from([2, 4, 16, 64]))
    yield dict(payload, margin=rat_str(F(payload["margin"]) * factor))


def other_targets(target, data):
    """Targets of the same dimension: equal to `target` but a new box, its
    lower half, it stretched on its last axis, it shifted by its width."""
    yield Box(list(target.intervals))
    yield bisect(target)[0]
    *head, last = target.intervals
    yield Box(head + [Interval(last.lo, last.hi + last.width * data.draw(st.sampled_from([1, 3])))])
    yield Box([Interval(iv.hi, iv.hi + iv.width) for iv in target])


def assert_loaded_verdicts_agree(cert, data):
    payload = wire(covering_outcome_payload(cert))
    for edited in itertools.chain([payload], payload_mutants(payload, data)):
        expected = reference_check_certificate(reference_load_certificate(edited))
        assert check_certificate(load_certificate(edited)) == expected
    loaded, reference = load_certificate(payload), reference_load_certificate(payload)
    leaves = shuffled(cert, data)
    i = data.draw(st.integers(0, len(leaves) - 1))
    for mutant in mutants(list(cert.leaves), leaves, i, data):
        mutated = replace(loaded, leaves=tuple(mutant))
        assert check_certificate(mutated) == reference_check_certificate(mutated)
    for target in other_targets(cert.target, data):
        expected = reference_check_certificate(replace(reference, target=target))
        assert check_certificate(replace(loaded, target=target)) == expected


@settings(deadline=None, max_examples=60)
@given(certificates(), st.data())
def test_cell_loader_and_checker_agree_with_the_references_1d(cert, data):
    assert_loaded_verdicts_agree(cert, data)


@settings(deadline=None, max_examples=12)
@given(st.sampled_from(PLANAR), st.data())
def test_cell_loader_and_checker_agree_with_the_references_planar(params, data):
    assert_loaded_verdicts_agree(planar_certificate(*params), data)
