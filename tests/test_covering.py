import hashlib
import itertools
from dataclasses import replace
from fractions import Fraction as F
from time import perf_counter
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covering_reference import _leaves_partition as reference_partition  # local helper module
from covering_reference import (
    _inverse_branch,
    _preimage_fits,
    bisect,
    longest_axis,
    loop_depth_used,
    planar_certificate,
    planar_system,
    reference_certify_covering,
)
from jetcover import covering, linalg
from jetcover.boxes import Box, Interval
from jetcover.covering import (
    Certificate,
    CoveringFailure,
    certify_covering,
    check_certificate,
    inverse_image_box,
)
from jetcover.errors import (
    CertificateFormatError,
    DegenerateInputError,
    JetcoverError,
    ResourceLimitError,
    SingularMatrixError,
)
from jetcover.ifs import AffineMap, IFSystem, affine_1d, standard_pair
from jetcover.rational import rat_str
from jetcover.serialize import canonical_json, covering_outcome_payload, load_certificate


def box1(lo, hi):
    return Box([Interval(lo, hi)])


def test_inverse_image_1d():
    f = affine_1d(F(3, 4), 1)
    assert inverse_image_box(f, box1(0, 2)) == box1(F(-4, 3), F(4, 3))


def test_inverse_image_pure_scaling():
    f = affine_1d(F(1, 2), 0)
    assert inverse_image_box(f, box1(0, 1)) == box1(0, 2)


def test_inverse_image_symmetry():
    f = affine_1d(F(3, 4), -1)
    assert inverse_image_box(f, box1(-2, 0)) == box1(F(-4, 3), F(4, 3))


def test_inverse_image_singular():
    f = AffineMap(((F(1, 2), F(1, 4)), (F(1, 4), F(1, 8))), (0, 0))
    with pytest.raises(SingularMatrixError):
        inverse_image_box(f, Box.of((0, 1), (0, 1)))


def test_inverse_image_encloses_preimage_corners():
    # non-diagonal inverse: enclosure must contain the true preimage
    f = AffineMap(((F(1, 2), F(1, 8)), (F(-1, 8), F(1, 3))), (1, -1))
    target = Box.of((-1, 1), (-1, 1))
    enclosure = inverse_image_box(f, target)
    from jetcover import linalg

    inv = linalg.inverse(f.matrix)
    for cx in (target[0].lo, target[0].hi):
        for cy in (target[1].lo, target[1].hi):
            shifted = (cx - f.offset[0], cy - f.offset[1])
            pre = linalg.mat_vec(inv, shifted)
            assert enclosure.contains_point(pre)


def test_certify_success(sys34):
    outcome = certify_covering(sys34, box1(-2, 2), F(1, 100))
    assert isinstance(outcome, Certificate)
    assert [(leaf[0].lo, leaf[0].hi, w) for leaf, w in outcome.leaves] == [
        (F(-2), F(0), "-"),
        (F(0), F(2), "+"),
    ]


def test_certify_failure_half():
    outcome = certify_covering(standard_pair(F(1, 2)), box1(-2, 2), F(1, 100), 12)
    assert isinstance(outcome, CoveringFailure)
    # the witness is an uncovered sub-box at the depth cap
    assert outcome.witness_box[0].width == F(4) / 2 ** 12


def test_certify_margin_monotone(sys34):
    big = certify_covering(sys34, box1(-2, 2), F(1, 100))
    small = certify_covering(sys34, box1(-2, 2), F(1, 200))
    assert isinstance(big, Certificate) and isinstance(small, Certificate)
    assert small.depth_used <= big.depth_used


volumes = st.fractions(min_value=0, max_value=64, max_denominator=2 ** 12)


@settings(deadline=None, max_examples=200)
@given(volumes, st.lists(volumes, max_size=4), st.integers(-2, 40))
def test_depth_used_matches_the_doubling_loop(v, leaf_volumes, max_depth):
    cert = Certificate(
        standard_pair(F(3, 4)), box1(0, v), F(1, 100), max_depth,
        tuple((box1(0, lv), "+") for lv in leaf_volumes),
    )
    assert cert.depth_used == loop_depth_used(cert)
    # held as integer sides, the depth comes from them, with no leaf Box built
    held = replace(cert, leaves=covering.Leaves.of(cert.target, cert.leaves))
    with patch.object(covering.Leaves, "_tuple", side_effect=AssertionError("a leaf Box")):
        assert held.depth_used == loop_depth_used(cert)


def test_leaves_of_keeps_the_leaves_held_for_the_target(sys34):
    cert = certify_covering(sys34, box1(-2, 2), F(1, 100))
    assert covering.Leaves.of(cert.target, cert.leaves) is cert.leaves
    wider = box1(-4, 4)  # held for another target: put on its grid afresh
    regridded = covering.Leaves.of(wider, cert.leaves)
    assert regridded is not cert.leaves and regridded.target == wider
    assert regridded == cert.leaves
    # a loaded certificate keeps the cells made at load
    loaded = load_certificate(covering_outcome_payload(cert))
    cells = loaded.leaves.cells
    with patch.object(covering, "_heap_indices", side_effect=AssertionError("cells made again")):
        assert check_certificate(loaded)
        assert loaded.depth_used == cert.depth_used
        assert covering_outcome_payload(loaded) == covering_outcome_payload(cert)
    assert loaded.leaves.cells is cells


def test_leaves_hash_and_print_as_their_tuple(sys34):
    leaves = certify_covering(sys34, box1(-2, 2), F(1, 100)).leaves
    pairs = tuple(leaves)
    assert isinstance(leaves, covering.Leaves)
    assert hash(leaves) == hash(pairs) and repr(leaves) == repr(pairs)
    assert repr(Box([Interval(-2, F(1, 2)), Interval(0, 3)])) == "Box([-2, 1/2] x [0, 3])"


def test_depth_used_is_constant_time_on_a_zero_volume_leaf(sys34):
    payload = covering_outcome_payload(certify_covering(sys34, box1(-2, 2), F(1, 100)))
    payload["depth"] = 10 ** 12
    payload["leaves"].append({"box": [["0", "0"]], "witness": "+"})
    hostile = load_certificate(payload)
    start = perf_counter()
    assert hostile.depth_used == 10 ** 12
    assert perf_counter() - start < 0.5


def test_certify_determinism(sys34):
    a = certify_covering(sys34, box1(-2, 2), F(1, 100))
    b = certify_covering(sys34, box1(-2, 2), F(1, 100))
    assert a.leaves == b.leaves


def test_certify_rejects_thin_target(sys34):
    # a zero-width target cannot contain any inverse image with margin
    with pytest.raises(DegenerateInputError):
        certify_covering(sys34, box1(1, 1), F(1, 100))
    with pytest.raises(DegenerateInputError):
        certify_covering(sys34, box1(-2, 2), 0)


def test_certificate_roundtrip(sys34):
    cert = certify_covering(sys34, box1(-2, 2), F(1, 100))
    assert check_certificate(cert)
    again = load_certificate(covering_outcome_payload(cert))
    assert check_certificate(again)


def test_certificate_tamper_witness(sys34):
    cert = certify_covering(sys34, box1(-2, 2), F(1, 100))
    flipped = tuple(
        (leaf, "-" if w == "+" else "+") for leaf, w in cert.leaves
    )
    assert not check_certificate(replace(cert, leaves=flipped))


def test_certificate_tamper_margin(sys34):
    cert = certify_covering(sys34, box1(-2, 2), F(1, 100))
    assert not check_certificate(replace(cert, margin=F(10)))


def test_certificate_partition_enforced(sys34):
    cert = certify_covering(sys34, box1(-2, 2), F(1, 100))
    # drop a leaf: volume no longer matches
    assert not check_certificate(replace(cert, leaves=cert.leaves[:1]))
    # duplicate a leaf: interiors overlap
    assert not check_certificate(
        replace(cert, leaves=cert.leaves + cert.leaves[:1])
    )


def test_certificate_malformed():
    with pytest.raises(CertificateFormatError):
        load_certificate({"system": {}})


def test_soundness_against_dense_grid(sys34):
    # every grid point of Closure(U) at resolution margin/2 lies in some
    # branch image of the shrunk target
    margin = F(1, 100)
    shrunk = Interval(F(-2) + margin, F(2) - margin)
    images = [
        shrunk.scale_add(sys34.maps[b].matrix[0][0], sys34.maps[b].offset[0])
        for b in sys34.alphabet
    ]
    step = margin / 2
    x = F(-2)
    while x <= 2:
        assert any(img.contains(x) for img in images)
        x += step


def test_negative_depth_is_an_input_error(sys34):
    with pytest.raises(DegenerateInputError, match="max_depth"):
        certify_covering(sys34, box1(-2, 2), F(1, 100), -1)
    # depth 0 tries the target alone
    assert certify_covering(sys34, box1(-2, 2), F(1, 100), 0) == CoveringFailure(
        witness_box=box1(-2, 2), max_depth=0
    )


# --- the checker's cost and its independence from the certifier -------------


@pytest.fixture(scope="module")
def planar_cert():
    cert = planar_certificate(F(296, 512), F(13, 8), 64)
    assert len(cert.leaves) == 131
    return cert


def count_calls(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_checker_splits_once_per_inner_node(monkeypatch, planar_cert):
    splits = count_calls(monkeypatch, covering, "_split")
    inversions = count_calls(monkeypatch, linalg, "inverse")
    assert check_certificate(planar_cert)
    assert len(splits) == len(planar_cert.leaves) - 1
    assert len(inversions) == len({w for _, w in planar_cert.leaves}) <= 4


def warp(x: F, lo: F, hi: F) -> F:
    """A monotone bijection of [lo, hi] that moves dyadic points off the grid."""
    return x + (x - lo) * (hi - x) / 1000


def test_off_grid_partition_is_rejected_within_the_split_budget(monkeypatch, planar_cert):
    payload = covering_outcome_payload(planar_cert)
    payload["depth"] = 1_000_000
    for leaf in payload["leaves"]:
        leaf["box"] = [
            [rat_str(warp(F(e), F(-2), F(13, 8))) for e in side] for side in leaf["box"]
        ]
    hostile = load_certificate(payload)
    leaves = [leaf for leaf, _ in hostile.leaves]
    assert reference_partition(hostile.target, leaves)  # still an exact partition
    splits = count_calls(monkeypatch, covering, "_split")
    assert not check_certificate(hostile)
    assert len(splits) <= len(leaves) - 1


def test_deep_leaf_is_rejected_within_the_split_budget(monkeypatch, planar_cert):
    # a leaf swapped for a grid cell 200 levels below it: every leaf is on
    # the grid, but the replay cannot reach the deep one in L - 1 splits
    leaf, witness = planar_cert.leaves[0]
    for _ in range(200):
        leaf = bisect(leaf)[1]
    hostile = replace(planar_cert, leaves=((leaf, witness),) + planar_cert.leaves[1:])
    budget = len(hostile.leaves) - 1
    split = covering._split

    def bounded(*args):
        nonlocal budget
        budget -= 1
        assert budget >= 0, "the replay split past its budget"
        return split(*args)

    monkeypatch.setattr(covering, "_split", bounded)
    assert not check_certificate(hostile)


def overlapping_halves(box):
    ax = longest_axis(box)
    iv = box[ax]
    mid, cut = (iv.lo + iv.hi) / 2, iv.width / 8
    lo, hi = list(box.intervals), list(box.intervals)
    lo[ax] = Interval(iv.lo, mid + cut)
    hi[ax] = Interval(mid - cut, iv.hi)
    return Box(lo), Box(hi)


def third_halves(box):
    ax = longest_axis(box)
    iv = box[ax]
    cut = iv.lo + iv.width / 3
    lo, hi = list(box.intervals), list(box.intervals)
    lo[ax] = Interval(iv.lo, cut)
    hi[ax] = Interval(cut, iv.hi)
    return Box(lo), Box(hi)


@pytest.mark.parametrize("split", [overlapping_halves, third_halves])
def test_checker_does_not_trust_the_certifiers_bisection(sys34, split):
    # the per-box reference certifier splits off the midpoints, the checker
    # with its own midpoint split, so neither leaf set is accepted although
    # every leaf's witness holds
    cert = reference_certify_covering(sys34, box1(-2, 2), F(1, 100), split=split)
    assert isinstance(cert, Certificate) and len(cert.leaves) > 2
    shrunk = cert.target.shrink(cert.margin)
    assert all(
        _preimage_fits(*_inverse_branch(sys34.maps[w], shrunk), leaf)
        for leaf, w in cert.leaves
    )
    assert not check_certificate(cert)


def test_checker_uses_no_certifier_code(monkeypatch, planar_cert):
    def forbidden(*args):
        raise AssertionError("the checker called the certifier's code")

    monkeypatch.setattr(covering, "inverse_image_box", forbidden)
    monkeypatch.setattr(covering, "_inverted", forbidden)
    monkeypatch.setattr(covering, "certify_covering", forbidden)
    assert check_certificate(planar_cert)


def test_unused_singular_map_is_never_inverted(sys34):
    cert = certify_covering(sys34, box1(-2, 2), F(1, 100))
    maps = dict(sys34.maps, z=affine_1d(0, 0))
    system = IFSystem(("+", "-", "z"), maps)
    assert check_certificate(replace(cert, system=system))
    used = replace(cert, system=system, leaves=((cert.leaves[0][0], "z"),) + cert.leaves[1:])
    with pytest.raises(SingularMatrixError):
        check_certificate(used)


@pytest.mark.parametrize(
    "matrix, offset",
    [
        (((F(-3, 4),),), (F(1, 3),)),
        (((F(1, 2), F(-1, 4)), (F(1, 8), F(-1, 3))), (F(1, 2), F(-1, 4))),
    ],
)
def test_witness_test_matches_inverse_image_box(matrix, offset):
    # the checker's own integer test on grid cells, one inversion per map,
    # decides like the certifier's per-leaf `inverse_image_box`, for either
    # sign of entry, on the cells of the first seven levels of the tree of
    # a square and of an oblong target
    f = AffineMap(matrix, offset)
    for sides in (((-2, 2), (-2, 2)), ((-2, F(13, 8)), (-1, F(5, 2)))):
        target = Box.of(*sides[:f.dim])
        shrunk = target.shrink(F(1, 16))
        fits = covering._fit_test(f, target, shrunk)
        pieces, verdicts, expected = [target], [], []
        for _ in range(7):
            cells = covering.Leaves.of(target, [(piece, "") for piece in pieces]).cells
            verdicts += [fits(*cell) for cell in covering._tree_cells(target, cells)]
            expected += [shrunk.contains_box(inverse_image_box(f, leaf)) for leaf in pieces]
            pieces = [half for piece in pieces for half in bisect(piece)]
        assert verdicts == expected
        assert any(verdicts) and not all(verdicts)


# --- the certifier against its per-box reference ------------------------------

diagonals = st.sampled_from([F(j, 16) for j in range(-14, 15) if abs(j) >= 9])
shears = st.sampled_from([F(j, 16) for j in range(-2, 3)])


@st.composite
def covering_inputs(draw):
    """1-d and planar systems with one map per corner of [-1, 1]^dim (plus
    one), entries of either sign and shears off the diagonal, on
    [-2, h]^dim; some certify, some fail at the depth cap.  About one
    system in 16 zeroes the first diagonal entry of its first map, which
    may make it singular: a singular map raises at depth 0, before any
    cell is decided, and singular maps have tests of their own.  Each axis
    is then carried onto a drawn box by x -> L + r (x + 2), the maps
    conjugated with it: lower corners and widths that need not be dyadic,
    and widths far enough apart that the axes' exponents differ by 2 or
    more."""
    dim = draw(st.sampled_from([1, 2]))
    corners = list(itertools.product((1, -1), repeat=dim))
    h = draw(st.sampled_from([F(13, 8), F(2)]))
    lows = [F(draw(st.integers(-6, 3)), draw(st.sampled_from([1, 3, 4]))) for _ in range(dim)]
    scales = [draw(st.sampled_from([F(1), F(1, 3), F(4, 3)]))]
    scales += [scales[0] * draw(st.sampled_from([F(1), F(1, 4), F(5), F(1, 6), F(3, 2)]))] * (dim - 1)
    # about one draw in 16; a value inside the range, as hypothesis draws
    # the ends of a range more often
    zero_diagonal = draw(st.integers(0, 15)) == 8
    maps = {}
    for k in range(draw(st.integers(len(corners), len(corners) + 1))):
        # the conjugate's entries m_ij r_i / r_j and offset L + r (t + 2) - m (L + 2 r)
        matrix = [
            [(draw(diagonals) if i == j else draw(shears)) * scales[i] / scales[j]
             for j in range(dim)]
            for i in range(dim)
        ]
        if k == 0 and zero_diagonal:
            matrix[0][0] = F(0)
        for i, row in enumerate(matrix):
            if sum(abs(a) for a in row) >= 1:
                row[1 - i] = F(0)  # keep the map a contraction
        offset = [
            lows[i] + scales[i] * (t + 2)
            - sum(a * (lo + 2 * r) for a, lo, r in zip(matrix[i], lows, scales))
            for i, t in enumerate(corners[k % len(corners)])
        ]
        maps[str(k)] = AffineMap(matrix, offset)
    system = IFSystem(tuple(maps), maps)
    margin = draw(st.sampled_from([F(1, 100), F(1, 16), F(2, 3)])) * min(scales)
    target = Box([Interval(lo, lo + r * (h + 2)) for lo, r in zip(lows, scales)])
    return system, target, margin, draw(st.integers(0, 10))


def endpoints(outcome):
    if isinstance(outcome, CoveringFailure):
        return [e for iv in outcome.witness_box for e in (iv.lo, iv.hi)]
    return [e for box, _ in outcome.leaves for iv in box for e in (iv.lo, iv.hi)]


def outcome_of(certify, args):
    try:
        return certify(*args)
    except JetcoverError as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=150)
@given(covering_inputs())
# x -> 3x/4 + 1 pulls [0, 2] onto [-4/3, 4/3], the target shrunk by 2/3
@example((standard_pair(F(3, 4)), box1(-2, 2), F(2, 3), 4))
def test_certifier_decides_like_the_per_box_reference(args):
    # same leaves, witnesses and order, or the same failure box and depth,
    # or the same error; at most one inversion per symbol; and every
    # endpoint an exact rational, since Fraction(1, 8) == 0.125 would let
    # a float pass the equality
    inversions = []
    inverse = linalg.inverse

    def counted(matrix):
        inversions.append(matrix)
        return inverse(matrix)

    with patch.object(linalg, "inverse", counted):
        outcome = outcome_of(certify_covering, args)
    assert outcome == outcome_of(reference_certify_covering, args)
    assert len(inversions) <= len(args[0].alphabet)
    if not isinstance(outcome, tuple):
        assert all(type(e) is F for e in endpoints(outcome))


def test_planar_certificate_bytes_are_pinned():
    cert = planar_certificate(F(71, 128), F(13, 8), 200)
    assert len(cert.leaves) == 559
    text = canonical_json(covering_outcome_payload(cert))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8975a3d0e063dd590e28da62769ad2b6828dd8eb77f0b70128e607cd04ad5e13"
    )


def test_certifier_inverts_each_map_once(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the certifier called inverse_image_box")

    monkeypatch.setattr(covering, "inverse_image_box", forbidden)
    inversions = count_calls(monkeypatch, linalg, "inverse")
    target = Box.of((-2, F(13, 8)), (-2, F(13, 8)))
    cert = certify_covering(planar_system(F(71, 128)), target, F(1, 200))
    assert len(cert.leaves) == 559
    assert len(inversions) == 4


def test_certifier_inverts_a_map_only_when_its_symbol_is_tried(monkeypatch):
    # no contraction pulls the whole target into itself, so every symbol is
    # tried at the root: each map is inverted there, once, in alphabet
    # order, and a singular one raises at its turn
    plus, minus = affine_1d(F(3, 4), 1), affine_1d(F(5, 8), -1)
    inversions = count_calls(monkeypatch, linalg, "inverse")
    cert = certify_covering(IFSystem(("+", "-"), {"+": plus, "-": minus}), box1(-2, 2), F(1, 100))
    assert [w for _, w in cert.leaves] == ["-", "+"]  # tried at two depths
    assert [m[0][0] for (m,) in inversions] == [F(3, 4), F(5, 8)]
    inversions.clear()
    system = IFSystem(("+", "-", "z"), {"+": plus, "-": minus, "z": affine_1d(0, 0)})
    with pytest.raises(SingularMatrixError, match="branch matrix is singular"):
        certify_covering(system, box1(-2, 2), F(1, 100))
    assert [m[0][0] for (m,) in inversions] == [F(3, 4), F(5, 8), 0]


def test_leaf_budget_is_known_up_front(monkeypatch, sys34):
    monkeypatch.setattr(covering, "COVER_LEAF_CAP", 2)
    assert len(certify_covering(sys34, box1(-2, 2), F(1, 100)).leaves) == 2
    monkeypatch.setattr(covering, "COVER_LEAF_CAP", 1)
    with pytest.raises(ResourceLimitError, match="more than 1 leaves"):
        certify_covering(sys34, box1(-2, 2), F(1, 100))
    # f+ fixes 4, so no cell at the top of [-2, 4] is ever covered; the
    # lower part takes more than 10 leaves, and the cap stops the search
    # there, before its failing path down to max_depth
    monkeypatch.setattr(covering, "COVER_LEAF_CAP", 10)
    with pytest.raises(ResourceLimitError, match="more than 10 leaves"):
        certify_covering(sys34, box1(-2, 4), F(1, 100))
    monkeypatch.undo()
    failure = certify_covering(sys34, box1(-2, 4), F(1, 100))
    assert isinstance(failure, CoveringFailure)
    assert F(399, 100) < failure.witness_box[0].lo < failure.witness_box[0].hi < 4
