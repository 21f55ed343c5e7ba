import random
from fractions import Fraction as F

import pytest

from jetcover.errors import (
    DegenerateInputError,
    ResourceLimitError,
    ShapeError,
    UnknownSymbolError,
)
from jetcover.ifs import (
    AffineMap,
    IFSystem,
    affine_1d,
    decide_two_map_line,
    evaluate_word,
    limit_set_cloud,
    standard_pair,
    word_fixed_point,
)
from jetcover.serialize import cloud_to_csv


def test_affine_map_rejects_non_contractions():
    with pytest.raises(DegenerateInputError):
        affine_1d(F(5, 4), 0)
    with pytest.raises(DegenerateInputError):
        AffineMap(((F(1, 2),),), (0,), contraction=F(1, 4))  # below true norm


def test_contraction_errors_quote_numbers_past_the_digit_limit():
    near_one = F(10 ** 5000 - 1, 10 ** 5000)  # sides past the 4,300-digit limit of int -> str
    with pytest.raises(DegenerateInputError, match="below the computed norm 9{5000}/1"):
        AffineMap(((near_one,),), (0,), contraction=F(1, 2))
    with pytest.raises(DegenerateInputError, match="contraction bound 19{5000}/1"):
        AffineMap(((F(1, 2),),), (0,), contraction=1 + near_one)


def test_evaluate_word_single_symbol(sys34):
    assert evaluate_word(sys34, ("+",), (0,)) == (F(1),)


def test_evaluate_word_hand_composition(sys34):
    # step-by-step oracle: apply the maps one at a time
    inner = sys34.maps["-"]((F(0),))
    expected = sys34.maps["+"](inner)
    assert evaluate_word(sys34, ("+", "-"), (0,)) == expected == (F(1, 4),)


def test_evaluate_word_empty_is_identity(sys34):
    assert evaluate_word(sys34, (), (F(5, 7),)) == (F(5, 7),)


def test_evaluate_word_errors(sys34):
    with pytest.raises(UnknownSymbolError):
        evaluate_word(sys34, ("+", "z"), (0,))
    with pytest.raises(ShapeError):
        evaluate_word(sys34, ("+",), (0, 0))


def test_word_fixed_point_single(sys34):
    assert word_fixed_point(sys34, ("+",)) == (F(4),)
    assert word_fixed_point(sys34, ("-",)) == (F(-4),)


def test_word_fixed_point_pair(sys34):
    p = word_fixed_point(sys34, ("+", "-"))
    assert p == (F(4, 7),)
    assert evaluate_word(sys34, ("+", "-"), p) == p
    # oracle: iterate the word many times from 0
    approx = evaluate_word(sys34, ("+", "-") * 50, (0,))
    assert abs(approx[0] - p[0]) <= sys34.lambda_max ** 100 * sys34.radius


def test_word_fixed_point_2d():
    sys2 = IFSystem(
        ("a", "b"),
        {
            "a": AffineMap(((F(1, 2), 0), (0, F(1, 3))), (1, -1)),
            "b": AffineMap(((F(1, 3), F(1, 8)), (0, F(1, 2))), (0, 2)),
        },
    )
    for word in (("a",), ("b", "a"), ("a", "b", "b")):
        p = word_fixed_point(sys2, word)
        assert evaluate_word(sys2, word, p) == p


def test_limit_set_cloud_depth_one(sys34):
    cloud = limit_set_cloud(sys34, 1)
    assert cloud == [((F(1),), ("+",)), ((F(-1),), ("-",))]


def test_limit_set_cloud_depth_two(sys34):
    cloud = limit_set_cloud(sys34, 2)
    points = [pt[0] for pt, _ in cloud]
    words = [w for _, w in cloud]
    assert points == [F(7, 4), F(1, 4), F(-1, 4), F(-7, 4)]
    assert words == [("+", "+"), ("+", "-"), ("-", "+"), ("-", "-")]
    # every cloud point agrees with evaluate_word
    for pt, w in cloud:
        assert evaluate_word(sys34, w, (0,)) == pt


def test_cloud_refinement(sys34):
    # every depth-k point has a depth-(k+1) extension nearby
    bound = sys34.lambda_max ** 2 * sys34.radius
    shallow = dict((w, pt) for pt, w in limit_set_cloud(sys34, 2))
    deep = dict((w, pt) for pt, w in limit_set_cloud(sys34, 3))
    for w, pt in shallow.items():
        children = [deep[w + (b,)] for b in sys34.alphabet]
        assert any(abs(c[0] - pt[0]) <= bound for c in children)


def test_cloud_cap():
    with pytest.raises(ResourceLimitError):
        limit_set_cloud(standard_pair(F(1, 2)), 19)  # 2^19 words, refused before any is made


def test_contraction_consistency(sys34):
    rng = random.Random(5)
    for _ in range(50):
        x = (F(rng.randint(-800, 800), 100),)
        y = (F(rng.randint(-800, 800), 100),)
        for b in sys34.alphabet:
            f = sys34.maps[b]
            assert abs(f(x)[0] - f(y)[0]) <= sys34.lambda_max * abs(x[0] - y[0])


def test_two_map_trichotomy_overlap():
    verdict = decide_two_map_line(affine_1d(F(3, 4), 1), affine_1d(F(3, 4), -1))
    assert verdict.robust_interior
    assert verdict.kind == "RobustInterior"
    assert verdict.epsilon == 2
    assert (verdict.trimmed.lo, verdict.trimmed.hi) == (F(-2), F(2))


def test_two_map_trichotomy_disjoint():
    # fixed points +-4/3; images [2/3, 4/3] and [-4/3, -2/3]
    verdict = decide_two_map_line(affine_1d(F(1, 4), 1), affine_1d(F(1, 4), -1))
    assert not verdict.robust_interior
    assert verdict.kind == "PerturbablyEmpty"


def test_two_map_trichotomy_touching():
    # lam = 1/2: images [-2, 0] and [0, 2] touch at 0 only
    verdict = decide_two_map_line(affine_1d(F(1, 2), 1), affine_1d(F(1, 2), -1))
    assert not verdict.robust_interior


def test_two_map_identical_maps_rejected():
    f = affine_1d(F(3, 4), 1)
    with pytest.raises(DegenerateInputError):
        decide_two_map_line(f, f)


def test_trimmed_interval_recertifies(sys34):
    # the robust-interior interval must pass the covering certifier
    from jetcover.boxes import Box
    from jetcover.covering import Certificate, certify_covering

    verdict = decide_two_map_line(sys34.maps["+"], sys34.maps["-"])
    outcome = certify_covering(sys34, Box([verdict.trimmed]), F(1, 100))
    assert isinstance(outcome, Certificate)


def test_cloud_csv(sys34):
    text = cloud_to_csv(limit_set_cloud(sys34, 1))
    assert text == "x1,word\n1,+\n-1,-\n"
