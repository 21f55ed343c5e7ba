"""Library entry points refuse bad input with the package's own errors.

Every exact value enters through `rational.rat`: a float, bool, Decimal or
decimal string passed to a library call gets the TypeError or
CertificateFormatError that `rat` raises for it, as it does in a file.
The second table holds one call per input refusal of the library that no
other test reaches, each with the error type and message it must raise.
"""

import re
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction as F
from functools import lru_cache

import pytest

from jetcover import linalg
from jetcover.blender import SkewSystem, nearly_affine_check, realize_curve_jet, realize_point
from jetcover.boxes import Box, Interval
from jetcover.covering import Leaves, certify_covering, check_certificate, inverse_image_box
from jetcover.errors import (
    CertificateFormatError,
    DegenerateInputError,
    ShapeError,
)
from jetcover.flatpoly import find_flat_poly, lambda_threshold, minimal_flat_poly, scale_to_p
from jetcover.ifs import (
    AffineMap,
    affine_1d,
    decide_two_map_line,
    evaluate_word,
    standard_pair,
    word_map,
)
from jetcover.jetcovering import auto_lambda, build_system, residual_bound
from jetcover.jets import (
    Jet,
    ParamAffineFamily1D,
    continuation_jet,
    jet_mul,
    lift_family,
    reverse_jet,
    standard_families,
    standard_family,
)
from jetcover.rational import rat
from jetcover.serialize import BranchSample, cloud_to_csv, covering_outcome_payload
from jetcover.simplex import LPProblem

INEXACT = [0.5, True, Decimal("0.5"), "1.5", " 7 ", "1e3"]

# each entry point, called with one inexact value in one place
ENTRY_POINTS = {
    "AffineMap matrix": lambda v: AffineMap([[v]], [0]),
    "AffineMap offset": lambda v: AffineMap([[F(1, 2)]], [v]),
    "Interval lo": lambda v: Interval(v, 10 ** 4),
    "Interval hi": lambda v: Interval(-10 ** 4, v),
    "Box.of": lambda v: Box.of((0, 1), (v, 10 ** 4)),
    "Jet": lambda v: Jet([[0, v]]),
    "Jet.scalar": lambda v: Jet.scalar([0, v]),
    "LPProblem objective": lambda v: LPProblem([v], [[1]], [1]),
    "LPProblem matrix": lambda v: LPProblem([1], [[v]], [1]),
    "LPProblem rhs": lambda v: LPProblem([1], [[1]], [v]),
    "linalg.vec": lambda v: linalg.vec([1, v]),
    "linalg.mat": lambda v: linalg.mat([[1], [v]]),
    "evaluate_word point": lambda v: evaluate_word(standard_pair(F(3, 4)), "+-", [v]),
}


def rat_error(value) -> Exception:
    try:
        rat(value)
    except (TypeError, CertificateFormatError) as exc:
        return exc
    raise AssertionError(f"rat accepts {value!r}")


@pytest.mark.parametrize("value", INEXACT, ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_coerces_through_rat(entry, value):
    expected = rat_error(value)
    with pytest.raises(type(expected), match=re.escape(str(expected))):
        ENTRY_POINTS[entry](value)


def test_a_float_target_is_refused_before_the_certifier_runs(sys34):
    with pytest.raises(TypeError, match="float"):
        certify_covering(sys34, Box([Interval(-2.0, 2.0)]), F(1, 100))


@lru_cache(maxsize=None)
def order_1_system():
    flat = find_flat_poly(2)
    lam = auto_lambda(lambda_threshold(flat))
    return build_system(2, lam, scale_to_p(flat, lam))


def curve(x_jet, y_jet):
    jet_sys = order_1_system()
    return realize_curve_jet(SkewSystem(jet_sys.lam, F(1, 10)), jet_sys, x_jet, y_jet, F(1, 100))


PLANE, LINE = Box.of((0, 1), (0, 1)), Box.of((0, 1))
HALF = affine_1d(F(1, 2), 0)

# (call, error, message) per refusal; the key names the refusal's check
REFUSALS = {
    "a box without an axis": (
        lambda: Box([]), DegenerateInputError, "at least one axis"),
    "a point of another dimension than the box": (
        lambda: LINE.contains_point((0, 0)), ShapeError, "point/box dimension"),
    "a box of another dimension than the box": (
        lambda: LINE.contains_box(PLANE), ShapeError, "box dimension mismatch"),
    "an inverse image box of another dimension than the map": (
        lambda: inverse_image_box(HALF, PLANE), DegenerateInputError, "does not match the map"),
    "a covering target of another dimension than the system": (
        lambda: certify_covering(standard_pair(F(3, 4)), PLANE, F(1, 100)),
        DegenerateInputError, "does not match the system"),
    "a leaf of another dimension than the target": (
        lambda: Leaves.of(LINE, [(PLANE, "+")]), ShapeError, "box dimension mismatch"),
    "a certificate check of no certificate": (
        lambda: check_certificate("leaves"), CertificateFormatError, "not a certificate"),
    "a skew contraction of 1": (
        lambda: SkewSystem(1, 0), DegenerateInputError, "contraction must lie in"),
    "a greedy expansion at contraction 1/2": (
        lambda: realize_point(SkewSystem(F(1, 2), 0), 0, 3),
        DegenerateInputError, "needs contraction above 1/2"),
    "a greedy expansion of negative depth": (
        lambda: realize_point(SkewSystem(F(3, 4), 0), 0, -1),
        DegenerateInputError, "depth must be >= 0"),
    "a curve x-jet of dimension 2": (
        lambda: curve(Jet([[0, 0], [0, 0]]), Jet.scalar([0, 0])),
        ShapeError, "one-dimensional"),
    "a curve y-jet of order 2 on an order-1 system": (
        lambda: curve(Jet.scalar([0, 0]), Jet.scalar([0, 0, 0])),
        ShapeError, "must have order 1"),
    "a threshold of an optimum at 2": (
        lambda: lambda_threshold(replace(minimal_flat_poly(1, 1), optimum=F(2))),
        DegenerateInputError, "optimum below 2"),
    "a point of another dimension than the map": (
        lambda: HALF((0, 0)), ShapeError, "map expects 1"),
    "the composed map of the empty word": (
        lambda: word_map(standard_pair(F(3, 4)), ()), DegenerateInputError, "empty word"),
    "a two-map verdict on planar maps": (
        lambda: decide_two_map_line(AffineMap([[F(1, 2), 0], [0, F(1, 2)]], [0, 0]), HALF),
        ShapeError, "one-dimensional maps"),
    "a residual bound at k = -1": (
        lambda: residual_bound(order_1_system(), -1), DegenerateInputError, "k must be >= 0"),
    "flat() of a jet of dimension 2": (
        lambda: Jet([[0, 0]]).flat(), ShapeError, "only for dim-1"),
    "a sum of jets of other orders": (
        lambda: Jet.scalar([0]) + Jet.scalar([0, 0]), ShapeError, "order/dim mismatch"),
    "a difference of jets of other dimensions": (
        lambda: Jet.scalar([0]) - Jet([[0, 0]]), ShapeError, "order/dim mismatch"),
    "a jet product of dimensions 2 and 3": (
        lambda: jet_mul(Jet([[0, 0]]), Jet([[0, 0, 0]])), ShapeError, "dims incompatible"),
    "the reversal of a jet of dimension 2": (
        lambda: reverse_jet(Jet([[0, 0]])), ShapeError, "dim-1 jets"),
    "a family with a slope jet of dimension 2": (
        lambda: ParamAffineFamily1D(Jet([[0, 0]]), Jet.scalar([0])),
        ShapeError, "one-dimensional"),
    "a standard family of delta 0": (
        lambda: standard_family(F(1, 2), 0, 1), DegenerateInputError, "delta must be"),
    "a lifted map applied to a jet of another order": (
        lambda: lift_family(standard_family(F(1, 2), 1, 1))(Jet.scalar([0, 0, 0])),
        ShapeError, "does not match the lifted map"),
    "a continuation of a symbol without a family": (
        lambda: continuation_jet(standard_families(F(1, 2), 1), ("x",), 1),
        ShapeError, "no family for symbol"),
    "a continuation at another order than its families": (
        lambda: continuation_jet(standard_families(F(1, 2), 1), ("+",), 2),
        ShapeError, "does not match requested"),
    "a ragged matrix": (
        lambda: linalg.mat([[1, 2], [3]]), ShapeError, "ragged"),
    "a matrix times a vector of another length": (
        lambda: linalg.mat_vec(linalg.mat([[1]]), linalg.vec([1, 2])), ShapeError, "vector has 2"),
    "a matrix product of unequal inner dimensions": (
        lambda: linalg.mat_mul(linalg.mat([[1, 2]]), linalg.mat([[1]])),
        ShapeError, "inner dimensions"),
    "the integer inverse of a non-square matrix": (
        lambda: linalg.integer_inverse([[1, 2]]), ShapeError, "square"),
    "the inverse of a ragged matrix": (
        lambda: linalg.inverse(((F(1), F(2)), (F(3),))), ShapeError, "square"),
    "the wire form of no covering outcome": (
        lambda: covering_outcome_payload(None), CertificateFormatError, "not a covering outcome"),
}


@pytest.mark.parametrize("refusal", sorted(REFUSALS))
def test_each_input_refusal_raises_its_error(refusal):
    call, error, message = REFUSALS[refusal]
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_an_empty_cloud_is_an_empty_csv():
    assert cloud_to_csv([]) == ""


def test_no_boundary_sample_confirms_no_clear_boundary():
    # a verdict, not a refusal: one sample inside each band, none on its rows
    def inside(y):
        return BranchSample(F(0), y, *[F(0)] * 6)

    report = nearly_affine_check(F(3, 4), [inside(F(1))], [inside(F(-1))], F(1, 10))
    assert (report.plus.boundary_samples, report.plus.boundary_clear) == (0, False)
    assert (report.minus.boundary_samples, report.minus.boundary_clear) == (0, False)
