import ast
import pathlib
import random
from fractions import Fraction as F

import pytest

import jetcover
from jetcover.errors import DegenerateInputError, ShapeError
from jetcover.jetcovering import branch_matrix
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
from jetcover import linalg
from jets_reference import (  # local oracle module
    UnsupportedOrderError,
    family_at,
    finite_difference_jet,
)


def poly_raw_derivatives(coeffs, order):
    """Oracle: raw derivatives at 0 of a polynomial given by its coefficients."""
    out = []
    fact = 1
    for i in range(order + 1):
        if i > 0:
            fact *= i
        out.append((coeffs[i] if i < len(coeffs) else F(0)) * fact)
    return out


def poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def jet_from_poly(coeffs, order):
    return Jet.scalar(poly_raw_derivatives(coeffs, order))


def test_jet_mul_shift_structure():
    u = Jet.scalar([F(3, 4), 1, 0])
    v = Jet.scalar([F(2), F(5), F(-1)])
    got = jet_mul(u, v).flat()
    lam = F(3, 4)
    assert got == (lam * 2, lam * 5 + 2, lam * -1 + 2 * 5)


def test_jet_mul_identity():
    one = Jet.scalar([1, 0, 0])
    v = Jet.scalar([F(1, 3), F(2, 7), F(-5)])
    assert jet_mul(one, v) == v


def test_jet_mul_against_symbolic_product():
    # (3/4 + a)(1 + 2a) expanded, raw derivatives at 0
    u = jet_from_poly([F(3, 4), 1], 2)
    v = jet_from_poly([1, 2], 2)
    prod = poly_mul([F(3, 4), 1], [1, 2])
    assert jet_mul(u, v).flat() == tuple(poly_raw_derivatives(prod, 2))
    assert jet_mul(u, v).flat() == (F(3, 4), F(5, 2), F(4))


def test_jet_mul_bilinear_commutative():
    rng = random.Random(9)

    def rand_jet():
        return Jet.scalar([F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(4)])

    def scale(c, j):
        return Jet.scalar([c * e for e in j.flat()])

    for _ in range(20):
        u, v, w = rand_jet(), rand_jet(), rand_jet()
        c = F(rng.randint(-5, 5), 3)
        left = jet_mul(scale(c, u) + v, w)
        right = scale(c, jet_mul(u, w)) + jet_mul(v, w)
        assert left == right
        assert jet_mul(u, v) == jet_mul(v, u)


def test_jet_needs_a_component():
    # a row of no entries was a dim-0 jet, which every jet operation reads wrong
    with pytest.raises(ShapeError):
        Jet([[]])
    with pytest.raises(ShapeError):
        Jet([[], []])
    assert Jet([[1]]).dim == 1


def test_jet_mul_order_mismatch():
    with pytest.raises(ShapeError):
        jet_mul(Jet.scalar([1, 0]), Jet.scalar([1, 0, 0]))


def test_lift_family_r1():
    lifted = lift_family(standard_family(F(3, 4), 1, 1))
    assert lifted.matrix == ((F(3, 4), F(0)), (F(1), F(3, 4)))
    assert lifted.offset == (F(1), F(0))


def test_lift_family_r0_is_base_map():
    lifted = lift_family(standard_family(F(3, 4), 1, 0))
    assert lifted.matrix == ((F(3, 4),),)
    assert lifted.offset == (F(1),)


def test_lift_family_r2_minus():
    lifted = lift_family(standard_family(F(3, 4), -1, 2))
    assert lifted.matrix == (
        (F(3, 4), F(0), F(0)),
        (F(1), F(3, 4), F(0)),
        (F(0), F(2), F(3, 4)),
    )
    assert lifted.offset == (F(-1), F(0), F(0))


def test_lift_matches_jet_mul():
    rng = random.Random(3)
    fam = standard_family(F(5, 8), -1, 3)
    lifted = lift_family(fam)
    for _ in range(10):
        j = Jet.scalar([F(rng.randint(-20, 20), 7) for _ in range(4)])
        expected = jet_mul(fam.slope, j) + fam.offset
        assert lifted(j) == expected


def test_continuation_single():
    fams = standard_families(F(3, 4), 1)
    assert continuation_jet(fams, ("+",), 1).flat() == (F(1), F(0))


def test_continuation_pairs():
    fams = standard_families(F(3, 4), 1)
    assert continuation_jet(fams, ("+", "+"), 1).flat() == (F(7, 4), F(1))
    assert continuation_jet(fams, ("+", "-"), 1).flat() == (F(1, 4), F(-1))


def test_continuation_functorial():
    fams = standard_families(F(3, 4), 2)
    rng = random.Random(17)
    for _ in range(10):
        w1 = tuple(rng.choice("+-") for _ in range(rng.randint(1, 6)))
        w2 = tuple(rng.choice("+-") for _ in range(rng.randint(1, 6)))
        whole = continuation_jet(fams, w1 + w2, 2)
        stacked = continuation_jet(fams, w2, 2)
        for symbol in reversed(w1):
            stacked = lift_family(fams[symbol])(stacked)
        assert whole == stacked


def test_continuation_empty_word_rejected():
    with pytest.raises(DegenerateInputError):
        continuation_jet(standard_families(F(3, 4), 1), (), 1)


def test_finite_difference_first_order():
    fams = standard_families(F(3, 4), 1)
    fd = finite_difference_jet(fams, ("+", "+"), 1, 1e-4)
    assert abs(fd[0] - 1.75) < 1e-6
    assert abs(fd[1] - 1.0) < 1e-6
    fd1 = finite_difference_jet(fams, ("+",), 1, 1e-4)
    assert abs(fd1[0] - 1.0) < 1e-12 and abs(fd1[1]) < 1e-12


def test_finite_difference_second_order():
    fams = standard_families(F(3, 4), 2)
    exact = continuation_jet(fams, ("+", "-"), 2).flat()
    fd = finite_difference_jet(fams, ("+", "-"), 2, "1/1000")
    assert abs(fd[2] - float(exact[2])) < 1e-4


def test_finite_difference_order_cap():
    with pytest.raises(UnsupportedOrderError):
        finite_difference_jet(standard_families(F(3, 4), 5), ("+",), 5, 1e-4)


def test_no_module_of_the_package_calls_float():
    # the float oracle lives in the tests; every module of the package is exact
    modules = sorted(pathlib.Path(jetcover.__file__).parent.glob("*.py"))
    assert len(modules) >= 14
    calls = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    ]
    assert calls == []


def test_continuation_matches_finite_difference_randomized():
    rng = random.Random(101)
    for _ in range(10):
        r = rng.randint(1, 3)
        n = rng.randint(1, 15)
        word = tuple(rng.choice("+-") for _ in range(n))
        fams = standard_families(F(3, 4), r)
        exact = [float(c) for c in continuation_jet(fams, word, r).flat()]
        fd = finite_difference_jet(fams, word, r, 1e-4)
        scale = max(1.0, max(abs(e) for e in exact))
        err = max(abs(a - b) for a, b in zip(exact, fd)) / scale
        assert err <= 1e-5


def test_reverse_jet():
    j = Jet.scalar([F(1), F(2), F(3)])
    assert reverse_jet(j).flat() == (F(3), F(2), F(1))
    assert reverse_jet(reverse_jet(j)) == j


@pytest.mark.parametrize("order", range(7))
def test_reversal_conjugates_lift_to_upper_triangular(order):
    # reverse o lift(f_d) == (X -> J X + d T) o reverse, exactly, as matrices
    n = order + 1
    lam = F(7, 9)
    rev = tuple(
        tuple(F(1) if j == n - 1 - i else F(0) for j in range(n)) for i in range(n)
    )
    jmat = branch_matrix(n, lam)
    t_vec = tuple(F(1) if i == n - 1 else F(0) for i in range(n))
    for delta in (1, -1):
        lifted = lift_family(standard_family(lam, delta, order))
        assert linalg.mat_mul(rev, lifted.matrix) == linalg.mat_mul(jmat, rev)
        assert linalg.mat_vec(rev, lifted.offset) == tuple(
            delta * e for e in t_vec
        )


def test_param_family_validation():
    with pytest.raises(DegenerateInputError):
        ParamAffineFamily1D(Jet.scalar([F(3, 2), 1]), Jet.scalar([1, 0]))
    with pytest.raises(ShapeError):
        ParamAffineFamily1D(Jet.scalar([F(1, 2), 1]), Jet.scalar([1, 0, 0]))


def test_family_at_parameter():
    fam = standard_family(F(3, 4), 1, 2)
    slope, offset = family_at(fam, F(1, 8))
    assert slope == F(7, 8) and offset == 1
