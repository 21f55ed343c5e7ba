"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line.  Tolerances are pinned here and nowhere else; everything
not explicitly a float comparison is exact rational arithmetic.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import filecmp
import json
import random
from fractions import Fraction as F

import pytest

from jetcover import linalg
from jetcover.blender import (
    SkewSystem,
    branch_region,
    nearly_affine_check,
    unstable_heights,
    verify_example_covering,
)
from jetcover.boxes import Box, Interval
from jetcover.cli import main as cli_main
from jetcover.covering import Certificate, CoveringFailure, certify_covering, check_certificate
from jetcover.errors import NotCoveredError
from jetcover.flatpoly import (
    find_flat_poly,
    l1_tail,
    lambda_threshold,
    minimal_flat_poly,
    scale_to_p,
)
from jetcover.ifs import decide_two_map_line, standard_pair
from jetcover.jetcovering import (
    auto_lambda,
    branch_matrix,
    build_system,
    certify_delta_covering,
    realize_jet,
    residual_bound,
    verify_semiconjugacy,
)
from jetcover.jets import (
    Jet,
    continuation_jet,
    lift_family,
    standard_families,
    standard_family,
)
from jetcover.simplex import LPSolution, lp_solve
from blender_helpers import branch_table_to_csv, model_branch_table  # local helper module
from flatpoly_reference import divisible_by_power  # local oracle module
from jetcovering_helpers import semiconjugacy_residuals  # local helper module
from jets_reference import finite_difference_jet  # local oracle module
from simplex_reference import flat_lp_problem, strong_duality_holds  # local oracle module


def report(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {label}"


UNIT_BOX = Box([Interval(-2, 2)])


def test_criterion_1_covering_example():
    good = certify_covering(standard_pair(F(3, 4)), UNIT_BOX, F(1, 100))
    bad = certify_covering(standard_pair(F(1, 2)), UNIT_BOX, F(1, 100))
    ok = (
        isinstance(good, Certificate)
        and check_certificate(good)
        and isinstance(bad, CoveringFailure)
    )
    report(1, "covering example at 3/4, failure at 1/2", ok)


def test_criterion_2_two_map_trichotomy():
    sys34 = standard_pair(F(3, 4))
    robust = decide_two_map_line(sys34.maps["+"], sys34.maps["-"])
    empty = [
        decide_two_map_line(standard_pair(lam).maps["+"], standard_pair(lam).maps["-"])
        for lam in (F(1, 4), F(1, 2))
    ]
    recert = certify_covering(sys34, Box([robust.trimmed]), F(1, 100))
    ok = (
        robust.kind == "RobustInterior"
        and all(v.kind == "PerturbablyEmpty" for v in empty)
        and isinstance(recert, Certificate)
        and check_certificate(recert)
    )
    report(2, "trichotomy verdicts and re-certification", ok)


def test_criterion_3_jet_action_matrices():
    lam = F(3, 4)
    ok = True
    for r in (1, 2, 3):
        n = r + 1
        expected = tuple(
            tuple(
                lam if i == j else (F(i) if j == i - 1 else F(0))
                for j in range(n)
            )
            for i in range(n)
        )
        for delta in (1, -1):
            lifted = lift_family(standard_family(lam, delta, r))
            ok = ok and lifted.matrix == expected
            ok = ok and lifted.offset == tuple(
                F(delta) if i == 0 else F(0) for i in range(n)
            )
            # reversal conjugacy to the upper-triangular form, exactly
            rev = tuple(
                tuple(F(1) if j == n - 1 - i else F(0) for j in range(n))
                for i in range(n)
            )
            jmat = branch_matrix(n, lam)
            t_vec = tuple(F(1) if i == n - 1 else F(0) for i in range(n))
            ok = ok and linalg.mat_mul(rev, lifted.matrix) == linalg.mat_mul(jmat, rev)
            ok = ok and linalg.mat_vec(rev, lifted.offset) == tuple(
                delta * e for e in t_vec
            )
    report(3, "lift matrices and reversal conjugacy", ok)


def test_criterion_4_continuation_vs_finite_differences():
    rng = random.Random(2026)
    ok = True
    for _ in range(50):
        r = rng.randint(1, 3)
        length = rng.randint(1, 15)
        word = tuple(rng.choice("+-") for _ in range(length))
        fams = standard_families(F(3, 4), r)
        exact = [float(c) for c in continuation_jet(fams, word, r).flat()]
        approx = finite_difference_jet(fams, word, r, 1e-4)
        scale = max(1.0, max(abs(e) for e in exact))
        rel = max(abs(a - b) for a, b in zip(exact, approx)) / scale
        ok = ok and rel <= 1e-5
    report(4, "continuation jets vs central differences", ok)


def test_criterion_5_flat_polynomials():
    res11 = minimal_flat_poly(1, 1)
    res23 = minimal_flat_poly(2, 3)
    ok = res11.optimum == 1 and res11.coeffs == (F(-1), F(1))
    ok = ok and res23.optimum == 2 and res23.optimum > 2 - F(1, 16)
    for big_n in (2, 3):
        found = find_flat_poly(big_n, margin=F(1, 16), n_max=64)
        ok = ok and found.optimum <= 2 - F(1, 16)
        ok = ok and divisible_by_power(found.coeffs, F(1), big_n)
        problem = flat_lp_problem(found.flatness, found.search_degree)
        sol = lp_solve(problem)
        ok = ok and sol.optimum == found.optimum
        ok = ok and strong_duality_holds(
            problem, LPSolution("optimal", sol.optimum, sol.primal, found.dual)
        )
    report(5, "flat polynomial optima, division, duality", ok)


def test_criterion_6_full_pipeline():
    ok = True
    for r in (1, 2):
        big_n = r + 1
        qres = find_flat_poly(big_n, margin=F(1, 16), n_max=64)
        threshold = lambda_threshold(qres)
        lam = auto_lambda(threshold)
        ok = ok and threshold < lam < 1
        p_coeffs = scale_to_p(qres, lam)
        ok = ok and l1_tail(p_coeffs) < 2
        system = build_system(big_n, lam, p_coeffs)
        ok = ok and verify_semiconjugacy(system) is None
        for mat_res, vec_res in semiconjugacy_residuals(system, system.projection).values():
            ok = ok and all(e == 0 for row in mat_res for e in row)
            ok = ok and all(e == 0 for e in vec_res)
        cover = certify_delta_covering(system)
        ok = ok and cover.inequality_lhs < cover.inequality_rhs
        covered = sum(
            (iv.width for iv, _ in cover.window_leaves), F(0)
        )
        ok = ok and covered == cover.functional_range.width
    report(6, "jet covering pipeline for orders 1 and 2", ok)


@pytest.fixture(scope="module")
def realizer_system():
    qres = find_flat_poly(2, margin=F(1, 16), n_max=64)
    lam = auto_lambda(lambda_threshold(qres))
    return build_system(2, lam, scale_to_p(qres, lam))


def test_criterion_7_realizer(realizer_system):
    system = realizer_system
    tol = F(1, 10 ** 8)
    rng = random.Random(404)
    bounds = system.coordinate_bounds()
    ok = True
    for _ in range(100):
        u_star = tuple(
            F(rng.randint(-950, 950), 1000) * bounds[i] for i in range(system.n)
        )
        target = Jet.scalar(
            tuple(reversed(linalg.mat_vec(system.projection, u_star)))
        )
        result = realize_jet(system, target, tol)
        membership = result.membership
        ok = ok and membership.certified and membership.margin > 0
        ok = ok and result.achieved_residual <= result.residual_bound <= tol
        if result.steps > 0:  # k is the first step count meeting tol
            ok = ok and residual_bound(system, result.steps - 1) > tol
    fams = standard_families(system.lam, system.order)
    recovered = 0
    attempts = 0
    while recovered < 20 and attempts < 2000:
        attempts += 1
        word = tuple(rng.choice("+-") for _ in range(20))
        target = continuation_jet(fams, word, system.order)
        try:
            result = realize_jet(system, target, tol)
        except NotCoveredError:
            continue
        realized = continuation_jet(fams, result.itinerary, system.order)
        diff = target - realized
        worst = max(abs(row[0]) for row in diff.coeffs)
        ok = ok and worst == result.achieved_residual <= result.residual_bound
        recovered += 1
    ok = ok and recovered == 20
    report(7, "realizer on 100 random targets and 20 round trips", ok)


def test_criterion_8_blender_demo():
    ok = True
    for lam in (F(3, 5), F(3, 4), F(9, 10)):
        ok = ok and verify_example_covering(SkewSystem(lam, F(1, 10))).ok
    ok = ok and not verify_example_covering(SkewSystem(F(9, 20), F(1, 10))).ok

    lam = F(3, 4)
    depth = 12
    heights = sorted(h for h, _ in unstable_heights(SkewSystem(lam, F(1, 10)), 0, depth))
    bound = lam ** depth / (1 - lam)
    # segments span [-2, 2] horizontally, so a grid point's distance to the
    # union is its vertical distance to the nearest height
    y = F(-2)
    while y <= 2:
        ok = ok and min(abs(y - h) for h in heights) <= bound
        y += F(1, 20)
    report(8, "blender covering and depth-12 density", ok)


def test_criterion_9_nearly_affine():
    lam = F(3, 4)
    exact = nearly_affine_check(
        lam,
        model_branch_table(lam, 1, 4, 50),
        model_branch_table(lam, -1, 4, 50),
        grid_step=F(1, 50),
    )
    ok = exact.plus.deviation == 0 and exact.minus.deviation == 0

    amp = F(1, 100)  # analytic C1 sup-norm of the injected perturbation

    def perturb(sign):
        band = branch_region(lam, sign)[1]
        scale = max(abs(band.lo), abs(band.hi))

        def p(x, y):
            return amp * y / scale, F(0), amp / scale

        return p

    noisy = nearly_affine_check(
        lam,
        model_branch_table(lam, 1, 4, 50, gx_perturb=perturb(1)),
        model_branch_table(lam, -1, 4, 50, gx_perturb=perturb(-1)),
        grid_step=F(1, 50),
    )
    for branch in (noisy.plus, noisy.minus):
        ok = ok and F(1, 200) <= branch.deviation <= F(2, 100)
    report(9, "nearly-affine estimates", ok)


def test_criterion_10_cli_determinism(tmp_path):
    def jet_target(path):
        path.write_text(
            json.dumps({"order": 1, "dim": 1, "coeffs": ["1/4", "-1"]})
        )

    sys_a = tmp_path / "a_sys.json"
    sys_b = tmp_path / "b_sys.json"
    target = tmp_path / "target.json"
    jet_target(target)

    plus_csv = tmp_path / "plus.csv"
    minus_csv = tmp_path / "minus.csv"
    plus_csv.write_text(branch_table_to_csv(model_branch_table(F(3, 4), 1, 4, 4)))
    minus_csv.write_text(branch_table_to_csv(model_branch_table(F(3, 4), -1, 4, 4)))

    commands = [
        ("cloud.csv", ["limit-set", "--lam", "3/4", "--depth", "6", "--out"]),
        ("scatter.ppm", ["limit-set", "--lam", "3/4", "--depth", "6",
                         "--out", str(tmp_path / "cloud2.csv"), "--width", "64",
                         "--height", "16", "--ppm"]),
        ("cert.json", ["certify", "--lam", "3/4", "--margin", "1/100", "--out"]),
        ("verdict.json", ["two-map-verdict", "--lam1", "3/4", "--offset1", "1",
                          "--lam2", "3/4", "--offset2", "-1", "--out"]),
        ("flat.json", ["flat-poly", "--flatness", "2", "--out"]),
        ("sys.json", ["jet-system", "--order", "1", "--out"]),
        ("real.json", ["realize", "--system", str(sys_a), "--target",
                       str(target), "--tol", "1/10000", "--out"]),
        ("img.ppm", ["blender-render", "--lam", "3/4", "--depth", "6",
                     "--width", "64", "--height", "64", "--out"]),
        ("cover.json", ["blender-cover", "--lam", "3/4", "--out"]),
        ("report.json", ["nearly-affine", "--lam", "3/4", "--table-plus",
                         str(plus_csv), "--table-minus", str(minus_csv),
                         "--grid-step", "1/4", "--out"]),
    ]

    # the realize command needs a system file; build both copies first
    assert cli_main(["jet-system", "--order", "1", "--out", str(sys_a)]) == 0
    assert cli_main(["jet-system", "--order", "1", "--out", str(sys_b)]) == 0
    ok = filecmp.cmp(sys_a, sys_b, shallow=False)

    for name, args in commands:
        out1 = tmp_path / "run1" / name
        out2 = tmp_path / "run2" / name
        out1.parent.mkdir(exist_ok=True)
        out2.parent.mkdir(exist_ok=True)
        code1 = cli_main(args + [str(out1)])
        code2 = cli_main(args + [str(out2)])
        ok = ok and code1 == code2 == 0
        ok = ok and filecmp.cmp(out1, out2, shallow=False)

    # check-cert has no file output; its verdict must still be stable
    cert = tmp_path / "run1" / "cert.json"
    ok = ok and cli_main(["check-cert", "--cert", str(cert)]) == 0
    ok = ok and cli_main(["check-cert", "--cert", str(cert)]) == 0
    report(10, "byte-identical CLI outputs", ok)
