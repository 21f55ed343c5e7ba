import argparse
import hashlib
import json
import time
from fractions import Fraction as F

import pytest

from jetcover import covering, flatpoly, jetcovering, serialize
from jetcover.cli import _joined, main
from jetcover.ifs import IFSystem
from jetcover.jets import Jet
from jetcover.rational import rat
from blender_helpers import branch_table_to_csv, model_branch_table  # local helper module
from jetcovering_helpers import rounding_term  # local helper module


def run(args):
    return main(args)


def test_limit_set_csv(tmp_path):
    out = tmp_path / "cloud.csv"
    assert run(["limit-set", "--lam", "1/2", "--depth", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x1,word"
    assert len(lines) == 9
    points = {line.split(",")[0] for line in lines[1:]}
    # all distinct signed sums of (1/2)^j
    expected = set()
    for bits in range(8):
        signs = [1 if bits & (1 << j) else -1 for j in range(3)]
        expected.add(str(sum(F(1, 2) ** j * signs[j] for j in range(3))))
    assert points == expected


def test_limit_set_depth_count(tmp_path):
    out = tmp_path / "cloud.csv"
    assert run(["limit-set", "--lam", "3/4", "--depth", "10", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 1025


def test_limit_set_rejects_expansion(tmp_path):
    out = tmp_path / "cloud.csv"
    assert run(["limit-set", "--lam", "5/4", "--depth", "3", "--out", str(out)]) == 2
    assert not out.exists()


def test_certify_round_trip(tmp_path):
    cert = tmp_path / "cert.json"
    assert (
        run(
            [
                "certify", "--lam", "3/4", "--lo", "-2", "--hi", "2",
                "--margin", "1/100", "--out", str(cert),
            ]
        )
        == 0
    )
    payload = json.loads(cert.read_text())
    assert payload["verified"] is True
    assert run(["check-cert", "--cert", str(cert)]) == 0


def test_certify_failure_exit(tmp_path):
    cert = tmp_path / "cert.json"
    assert run(["certify", "--lam", "1/2", "--out", str(cert)]) == 1
    payload = json.loads(cert.read_text())
    assert payload["verified"] is False
    assert "witness_box" in payload


def test_check_cert_detects_tamper(tmp_path):
    cert = tmp_path / "cert.json"
    run(["certify", "--lam", "3/4", "--out", str(cert)])
    payload = json.loads(cert.read_text())
    payload["leaves"][0]["witness"] = "+"
    payload["leaves"][1]["witness"] = "+"
    cert.write_text(json.dumps(payload))
    assert run(["check-cert", "--cert", str(cert)]) == 1


def test_two_map_verdict_exit_codes(tmp_path):
    out = tmp_path / "v.json"
    args = ["two-map-verdict", "--lam1", "3/4", "--offset1", "1",
            "--lam2", "3/4", "--offset2", "-1", "--out", str(out)]
    assert run(args) == 0
    assert json.loads(out.read_text())["verdict"] == "RobustInterior"
    args_empty = ["two-map-verdict", "--lam1", "1/4", "--offset1", "1",
                  "--lam2", "1/4", "--offset2", "-1", "--out", str(out)]
    assert run(args_empty) == 1
    assert json.loads(out.read_text())["verdict"] == "PerturbablyEmpty"


def test_flat_poly_command(tmp_path):
    out = tmp_path / "flat.json"
    assert run(["flat-poly", "--flatness", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["optimum"] == "5/3"
    assert payload["coeffs"][-1] == "1"
    assert run(
        ["flat-poly", "--flatness", "2", "--degree", "3", "--out", str(out)]
    ) == 0
    assert json.loads(out.read_text())["optimum"] == "2"


def test_flat_poly_exhaustion_exit(tmp_path):
    out = tmp_path / "flat.json"
    assert run(
        ["flat-poly", "--flatness", "2", "--degree-max", "3", "--out", str(out)]
    ) == 1
    assert json.loads(out.read_text())["found"] is False


def test_jet_system_auto_and_realize(tmp_path):
    sys_path = tmp_path / "sys.json"
    assert run(["jet-system", "--order", "1", "--out", str(sys_path)]) == 0
    payload = json.loads(sys_path.read_text())
    assert payload["built"] is True
    assert payload["jet_dim"] == 2
    assert payload["semiconjugacy_exact"] is True
    assert payload["delta_covering"]["inequality"]["exact"] is True

    target = tmp_path / "target.json"
    target.write_text(json.dumps({"order": 1, "dim": 1, "coeffs": ["1/4", "-1"]}))
    out = tmp_path / "real.json"
    assert (
        run(
            [
                "realize", "--system", str(sys_path), "--target", str(target),
                "--tol", "1/100000000", "--out", str(out),
            ]
        )
        == 0
    )
    real = json.loads(out.read_text())
    assert real["certified"] is True
    assert set(real["itinerary"]) <= {"+", "-"}
    assert F(real["achieved_residual"]) <= F(real["residual_bound"])
    assert F(real["residual_bound"]) <= F(1, 10 ** 8)


def test_jet_system_closed_form(tmp_path):
    sys_path = tmp_path / "sys0.json"
    assert run(
        ["jet-system", "--order", "0", "--lam", "3/4", "--out", str(sys_path)]
    ) == 0
    payload = json.loads(sys_path.read_text())
    assert payload["p_coeffs"] == ["-4/3", "1"]
    assert payload["projection"] == [["-4/3"]]


def test_jet_system_lambda_too_small(tmp_path):
    sys_path = tmp_path / "sys.json"
    assert run(
        ["jet-system", "--order", "1", "--lam", "1/100", "--out", str(sys_path)]
    ) == 1
    payload = json.loads(sys_path.read_text())
    assert payload["verdict"] == "lambda-too-small"


def test_jet_system_builds_one_projection(tmp_path, monkeypatch):
    # build_system is the only judge of the scaled polynomial, so an op
    # builds the projection once
    calls = []
    inner = jetcovering.projection_rows

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(jetcovering, "projection_rows", counted)
    out = tmp_path / "sys.json"
    assert run(["jet-system", "--order", "3", "--lam", "1021/1024",
                "--out", str(out)]) == 0
    assert len(calls) == 1


def test_realize_builds_one_projection(tmp_path, monkeypatch):
    # the reader's build_system hands its judged rows to the system, so the
    # membership, the bounds, the pullback and the stated-projection
    # comparison build no second one
    args = realize_args(tmp_path)
    calls = []
    inner = jetcovering.projection_rows
    monkeypatch.setattr(jetcovering, "projection_rows",
                        lambda *a: calls.append(a) or inner(*a))
    assert run(args + ["--tol", "1/10000", "--out", str(tmp_path / "real.json")]) == 0
    assert len(calls) == 1


def test_realize_not_in_set(tmp_path):
    sys_path = tmp_path / "sys.json"
    run(["jet-system", "--order", "1", "--out", str(sys_path)])
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"order": 1, "dim": 1, "coeffs": ["1000", "0"]}))
    out = tmp_path / "real.json"
    assert (
        run(
            [
                "realize", "--system", str(sys_path), "--target", str(target),
                "--tol", "1/100", "--out", str(out),
            ]
        )
        == 1
    )
    assert json.loads(out.read_text())["certified"] is False


def test_realize_step_cap_exits_before_lp(tmp_path, monkeypatch):
    sys_path = tmp_path / "sys.json"
    assert run(["jet-system", "--order", "1", "--out", str(sys_path)]) == 0

    def no_membership(*args):
        raise AssertionError("the step cap must be checked before any membership work")

    monkeypatch.setattr("jetcover.jetcovering.certify_membership", no_membership)
    monkeypatch.setattr("jetcover.jetcovering.membership_certificate", no_membership)
    # a target inside the covered set, and one far outside it
    for coeffs in (["1/4", "-1"], ["1000", "0"]):
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"order": 1, "dim": 1, "coeffs": coeffs}))
        out = tmp_path / "real.json"
        assert run(
            [
                "realize", "--system", str(sys_path), "--target", str(target),
                "--tol", "1/100000000", "--max-steps", "3", "--out", str(out),
            ]
        ) == 2
        assert not out.exists()


def test_a_tol_beyond_the_default_step_cap_exits_before_membership(tmp_path, monkeypatch):
    def no_membership(*args):
        raise AssertionError("the step cap must be checked before any membership work")

    args = realize_args(tmp_path) + ["--tol", "1/" + THREES, "--out", str(tmp_path / "r.json")]
    monkeypatch.setattr("jetcover.jetcovering.certify_membership", no_membership)
    assert run(args) == 2
    assert not (tmp_path / "r.json").exists()


def test_the_step_and_degree_caps_default_to_orders_4_to_6(tmp_path, monkeypatch):
    # order 6 needs flat degree 89, and order 7 needs 56,949 steps at tol 1e-4
    caps = []

    class Stop(Exception):
        pass

    def stop(system, target, tol, max_steps):
        caps.append(max_steps)
        raise Stop  # no realization is needed past the cap

    monkeypatch.setattr("jetcover.cli.realize_jet", stop)
    with pytest.raises(Stop):
        run(realize_args(tmp_path) + ["--out", str(tmp_path / "r.json")])
    assert caps == [100_000]
    out = tmp_path / "o6.json"
    assert run(["jet-system", "--order", "6", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["flat_poly"]["degree"] == 89 < flatpoly.FLAT_DEGREE_CAP


@pytest.mark.parametrize("jet_dim", [0, -1])
def test_realize_rejects_nonpositive_jet_dim(tmp_path, jet_dim):
    sys_path = tmp_path / "sys.json"
    assert run(["jet-system", "--order", "1", "--out", str(sys_path)]) == 0
    payload = json.loads(sys_path.read_text())
    payload["jet_dim"] = jet_dim
    sys_path.write_text(json.dumps(payload))
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"order": 1, "dim": 1, "coeffs": ["1/4", "-1"]}))
    out = tmp_path / "real.json"
    assert run(
        [
            "realize", "--system", str(sys_path), "--target", str(target),
            "--tol", "1/100", "--out", str(out),
        ]
    ) == 2
    assert not out.exists()


# edits of the order-1 system file, each an input error with its message;
# the degree cap and the root order's need of n >= N refuse the first three
# before any arithmetic grows with the degree or with N
HOSTILE_SYSTEMS = {
    "6,000 zeros in p_coeffs": (
        lambda p: {**p, "p_coeffs": ["1/3"] + ["0"] * 6000 + ["1"]},
        f"degree 6001 is above {flatpoly.FLAT_DEGREE_CAP}"),
    "3,000 zeros in p_coeffs": (
        lambda p: {**p, "p_coeffs": ["1/3"] + ["0"] * 3000 + ["1"]},
        f"degree 3001 is above {flatpoly.FLAT_DEGREE_CAP}"),
    "a jet_dim of 100,000": (
        lambda p: {**p, "jet_dim": 100000}, "polynomial has no root of order 100000 at 1/lam"),
    "p_coeffs a string": (lambda p: {**p, "p_coeffs": "1/2"}, "p_coeffs is not a JSON list"),
    "a list at the top level": (lambda p: [p], "the jet system is not a JSON object"),
    "a constant p_coeffs": (lambda p: {**p, "p_coeffs": ["1"]},
                            "polynomial must have positive degree"),
    "a p_coeffs that is not monic": (
        lambda p: {**p, "p_coeffs": p["p_coeffs"][:-1] + ["2"]},
        "need a monic polynomial with nonzero constant"),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_SYSTEMS))
def test_hostile_system_files_exit_2_at_once(tmp_path, capsys, name):
    mutate, message = HOSTILE_SYSTEMS[name]
    args = realize_args(tmp_path)
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(json.dumps(mutate(json.loads(sys_path.read_text()))))
    out = tmp_path / "real.json"
    capsys.readouterr()
    start = time.perf_counter()
    err = _expect_input_error(capsys, args + ["--out", str(out)], out)
    assert time.perf_counter() - start < 1
    assert err.count("\n") == 1 and message in err


def test_blender_commands(tmp_path):
    cover = tmp_path / "cover.json"
    assert run(
        ["blender-cover", "--lam", "3/4", "--overhang", "1/10", "--out", str(cover)]
    ) == 0
    assert json.loads(cover.read_text())["ok"] is True
    assert run(
        ["blender-cover", "--lam", "9/20", "--overhang", "1/10", "--out", str(cover)]
    ) == 1

    img = tmp_path / "img.ppm"
    assert run(
        [
            "blender-render", "--lam", "3/4", "--depth", "5",
            "--width", "32", "--height", "32", "--out", str(img),
        ]
    ) == 0
    data = img.read_bytes()
    assert data.startswith(b"P6\n32 32\n255\n")
    assert len(data) == 13 + 32 * 32 * 3


def test_nearly_affine_command(tmp_path):
    lam = F(3, 4)
    plus = tmp_path / "plus.csv"
    minus = tmp_path / "minus.csv"
    plus.write_text(branch_table_to_csv(model_branch_table(lam, 1, 4, 4)))
    minus.write_text(branch_table_to_csv(model_branch_table(lam, -1, 4, 4)))
    out = tmp_path / "report.json"
    assert (
        run(
            [
                "nearly-affine", "--lam", "3/4",
                "--table-plus", str(plus), "--table-minus", str(minus),
                "--grid-step", "1/4", "--out", str(out),
            ]
        )
        == 0
    )
    payload = json.loads(out.read_text())
    assert payload["plus"]["c1_deviation"] == "0"
    assert payload["certified"] is False


def test_nearly_affine_table_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    plus, minus = tmp_path / "plus.csv", tmp_path / "minus.csv"
    plus.write_text(branch_table_to_csv(model_branch_table(F(3, 4), 1, 4, 4)))
    minus.write_bytes(b"\xff" + plus.read_bytes())
    out = tmp_path / "report.json"
    err = _expect_input_error(
        capsys,
        ["nearly-affine", "--lam", "3/4", "--table-plus", str(plus),
         "--table-minus", str(minus), "--grid-step", "1/4", "--out", str(out)],
        out,
    )
    assert str(minus) in err


def test_config_file_merging(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lam": "3/4", "depth": 3}))
    out = tmp_path / "cloud.csv"
    assert run(
        ["--config", str(config), "limit-set", "--lam", "1/2", "--depth", "2",
         "--out", str(out)]
    ) == 0
    # explicit flags win over the config file
    assert len(out.read_text().strip().splitlines()) == 5


def test_config_yields_to_an_abbreviated_flag(tmp_path):
    # --dep is --depth to argparse, so it wins over the config file too
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"depth": 3}))
    out = tmp_path / "cloud.csv"
    assert run(
        ["--config", str(config), "limit-set", "--lam", "1/2", "--dep", "2",
         "--out", str(out)]
    ) == 0
    assert len(out.read_text().strip().splitlines()) == 5


def test_a_config_value_is_parsed_as_its_flag(tmp_path, capsys):
    # the config value "3" goes through int as --depth=3 would; "x" is
    # argparse's own error, also where the command line sets --depth
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lam": "1/2", "depth": "3"}))
    out = tmp_path / "cloud.csv"
    assert run(["--config", str(config), "limit-set", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 9
    out.unlink()
    config.write_text(json.dumps({"lam": "1/2", "depth": "x"}))
    for flags in ([], ["--depth", "2"]):
        with pytest.raises(SystemExit) as exit_:
            run(["--config", str(config), "limit-set", *flags, "--out", str(out)])
        assert exit_.value.code == 2 and not out.exists()
        assert "argument --depth: invalid int value: 'x'" in capsys.readouterr().err


def test_config_file_supplies_defaults(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"margin": "1/50"}))
    cert = tmp_path / "cert.json"
    assert run(
        ["--config", str(config), "certify", "--lam", "3/4", "--out", str(cert)]
    ) == 0
    assert json.loads(cert.read_text())["margin"] == "1/50"


def test_negative_fraction_may_follow_its_flag(tmp_path, capsys):
    # argparse reads -3/2, which is no negative decimal, as an option of its
    # own: "argument --lo: expected one argument"
    spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
    assert run(["certify", "--lam", "3/4", "--lo", "-3/2", "--hi", "3/2",
                "--out", str(spaced)]) == 0
    assert run(["certify", "--lam", "3/4", "--lo=-3/2", "--hi", "3/2",
                "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    assert json.loads(spaced.read_text())["box"] == [["-3/2", "3/2"]]
    assert run(["two-map-verdict", "--lam1", "1/2", "--offset1", "-1/2",
                "--lam2", "3/4", "--offset2", "-1"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "RobustInterior"


def test_negative_fraction_follows_its_flag_under_a_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lam": "3/4", "lo": "-1", "hi": "3/2"}))
    flagged, configured = tmp_path / "flagged.json", tmp_path / "configured.json"
    assert run(["--config", str(config), "certify", "--lo", "-3/2",
                "--out", str(flagged)]) == 0
    config.write_text(json.dumps({"lam": "3/4", "lo": "-3/2", "hi": "3/2"}))
    assert run(["--config", str(config), "certify", "--out", str(configured)]) == 0
    assert flagged.read_bytes() == configured.read_bytes()
    assert json.loads(flagged.read_text())["box"] == [["-3/2", "3/2"]]


@pytest.mark.parametrize(
    "tokens, joined",
    [
        (["--lo", "-3/2", "--hi", "-1"], ["--lo=-3/2", "--hi=-1"]),
        (["--l", "-3/2"], ["--l=-3/2"]),  # an abbreviation: argparse judges it
        (["--lo=-1", "-3/2"], ["--lo=-1", "-3/2"]),  # a stray token stays one
        (["--out", "x", "-3/2"], ["--out", "x", "-3/2"]),
        (["--lo", "-3/x"], ["--lo", "-3/x"]),  # no wire rational
        (["--lo", "-1.5"], ["--lo", "-1.5"]),
        (["--help", "-1"], ["--help", "-1"]),  # not an option of the command
        (["--", "-1"], ["--", "-1"]),
    ],
)
def test_only_a_negative_rational_after_a_flag_is_joined(tokens, joined):
    assert _joined(tokens, ["--lam", "--lo", "--hi", "--out"]) == joined


@pytest.mark.parametrize("config", [{"command": "check-cert"}, {"handler": "x"}])
def test_config_cannot_overwrite_parser_internals(tmp_path, capsys, config):
    # keys that are not options of the chosen command are ignored
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    args = ["two-map-verdict", "--lam1", "3/4", "--offset1", "1",
            "--lam2", "3/4", "--offset2", "-1"]
    assert run(args) == 0
    plain = capsys.readouterr().out
    assert run(["--config", str(path)] + args) == 0
    assert capsys.readouterr().out == plain


def test_invalid_rational_rejected(tmp_path):
    out = tmp_path / "x.csv"
    assert run(["limit-set", "--lam", "0.75", "--depth", "2", "--out", str(out)]) == 2


def _expect_input_error(capsys, args, out=None):
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert out is None or not out.exists()
    return err


def test_check_cert_rejects_zero_denominator(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert run(["certify", "--lam", "3/4", "--out", str(cert)]) == 0
    payload = json.loads(cert.read_text())
    payload["margin"] = "1/0"
    cert.write_text(json.dumps(payload))
    _expect_input_error(capsys, ["check-cert", "--cert", str(cert)])


# mutations of the `certify --lam 3/4` certificate, whose leaves are
# [-2, 0] ('-') and [0, 2] ('+'), with the exit code `check-cert` gives
SINGULAR = {"matrix": [["0"]], "offset": ["0"], "contraction": "0"}
PLANAR = {"matrix": [["3/4", "0"], ["0", "3/4"]], "offset": ["1", "0"],
          "contraction": "3/4"}
HOSTILE_CERTIFICATES = {
    "two-dimensional leaf": (2, lambda p: p["leaves"][0].update(
        box=[["-2", "0"], ["0", "1"]])),
    "reversed leaf interval": (2, lambda p: p["leaves"][0].update(box=[["0", "-2"]])),
    "reversed target": (2, lambda p: p.update(box=[["2", "-2"]])),
    "depth not a number": (2, lambda p: p.update(depth="x")),
    "box given as a string": (2, lambda p: p["leaves"][0].update(box="[-2, 0]")),
    "singular witness map": (2, lambda p: p["system"]["maps"].update({"-": SINGULAR})),
    "2x2 maps on a 1-d box": (2, lambda p: p["system"]["maps"].update(
        {"+": PLANAR, "-": PLANAR})),
    "no leaves": (1, lambda p: p.update(leaves=[])),
    # once read as an empty leaf list (exit 1): an object is no JSON list
    "leaves given as an object": (2, lambda p: p.update(leaves={})),
    "null leaves": (2, lambda p: p.update(leaves=None)),
    "leaf given as a list": (2, lambda p: p["leaves"].__setitem__(1, [["0", "2"]])),
    "missing witness": (2, lambda p: p["leaves"][1].pop("witness")),
    "missing box": (2, lambda p: p["leaves"][0].pop("box")),
    "three endpoints in a side": (2, lambda p: p["leaves"][1].update(box=[["0", "1", "2"]])),
    "nested list endpoint": (2, lambda p: p["leaves"][0].update(box=[[["-2"], "0"]])),
    "target side given as a string": (2, lambda p: p.update(box=["-2, 2"])),
    "null margin": (2, lambda p: p.update(margin=None)),
    "map without a matrix": (2, lambda p: p["system"]["maps"]["+"].pop("matrix")),
    # tuple() of either once read as the alphabet ["+", "-"]
    "alphabet given as a string": (2, lambda p: p["system"].update(alphabet="+-")),
    "alphabet given as an object": (2, lambda p: p["system"].update(
        alphabet={"+": 0, "-": 1})),
    "one whole-box leaf": (1, lambda p: p.update(
        leaves=[{"box": [["-2", "2"]], "witness": "+"}])),
    "int witness": (2, lambda p: p["leaves"][0].update(witness=5)),
    "list witness": (2, lambda p: p["leaves"][0].update(witness=["+"])),
    "null witness": (2, lambda p: p["leaves"][0].update(witness=None)),
    "margin 3": (1, lambda p: p.update(margin="3")),
    "margin 0": (1, lambda p: p.update(margin="0")),
    "margin -1/2": (1, lambda p: p.update(margin="-1/2")),
    "alphabet holding a number": (2, lambda p: p["system"].update(alphabet=["+", 5])),
    "empty alphabet": (2, lambda p: p["system"].update(alphabet=[], maps={})),
    "maps of two dimensions": (2, lambda p: p["system"]["maps"].update({"+": PLANAR})),
    # the loader parses each pair once, yet 0 == 0.0 == False must not let
    # a float or a bool through on an int's parse
    "int endpoints": (0, lambda p: (p["leaves"][0].update(box=[[-2, 0]]),
                                    p["leaves"][1].update(box=[[0, 2]]))),
    "float endpoint in a pair equal to an int pair": (2, lambda p: (
        p["leaves"][0].update(box=[[-2, 0]]), p["leaves"][1].update(box=[[-2, 0.0]]))),
    "bool endpoint in a pair equal to an int pair": (2, lambda p: (
        p["leaves"][0].update(box=[[-2, 0]]), p["leaves"][1].update(box=[[-2, False]]))),
    # outside the target, but cell 1 of 1 and cell -1 of 4 have the heap
    # indices 2 and 3 of the leaves [-2, 0] and [0, 2] they stand in for
    "leaf beyond the target on another's heap index": (1, lambda p: p["leaves"][0].update(
        box=[["2", "6"]])),
    "leaf below the target on another's heap index": (1, lambda p: p["leaves"][1].update(
        box=[["-3", "-2"]])),
    # W/w = 3 is no power of two, so [-2, -2/3] is no cell, though 3 + 0
    # is the heap index of [0, 2]
    "leaf a third of the target wide": (1, lambda p: p["leaves"][1].update(
        box=[["-2", "-2/3"]])),
    "zero-volume leaves": (1, lambda p: p.update(leaves=[
        {"box": [["-2", "-2"]], "witness": "-"},
        {"box": [["2", "2"]], "witness": "+"},
    ])),
    "unused singular map": (0, lambda p: (
        p["system"]["alphabet"].append("z"), p["system"]["maps"].update(z=SINGULAR))),
    # 5,000 digits: the margin eats the target, and the message that says
    # so must not stop at the digit limit of int -> str
    "margin past the digit limit": (1, lambda p: p.update(margin="3" * 5000)),
    # the loader reads endpoints with the one ASCII p/q parser
    **{f"leaf endpoint {text!r}": (2, lambda p, text=text: p["leaves"][0].update(
        box=[["-2", text]])) for text in ("1_0", "٣", "+1", " 1", "1/0")},
    "leaf endpoint 0 over a 5,000-digit denominator": (0, lambda p: p["leaves"][0].update(
        box=[["-2", "0/" + "1" * 5000]])),
}


def hostile_certificate(tmp_path, mutate):
    """The path of the `certify --lam 3/4` certificate, edited by `mutate`."""
    cert = tmp_path / "cert.json"
    assert run(["certify", "--lam", "3/4", "--out", str(cert)]) == 0
    payload = json.loads(cert.read_text())
    mutate(payload)
    cert.write_text(json.dumps(payload))
    return cert


@pytest.mark.parametrize("name", sorted(HOSTILE_CERTIFICATES))
def test_check_cert_exit_codes_on_hostile_certificates(tmp_path, capsys, name):
    expected, mutate = HOSTILE_CERTIFICATES[name]
    cert = hostile_certificate(tmp_path, mutate)
    if expected == 2:
        capsys.readouterr()
        assert _expect_input_error(capsys, ["check-cert", "--cert", str(cert)]).count("\n") == 1
    else:
        assert run(["check-cert", "--cert", str(cert)]) == expected


# the path of the field that each malformed certificate's message names
NAMED_FIELDS = {
    "two-dimensional leaf": "leaves[0].box has 2 sides",
    "leaves given as an object": "leaves is not a JSON list",
    "null leaves": "leaves is not a JSON list",
    "leaf given as a list": "leaves[1] is not a JSON object",
    "missing witness": "leaves[1].witness is missing",
    "missing box": "leaves[0].box is missing",
    "three endpoints in a side": "leaves[1].box[0]: not a JSON [lo, hi] pair",
    "nested list endpoint": "leaves[0].box[0]: not a JSON [lo, hi] pair",
    "box given as a string": "leaves[0].box is not a JSON list",
    "reversed leaf interval": "leaves[0].box[0]: empty interval",
    "list witness": "leaves[0].witness is not a JSON string",
    "float endpoint in a pair equal to an int pair": "leaves[1].box[0]",
    "leaf endpoint '1/0'": "leaves[0].box[0]: not an ASCII p/q",
    "target side given as a string": "box[0]: not a JSON [lo, hi] pair",
    "reversed target": "box[0]: empty interval",
    "null margin": "margin: cannot coerce NoneType",
    "depth not a number": "depth is not a JSON integer",
    "alphabet given as a string": "system.alphabet is not a JSON list",
    "alphabet holding a number": "system.alphabet is not a JSON list of strings",
    "empty alphabet": "alphabet must be nonempty without repeats",
    "maps of two dimensions": "all maps must share one dimension",
    "map without a matrix": 'system.maps["+"]: matrix is missing',
}


@pytest.mark.parametrize("name", sorted(NAMED_FIELDS))
def test_check_cert_names_the_malformed_field(tmp_path, capsys, name):
    cert = hostile_certificate(tmp_path, HOSTILE_CERTIFICATES[name][1])
    assert NAMED_FIELDS[name] in _expect_input_error(capsys, ["check-cert", "--cert", str(cert)])


@pytest.mark.parametrize("text", ["5", "[]", "null", '"x"'])
def test_check_cert_top_level_must_be_an_object(tmp_path, capsys, text):
    cert = tmp_path / "cert.json"
    cert.write_text(text)
    err = _expect_input_error(capsys, ["check-cert", "--cert", str(cert)])
    assert "the certificate is not a JSON object" in err


@pytest.mark.parametrize("depth", ["1e400", "2.7", "true", '"24"', "-5"])
def test_check_cert_depth_must_be_a_non_negative_json_integer(tmp_path, capsys, depth):
    # 1e400 once escaped as an OverflowError traceback; the others passed
    cert = tmp_path / "cert.json"
    assert run(["certify", "--lam", "3/4", "--out", str(cert)]) == 0
    text = cert.read_text()
    assert '"depth": 24,' in text
    cert.write_text(text.replace('"depth": 24,', f'"depth": {depth},'))
    _expect_input_error(capsys, ["check-cert", "--cert", str(cert)])


THREES, NINES = "3" * 5000, "9" * 5000  # past the 4,300-digit limit of int -> str


def realize_args(tmp_path, box_base=None, coeffs=("1/4", "-1")):
    """`realize` of the target jet `coeffs` on the order-1 system, whose
    file states `box_base` if given."""
    sys_path, target = tmp_path / "sys.json", tmp_path / "target.json"
    assert run(["jet-system", "--order", "1", "--out", str(sys_path)]) == 0
    if box_base is not None:
        sys_path.write_text(json.dumps({**json.loads(sys_path.read_text()), "box_base": box_base}))
    target.write_text(json.dumps({"order": len(coeffs) - 1, "dim": 1, "coeffs": list(coeffs)}))
    return ["realize", "--system", str(sys_path), "--target", str(target)]


@pytest.mark.parametrize("field", ["delta_covering", "flat_poly", "lambda_threshold",
                                   "order", "built", "semiconjugacy_exact"])
def test_informational_system_fields_are_not_read(tmp_path, field):
    # realize rebuilds the system from jet_dim, lam, p_coeffs and box_base
    # and matches the stated matrices and box; these fields it never reads
    args = realize_args(tmp_path)
    assert run(args + ["--out", str(tmp_path / "full.json")]) == 0
    sys_path = tmp_path / "sys.json"
    payload = json.loads(sys_path.read_text())
    del payload[field]
    sys_path.write_text(json.dumps(payload))
    assert run(args + ["--out", str(tmp_path / "cut.json")]) == 0
    assert (tmp_path / "cut.json").read_bytes() == (tmp_path / "full.json").read_bytes()


DIGIT_LIMIT_INPUTS = {
    "certify: the margin eats the target": lambda tmp: [
        "certify", "--lam", "3/4", "--margin", THREES],
    "certify: an empty target": lambda tmp: ["certify", "--lam", "3/4", "--lo", NINES, "--hi", "0"],
    "certify: a contraction bound not < 1": lambda tmp: ["certify", "--lam", NINES],
    "realize: a tol beyond --max-steps": lambda tmp: realize_args(tmp) + ["--tol", "1/" + THREES],
    "realize: a base that breaks the box inequality": lambda tmp: realize_args(
        tmp, box_base=NINES + "/3"),
    "flat-poly: a margin above 1": lambda tmp: ["flat-poly", "--flatness", "2", "--margin", THREES],
}


@pytest.mark.parametrize("name", sorted(DIGIT_LIMIT_INPUTS))
def test_input_errors_quote_numbers_past_the_digit_limit(tmp_path, capsys, name):
    out = tmp_path / "out.json"
    err = _expect_input_error(capsys, DIGIT_LIMIT_INPUTS[name](tmp_path) + ["--out", str(out)], out)
    assert "Exceeds the limit" not in err  # Python's own text for a number it will not print


def test_certify_rejects_zero_denominator(tmp_path, capsys):
    out = tmp_path / "cert.json"
    _expect_input_error(capsys, ["certify", "--lam", "1/0", "--out", str(out)], out)


def nearly_affine_args(tmp_path, extra_row=""):
    """`nearly-affine --lam 3/4` on the model tables of lam 3/4, the plus
    table ending in `extra_row`."""
    plus, minus = tmp_path / "plus.csv", tmp_path / "minus.csv"
    plus.write_text(branch_table_to_csv(model_branch_table(F(3, 4), 1, 4, 4)) + extra_row)
    minus.write_text(branch_table_to_csv(model_branch_table(F(3, 4), -1, 4, 4)))
    return ["nearly-affine", "--lam", "3/4", "--table-plus", str(plus),
            "--table-minus", str(minus), "--grid-step", "1/4"]


# each a command's arguments, or a function of tmp_path that writes the
# command's input files and gives them; the last option given wins
@pytest.mark.parametrize(
    "args",
    [
        ["certify", "--lam", "3/4", "--max-depth", "-1"],
        ["blender-cover", "--lam", "3/4", "--max-depth", "-1"],
        ["certify", "--lam", "0"],  # singular branch maps
        # past the depth cap: refused before a failing path quadratic in depth
        ["certify", "--lam", "1/2", "--max-depth", "1025"],
        ["blender-cover", "--lam", "1/2", "--max-depth", "1025"],
        lambda tmp: realize_args(tmp) + ["--tol", "0"],
        lambda tmp: realize_args(tmp) + ["--tol", "-1/2"],
        lambda tmp: realize_args(tmp, coeffs=("1/4", "-1", "0")),  # order 2 on order 1
        # a negative step cap: once exit 0 with an empty word at tol 1000
        lambda tmp: realize_args(tmp) + ["--tol", "1000", "--max-steps", "-5"],
        lambda tmp: realize_args(tmp) + ["--max-steps", "-5"],
        lambda tmp: nearly_affine_args(tmp) + ["--lam", "1/2"],
        lambda tmp: nearly_affine_args(tmp, "1,2,3,4,5,6,7\n"),  # a row of 7 columns
        ["blender-render", "--lam", "3/4", "--a", "1/4", "--depth", "3"],
        ["blender-cover", "--lam", "3/4", "--overhang", "-1"],
        ["limit-set", "--lam", "3/4", "--depth", "0"],
        lambda tmp: nearly_affine_args(tmp) + ["--grid-step", "0"],
        lambda tmp: nearly_affine_args(tmp) + ["--grid-step", "-1/2"],
        # the hull of the fixed points is no attractor's hull: once PerturbablyEmpty
        ["two-map-verdict", "--lam1=-9/10", "--offset1", "1/10", "--lam2=-9/10",
         "--offset2=-1/10"],
    ],
)
def test_certifier_input_errors_exit_2(tmp_path, capsys, args):
    out = tmp_path / "out.json"
    args = args(tmp_path) if callable(args) else args
    capsys.readouterr()
    assert _expect_input_error(capsys, args + ["--out", str(out)], out).count("\n") == 1


def unparsed(value: str) -> str:
    return f"not an ASCII p/q with nonzero denominator: {value!r}"


# each a command line with two bad values, and the error that names the
# first: a library call that checks one argument before it coerces another
# would name the other one, if the handler left the coercion to it
@pytest.mark.parametrize(
    "args, message",
    [
        (["certify", "--lam", "3/4", "--margin", "m", "--max-depth", "-1"], unparsed("m")),
        (["certify", "--lam", "l", "--lo", "a"], unparsed("l")),
        (["certify", "--lam", "3/4", "--lo", "a", "--margin", "m"], unparsed("a")),
        (["flat-poly", "--flatness", "0", "--margin", "m"], unparsed("m")),
        (["jet-system", "--order", "1", "--margin", "m", "--lam", "l"], unparsed("m")),
        (["two-map-verdict", "--lam1", "2", "--offset1", "o",
          "--lam2", "l", "--offset2", "1"], unparsed("o")),
        (["two-map-verdict", "--lam1", "l", "--offset1", "o",
          "--lam2", "1/2", "--offset2", "1"], unparsed("l")),
        (["blender-cover", "--lam", "2", "--overhang", "o", "--margin", "m"], unparsed("o")),
        (["blender-render", "--lam", "l", "--a", "a", "--depth", "1"], unparsed("l")),
        (["limit-set", "--lam", "l", "--depth", "-1"], unparsed("l")),
        (lambda tmp: nearly_affine_args(tmp) + ["--lam", "l", "--grid-step", "g"], unparsed("l")),
        (lambda tmp: nearly_affine_args(tmp) + ["--lam", "2", "--grid-step", "g"], unparsed("g")),
        # both parse: the lam's range is checked before the grid step's sign
        (lambda tmp: nearly_affine_args(tmp) + ["--lam", "2", "--grid-step", "0"],
         "contraction must lie in (1/2, 1)"),
    ],
    # an unparsed value's id is the value
    ids=lambda value: value.rpartition(": ")[2].strip("'") if isinstance(value, str) else None,
)
def test_a_doubly_bad_command_line_names_its_first_bad_value(tmp_path, capsys, args, message):
    out = tmp_path / "out.json"
    args = args(tmp_path) if callable(args) else args
    capsys.readouterr()
    err = _expect_input_error(capsys, args + ["--out", str(out)], out)
    assert err == f"error: {message}\n"


def test_certify_at_depth_zero_reports_the_target(tmp_path):
    out = tmp_path / "cert.json"
    assert run(["certify", "--lam", "3/4", "--max-depth", "0", "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert payload["depth"] == 0 and payload["witness_box"] == [["-2", "2"]]


@pytest.mark.parametrize(
    "stated", [{"order": 3, "dim": 1}, {"order": 1, "dim": 2},
               # equal to 1 in Python, but no JSON integer
               {"order": True, "dim": 1}, {"order": 1.0, "dim": 1}, {"order": 1, "dim": True}]
)
def test_realize_rejects_a_target_of_another_stated_shape(tmp_path, capsys, stated):
    sys_path = tmp_path / "sys.json"
    assert run(["jet-system", "--order", "1", "--out", str(sys_path)]) == 0
    target = tmp_path / "target.json"
    target.write_text(json.dumps({**stated, "coeffs": ["1/4", "-1"]}))
    out = tmp_path / "real.json"
    _expect_input_error(
        capsys,
        ["realize", "--system", str(sys_path), "--target", str(target),
         "--out", str(out)],
        out,
    )


def test_realize_rejects_zero_denominator(tmp_path, capsys):
    sys_path = tmp_path / "sys.json"
    assert run(["jet-system", "--order", "1", "--out", str(sys_path)]) == 0
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"order": 1, "dim": 1, "coeffs": ["1/0", "-1"]}))
    out = tmp_path / "real.json"
    _expect_input_error(
        capsys,
        ["realize", "--system", str(sys_path), "--target", str(target),
         "--out", str(out)],
        out,
    )


@pytest.mark.parametrize("coeffs", ["12", {"1/4": 0, "-1": 0}])
def test_realize_rejects_target_coeffs_that_are_no_list(tmp_path, capsys, coeffs):
    # a string or an object iterates like a list: "12" was read as the jet
    # (1, 2) and exited 1, and the object's keys were realized with exit 0
    args = realize_args(tmp_path)
    (tmp_path / "target.json").write_text(json.dumps({"order": 1, "dim": 1, "coeffs": coeffs}))
    out = tmp_path / "real.json"
    capsys.readouterr()
    err = _expect_input_error(capsys, args + ["--out", str(out)], out)
    assert err.count("\n") == 1 and "coeffs is not a JSON list" in err


@pytest.mark.parametrize(
    "args",
    [
        ["jet-system", "--order", "3", "--degree-max", "2"],
        ["flat-poly", "--flatness", "3", "--degree-max", "2"],
    ],
)
def test_degree_cap_below_flatness_is_input_error(tmp_path, capsys, args):
    # rejected before any LP, not reported as an exhausted search
    out = tmp_path / "out.json"
    assert run(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: degree cap 2 is below the flatness"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["jet-system", "--order", "3", "--degree-max", str(flatpoly.FLAT_DEGREE_CAP + 1)],
        ["flat-poly", "--flatness", "40", "--degree-max", "100000"],
        ["flat-poly", "--flatness", "5", "--degree", "100000"],
    ],
)
def test_degree_cap_above_the_limit_is_input_error(tmp_path, capsys, args, monkeypatch):
    # the ladder's cost is bounded before any exchange step
    def no_exchange(*args):
        raise AssertionError("an exchange ran")

    monkeypatch.setattr(flatpoly, "_exchange", no_exchange)
    out = tmp_path / "out.json"
    _expect_input_error(capsys, args + ["--out", str(out)], out)


@pytest.mark.parametrize(
    "args",
    [
        ["flat-poly", "--flatness", "0"],
        ["flat-poly", "--flatness", "-3"],
        ["jet-system", "--order", "-1"],
    ],
)
def test_flatness_below_one_is_input_error(tmp_path, capsys, args, monkeypatch):
    # refused before any exchange step, and nothing is written
    def no_exchange(*args):
        raise AssertionError("an exchange ran")

    monkeypatch.setattr(flatpoly, "_exchange", no_exchange)
    out = tmp_path / "out.json"
    _expect_input_error(capsys, args + ["--out", str(out)], out)


@pytest.mark.parametrize("order", ["-1", "-7"])
def test_jet_system_order_below_zero_names_the_flag(tmp_path, capsys, order, monkeypatch):
    # refused by the command itself, naming --order rather than the flatness
    # it implies, before the ladder starts; nothing is written
    def no_ladder(*args):
        raise AssertionError("the ladder ran")

    monkeypatch.setattr("jetcover.cli.find_flat_poly", no_ladder)
    out = tmp_path / "out.json"
    err = _expect_input_error(capsys, ["jet-system", "--order", order, "--out", str(out)], out)
    assert err == f"error: --order {order} is below 0\n"


@pytest.mark.parametrize("order", ["128", "9" * 4300])
def test_jet_system_order_past_the_degree_cap_is_refused_before_order_plus_one(
        tmp_path, capsys, order, monkeypatch):
    # 4,300 digits is the most int() parses, and order + 1 has 4,301: the
    # command refuses before forming it, in one line, and the ladder never runs
    def no_ladder(*args):
        raise AssertionError("the ladder ran")

    monkeypatch.setattr("jetcover.cli.find_flat_poly", no_ladder)
    out = tmp_path / "out.json"
    start = time.perf_counter()
    err = _expect_input_error(capsys, ["jet-system", "--order", order, "--out", str(out)], out)
    assert time.perf_counter() - start < 1
    assert err == f"error: --order {order} is above {flatpoly.FLAT_DEGREE_CAP - 1}\n"


def test_jet_system_runs_order_7_at_its_default_degree_cap(tmp_path, capsys):
    # the degree cap defaults to FLAT_DEGREE_CAP: order 7 needs flat degree
    # 121, and order 8 exhausts the cap and is refused
    out = tmp_path / "o7.json"
    assert run(["jet-system", "--order", "7", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["flat_poly"]["degree"] == 121
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "9fed766ab93d8bb3d74b4e4bf623f8cccf5f72b2973276775d8c042be2292b00")
    out = tmp_path / "o8.json"
    err = _expect_input_error(capsys, ["jet-system", "--order", "8", "--out", str(out)], out)
    assert err.startswith(f"error: no degree <= {flatpoly.FLAT_DEGREE_CAP} reached 31/16")


def test_flat_poly_runs_flatness_8_at_its_default_degree_cap(tmp_path):
    # flat-poly's degree cap defaults to FLAT_DEGREE_CAP, as jet-system's
    # does: flatness 8 needs degree 121, and flatness 9 exhausts the cap
    out = tmp_path / "flat8.json"
    assert run(["flat-poly", "--flatness", "8", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["search_degree"] == 121
    assert run(["flat-poly", "--flatness", "9", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["found"] is False


# sha256 of the bytes these commands write.  The flat polynomial comes out
# of the exact flat-polynomial exchange, and the itinerary starts from the
# witness of the exact membership exchange, so a change in either exchange's
# result, a tied vertex included, shows here.  A realization's residual_bound
# carries the rounding term of its fixed-point pullback.
PINNED_DIGESTS = {
    "o2": "419801e239e2d156507539757c088370d062d63f97e683fe00dd03ab6403dad6",
    "o3": "542dbbb620a57dc6014d2289a6eb6963a75cb0e1ff9e95405c50348d8fd73101",
    "o1": "226bc9aaa95c27a43658d0328d275c85e822baf977c689275aac80ac8086b7bb",
    "realize": "e3d46b375a2041afa261cd3d85d49ef1064db45d6aa84a312db8ccddcd446c6a",
    "certify": "f92c038690d25d34aa201557f5033863cf0f67196e94a13b1331b09e2e593fda",
    "lambda-too-small": "e43c55498971903f85af3bb55b9ef55b92646342d998aca39de4ae3b44f22301",
    "flat5": "93a2408c33dc9a808e9ac537e0127876fe3d9740f1227d2afdc58bd86f8d80a0",
    "flat5-degree11": "b231f9bf4e457b91a1eaf7ae7431083c242ce77b5a2c3a3f474f8c7c69329329",
    "o4": "15840133e1b29fd31cc691a2395dc52cc598a6fca1cc20a76fc7a052e7b25c08",
    "flat4-degree23": "d4a329f6f2e761230fefa258287b5b41fa7704196380d3f1185dcf0748fe5c61",
    "realize-o2-zero": "8ff9ca78711ae3f30a4e3207ea9c077e3ebb580fda5a0f929e900c1ad56af4e2",
}
NEGATIVE_VERDICTS = {"lambda-too-small"}  # written with exit code 1


def pinned_commands(tmp_path):
    """The command of each `PINNED_DIGESTS` entry, less its --out, in an
    order that writes each system before a realize reads it."""
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"order": 1, "dim": 1, "coeffs": ["1/4", "-1"]}))
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"order": 2, "dim": 1, "coeffs": ["0", "0", "0"]}))
    commands = {
        "o2": ["jet-system", "--order", "2"],
        "o3": ["jet-system", "--order", "3", "--lam", "1021/1024"],
        "o1": ["jet-system", "--order", "1"],
        "realize": ["realize", "--system", str(tmp_path / "o1.json"),
                    "--target", str(target)],
        "certify": ["certify", "--lam", "3/4"],
        "lambda-too-small": ["jet-system", "--order", "1", "--lam", "1/100"],
        # the 36-degree order-4 ladder's history, and a degree whose optimal
        # vertices tie (the exchange ends on the least, {0, 1, 5, 8, 10}; the
        # cold Bland LP on {0, 1, 5, 9, 10})
        "flat5": ["flat-poly", "--flatness", "5"],
        "flat5-degree11": ["flat-poly", "--flatness", "5", "--degree", "11"],
        # order 4 at auto lambda, and o3's search degree on the --degree path:
        # optimal vertices tie there, and both paths end on the least,
        # {0, 5, 16, 22}
        "o4": ["jet-system", "--order", "4"],
        "flat4-degree23": ["flat-poly", "--flatness", "4", "--degree", "23"],
        # a capped target: its optimal witnesses form a face, and the
        # exchange's lowest-index rules pick the vertex the itinerary starts from
        "realize-o2-zero": ["realize", "--system", str(tmp_path / "o2.json"),
                            "--target", str(zero), "--tol", "1/10000"],
    }
    assert commands.keys() == PINNED_DIGESTS.keys()
    return commands


def test_pinned_output_digests(tmp_path):
    digests = {}
    for name, args in pinned_commands(tmp_path).items():
        out = tmp_path / f"{name}.json"
        assert run(args + ["--out", str(out)]) == int(name in NEGATIVE_VERDICTS)
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == PINNED_DIGESTS


# sha256 of valid rasters; both commands share one PPM encoder
PINNED_PPM_DIGESTS = {
    "limit-set": "5558354c6023776a88081e98e13c64f5ba1808ac3fc6343f01ca803bf32c6e54",
    "blender-render": "09d03795057d12f8ea16ca86603ce40ca150905b022dc51867f33d5ecae9271d",
}


def test_pinned_ppm_digests(tmp_path):
    commands = {
        "limit-set": ["limit-set", "--lam", "3/4", "--depth", "6", "--width", "64",
                      "--height", "16", "--out", str(tmp_path / "c.csv"), "--ppm"],
        "blender-render": ["blender-render", "--lam", "3/4", "--depth", "6",
                           "--width", "64", "--height", "64", "--out"],
    }
    digests = {}
    for name, args in commands.items():
        out = tmp_path / f"{name}.ppm"
        assert run(args + [str(out)]) == 0
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == PINNED_PPM_DIGESTS


@pytest.mark.parametrize(
    "size",
    [
        ["--width", "-4"],
        ["--width", "0", "--height", "0"],
        ["--width", "2049", "--height", "2048"],  # one column past the cap
    ],
)
def test_raster_size_is_input_error(tmp_path, capsys, size, monkeypatch):
    # the size is refused before any cloud is computed, and limit-set
    # writes neither its cloud nor its raster
    def no_cloud(*args):
        raise AssertionError("a cloud was computed")

    monkeypatch.setattr("jetcover.cli.limit_set_cloud", no_cloud)
    monkeypatch.setattr("jetcover.blender.unstable_heights", no_cloud)
    csv, ppm = tmp_path / "cloud.csv", tmp_path / "img.ppm"
    _expect_input_error(
        capsys,
        ["limit-set", "--lam", "3/4", "--depth", "3", "--out", str(csv),
         "--ppm", str(ppm)] + size,
        ppm,
    )
    assert not csv.exists()
    _expect_input_error(
        capsys,
        ["blender-render", "--lam", "3/4", "--depth", "3", "--out", str(ppm)] + size,
        ppm,
    )


@pytest.mark.parametrize(
    "args",
    [
        ["limit-set", "--lam", "3/4", "--depth", "19"],
        ["limit-set", "--lam", "3/4", "--depth", "22", "--ppm", "img.ppm"],
        ["blender-render", "--lam", "3/4", "--depth", "19", "--width", "64", "--height", "64"],
        # 2^depth is never formed: at depth 15000 its 4,516 digits once ended
        # in a digit-limit traceback, and at 10^9 forming it took seconds first
        ["limit-set", "--lam", "3/4", "--depth", "15000"],
        ["limit-set", "--lam", "3/4", "--depth", "1000000000"],
        ["blender-render", "--lam", "3/4", "--depth", "15000", "--width", "8", "--height", "8"],
        ["blender-render", "--lam", "3/4", "--depth", "1000000000", "--width", "8", "--height", "8"],
    ],
)
def test_word_enumeration_past_the_cap_is_input_error(tmp_path, capsys, args, monkeypatch):
    # 2^19 words exceed WORD_ENUMERATION_CAP = 2^18: refused at once, before
    # any word is built, in one line that quotes the depth, not the count,
    # and nothing is written
    def no_words(*args):
        raise AssertionError("a word was built")

    monkeypatch.setattr(IFSystem, "origin", no_words)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    start = time.perf_counter()
    err = _expect_input_error(capsys, args + ["--out", str(out)], out)
    assert time.perf_counter() - start < 1
    assert err == f"error: 2^{args[args.index('--depth') + 1]} words exceed the cap {2 ** 18}\n"
    assert not (tmp_path / "img.ppm").exists()


def test_blender_render_takes_no_overhang(tmp_path, capsys):
    # the raster reads only --lam and --a: --overhang is an unknown flag,
    # and a config key overhang is ignored like any key of no option
    ppm = tmp_path / "img.ppm"
    args = ["blender-render", "--lam", "3/4", "--depth", "6", "--width", "64", "--height", "64"]
    with pytest.raises(SystemExit) as exit_:
        run(args + ["--overhang", "1/10", "--out", str(ppm)])
    assert exit_.value.code == 2 and not ppm.exists()
    assert "unrecognized arguments: --overhang 1/10" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"overhang": "5"}))
    assert run(["--config", str(config)] + args + ["--out", str(ppm)]) == 0
    assert hashlib.sha256(ppm.read_bytes()).hexdigest() == PINNED_PPM_DIGESTS["blender-render"]


@pytest.mark.parametrize(
    "args", [["flat-poly", "--flatness", "2"], ["jet-system", "--order", "3"]]
)
def test_unreachable_margin_is_input_error(tmp_path, capsys, args, monkeypatch):
    # a margin above 1 is rejected before any exchange step, not reported
    # as exhausted
    def no_exchange(*args):
        raise AssertionError("an exchange ran")

    monkeypatch.setattr(flatpoly, "_exchange", no_exchange)
    out = tmp_path / "out.json"
    _expect_input_error(capsys, args + ["--margin", "3/2", "--out", str(out)], out)


def test_leaf_budget_is_an_input_error(tmp_path, capsys, monkeypatch):
    # x -> 3x/4 ± 1 certifies [-2, 2] with 2 leaves; a cap of 1 rejects
    # the certifier's run and the checker's input, and neither writes
    cert, again = tmp_path / "cert.json", tmp_path / "again.json"
    assert run(["certify", "--lam", "3/4", "--out", str(cert)]) == 0
    monkeypatch.setattr(covering, "COVER_LEAF_CAP", 1)
    monkeypatch.setattr(serialize, "COVER_LEAF_CAP", 1)
    _expect_input_error(capsys, ["certify", "--lam", "3/4", "--out", str(again)], again)
    before = sorted(tmp_path.iterdir())
    _expect_input_error(capsys, ["check-cert", "--cert", str(cert)])
    assert sorted(tmp_path.iterdir()) == before


def test_realize_rejects_a_stated_projection_it_does_not_rebuild(tmp_path, capsys):
    sys_path = tmp_path / "sys.json"
    assert run(["jet-system", "--order", "1", "--out", str(sys_path)]) == 0
    payload = json.loads(sys_path.read_text())
    payload["projection"][0][0] = "12345"
    sys_path.write_text(json.dumps(payload))
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"order": 1, "dim": 1, "coeffs": ["1/4", "-1"]}))
    out = tmp_path / "real.json"
    _expect_input_error(
        capsys,
        ["realize", "--system", str(sys_path), "--target", str(target),
         "--out", str(out)],
        out,
    )


@pytest.mark.parametrize("maps", [None, True, 0, 2.5, "x", ["+"]])
def test_check_cert_rejects_maps_that_are_no_json_object(tmp_path, capsys, maps):
    # each once died with an AttributeError traceback, exit 1
    cert = tmp_path / "cert.json"
    assert run(["certify", "--lam", "3/4", "--out", str(cert)]) == 0
    payload = json.loads(cert.read_text())
    payload["system"]["maps"] = maps
    cert.write_text(json.dumps(payload))
    assert run(["check-cert", "--cert", str(cert)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "system.maps" in err


@pytest.mark.parametrize("base", ["99999999999999999999/3", "1000000000000000000000000000000"])
def test_realize_refuses_a_box_base_that_breaks_the_box_inequality(tmp_path, capsys, base):
    # build_system once raised ConstructionError on it: a crash, exit 1
    sys_path = tmp_path / "sys.json"
    assert run(["jet-system", "--order", "1", "--out", str(sys_path)]) == 0
    payload = json.loads(sys_path.read_text())
    payload["box_base"] = base
    sys_path.write_text(json.dumps(payload))
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"order": 1, "dim": 1, "coeffs": ["1/4", "-1"]}))
    out = tmp_path / "real.json"
    _expect_input_error(
        capsys,
        ["realize", "--system", str(sys_path), "--target", str(target), "--out", str(out)],
        out,
    )


def test_realize_refuses_a_polynomial_without_the_root(tmp_path, capsys):
    # p_coeffs[0] scaled by 99/100 keeps the L1 tail below 2 but moves P's
    # root off 1/lam; the semi-conjugacy's last column calls it an input error
    sys_path = tmp_path / "sys.json"
    assert run(["jet-system", "--order", "1", "--out", str(sys_path)]) == 0
    payload = json.loads(sys_path.read_text())
    payload["p_coeffs"][0] = str(F(payload["p_coeffs"][0]) * F(99, 100))
    sys_path.write_text(json.dumps(payload))
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"order": 1, "dim": 1, "coeffs": ["1/4", "-1"]}))
    out = tmp_path / "real.json"
    assert run(["realize", "--system", str(sys_path), "--target", str(target),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no root of order 2 at 1/lam" in err
    assert not out.exists()


# --- the command-line surface ------------------------------------------------

# each command with no options, and the line it prints on stderr
MISSING_OPTIONS = {
    "limit-set": "--lam, --depth, --out",
    "certify": "--lam, --out",
    "check-cert": "--cert",
    "two-map-verdict": "--lam1, --offset1, --lam2, --offset2",
    "flat-poly": "--flatness, --out",
    "jet-system": "--order, --out",
    "realize": "--system, --target, --out",
    "blender-render": "--lam, --depth, --out",
    "blender-cover": "--lam, --out",
    "nearly-affine": "--lam, --table-plus, --table-minus, --grid-step, --out",
}
COMMAND_HELP = {
    "limit-set": "export a depth-k limit set cloud as CSV",
    "certify": "covering certificate for the standard pair",
    "check-cert": "re-verify a covering certificate",
    "two-map-verdict": "two-map line trichotomy",
    "flat-poly": "L1-minimal flat polynomial via integer exchange",
    "jet-system": "build the covered jet-space system",
    "realize": "realize a target jet as a continuation jet",
    "blender-render": "raster of unstable segments",
    "blender-cover": "exact covering check for the example",
    "nearly-affine": "grid distance to the affine models",
}


@pytest.mark.parametrize("command", sorted(MISSING_OPTIONS))
def test_command_without_options_names_what_is_missing(capsys, command):
    assert run([command]) == 2
    assert capsys.readouterr().err == (
        f"error: missing required option(s): {MISSING_OPTIONS[command]}\n"
    )


def test_help_lists_every_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exit_:
        run(["--help"])
    assert exit_.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for command, text in COMMAND_HELP.items():
        assert any(line.split() == [command] + text.split() for line in lines)


@pytest.mark.parametrize("command", sorted(MISSING_OPTIONS))
def test_command_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        run([command, "--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: jetcover {command} ")
    for flag in MISSING_OPTIONS[command].split(", "):
        assert flag in out


def test_config_does_not_leak_into_the_next_call(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"margin": "1/50"}))
    cert = tmp_path / "cert.json"
    assert run(
        ["--config", str(config), "certify", "--lam", "3/4", "--out", str(cert)]
    ) == 0
    assert json.loads(cert.read_text())["margin"] == "1/50"
    assert run(["certify", "--lam", "3/4", "--out", str(cert)]) == 0
    assert json.loads(cert.read_text())["margin"] == "1/100"


def test_config_key_of_another_command_is_ignored(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"order": 9}))
    plain, configured = tmp_path / "plain.json", tmp_path / "configured.json"
    assert run(["certify", "--lam", "3/4", "--out", str(plain)]) == 0
    assert run(
        ["--config", str(config), "certify", "--lam", "3/4", "--out", str(configured)]
    ) == 0
    assert configured.read_bytes() == plain.read_bytes()


def test_a_call_builds_only_its_own_commands_parser(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"margin": "1/50"}))
    out = tmp_path / "cert.json"
    assert run(
        ["--config", str(config), "certify", "--lam", "3/4", "--out", str(out)]
    ) == 0
    assert len(built) <= 2


def test_parsers_are_built_once_per_process(tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"margin": "1/50"}))
    out = tmp_path / "cert.json"
    plain = ["certify", "--lam", "3/4", "--out", str(out)]
    assert run(plain) == 0  # builds what no earlier call built
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: built.append(self) or init(self, *args, **kwargs))
    assert run(["--config", str(config)] + plain) == 0
    assert json.loads(out.read_text())["margin"] == "1/50"
    assert run(plain) == 0
    assert json.loads(out.read_text())["margin"] == "1/100"
    assert built == []


@pytest.mark.parametrize("jet_dim", [2.7, "2", True])
def test_realize_rejects_a_jet_dim_that_is_not_an_integer(tmp_path, capsys, jet_dim):
    # int(...) once read 2.7 and "2" as order 1, and realize exited 0
    sys_path = tmp_path / "sys.json"
    assert run(["jet-system", "--order", "1", "--out", str(sys_path)]) == 0
    payload = json.loads(sys_path.read_text())
    payload["jet_dim"] = jet_dim
    sys_path.write_text(json.dumps(payload))
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"order": 1, "dim": 1, "coeffs": ["1/4", "-1"]}))
    out = tmp_path / "real.json"
    assert run(
        ["realize", "--system", str(sys_path), "--target", str(target), "--out", str(out)]
    ) == 2
    assert "is not a JSON integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config", [
    (["certify", "--lam", "3/4"], {"max-depth": True}),
    (["certify", "--lam", "3/4"], {"max_depth": 2.0}),
    (["certify", "--lam", "3/4"], {"margin": 1}),
    (["limit-set", "--lam", "3/4"], {"depth": 2.5}),
    (["limit-set", "--lam", "3/4"], {"depth": None}),
])
def test_config_value_of_the_wrong_json_type_exits_2(tmp_path, capsys, command, config):
    # a non-string config value once bypassed the option's type: "depth": true
    # reached the certificate, and 2.5 failed only as a Python TypeError
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run(["--config", str(path)] + command + ["--out", str(out)]) == 2
    key = next(iter(config)).replace("_", "-")
    assert f"config key '{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("depth", [3, "3"])
def test_config_int_option_takes_an_integer_or_its_string(tmp_path, depth):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max-depth": depth}))
    cert = tmp_path / "cert.json"
    assert run(
        ["--config", str(config), "certify", "--lam", "3/4", "--out", str(cert)]
    ) == 0
    assert json.loads(cert.read_text())["depth"] == 3


def test_config_string_is_parsed_by_the_options_type(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"depth": "two"}))
    with pytest.raises(SystemExit) as exc:
        run(["--config", str(config), "limit-set", "--lam", "3/4",
             "--out", str(tmp_path / "cloud.csv")])
    assert exc.value.code == 2


def test_realize_writes_an_order_3_realization(tmp_path):
    # its residuals run past Python's 4300-digit limit for int <-> str, which
    # once made the run exit 2 as if the input were malformed
    sys_path, target, out = (tmp_path / name for name in ("sys.json", "t.json", "r.json"))
    assert run(["jet-system", "--order", "3", "--out", str(sys_path)]) == 0
    coeffs = [F(1, 4), F(-1), F(0), F(0)]
    target.write_text(json.dumps({"order": 3, "dim": 1, "coeffs": ["1/4", "-1", "0", "0"]}))
    assert run(["realize", "--system", str(sys_path), "--target", str(target),
                "--tol", "1/100", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    system = serialize.jet_system_from_payload(json.loads(sys_path.read_text()))
    diff = Jet.scalar(coeffs) - jetcovering.word_jet(system.lam, payload["itinerary"], 3)
    achieved = max(abs(row[0]) for row in diff.coeffs)
    assert len(payload["achieved_residual"]) > 4300
    assert rat(payload["achieved_residual"]) == achieved
    k, precision, bound = jetcovering.realization_plan(system, F(1, 100))
    assert payload["steps"] == k and precision >= jetcovering.PRECISION_FLOOR
    assert rat(payload["residual_bound"]) == bound == jetcovering.residual_bound(
        system, k) + rounding_term(system, precision)
    assert achieved <= rat(payload["residual_bound"]) <= F(1, 100)


@pytest.mark.parametrize("option, value", [
    ("--lam1", "1_0/2_0"), ("--offset1", "٣"), ("--offset1", " 3"), ("--offset1", "+3"),
])
def test_two_map_verdict_reads_only_ascii_p_over_q(capsys, option, value):
    args = {"--lam1": "1/2", "--offset1": "3", "--lam2": "3/4", "--offset2": "-1"}
    args[option] = value
    _expect_input_error(capsys, ["two-map-verdict"] + [e for kv in args.items() for e in kv])


def test_a_stray_type_error_from_a_handler_propagates(monkeypatch):
    # only the package's own errors and OSError are input errors (exit 2)
    def broken(*args):
        raise TypeError("a defect, not an input error")

    monkeypatch.setattr("jetcover.cli.decide_two_map_line", broken)
    with pytest.raises(TypeError, match="a defect"):
        run(["two-map-verdict", "--lam1", "1/2", "--offset1", "3",
             "--lam2", "3/4", "--offset2", "-1"])


@pytest.mark.parametrize("text", [
    b"{", b"\xff\xfe{}", b'{"a": ' + b"1" * 5000 + b"}", b"[" * 100_000,
], ids=["truncated", "not-utf8", "int-past-the-digit-limit", "nested-past-the-recursion-limit"])
@pytest.mark.parametrize("role", ["system", "target", "cert", "config"])
def test_a_file_input_that_is_no_json_is_an_input_error(tmp_path, capsys, text, role):
    paths = {name: tmp_path / f"{name}.json" for name in ("system", "target", "cert", "config")}
    assert run(["jet-system", "--order", "1", "--out", str(paths["system"])]) == 0
    paths["target"].write_text(json.dumps({"order": 1, "dim": 1, "coeffs": ["1/4", "-1"]}))
    assert run(["certify", "--lam", "3/4", "--out", str(paths["cert"])]) == 0
    paths["config"].write_text("{}")
    paths[role].write_bytes(text)
    out = tmp_path / "out.json"
    realize = ["realize", "--system", str(paths["system"]), "--target", str(paths["target"]),
               "--tol", "1/100", "--out", str(out)]
    args = {
        "system": realize,
        "target": realize,
        "cert": ["check-cert", "--cert", str(paths["cert"])],
        "config": ["--config", str(paths["config"])] + realize,
    }[role]
    _expect_input_error(capsys, args, out)
