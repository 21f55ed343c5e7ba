"""A fuzzer over every file the CLI reads: the jet-system and target files
of `realize`, the certificate of `check-cert` and the `--config` file.

Each example edits one place of a valid document: it swaps a value for a
hostile one (of any JSON type, or a huge or malformed number), drops a key
or an element, adds one, or damages the JSON text itself.  Every run must end
with exit 0, 1 or 2 and no traceback, and write nothing on exit 2.  Exit 0
is checked against an oracle per file:
- system: the output is the unedited run's bytes, as the reader rebuilds the
  system from its four defining fields and compares the rest; an edit of a
  field it never reads must give exit 0 (if Python's JSON reader takes the
  text);
- target: the realization passes the lifted-map check;
- certificate: the verdict (exit 0 or 1) is the reference checker's;
- config: the run equals the same command with the values passed as flags
  (on exit 1 too).
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jetcover.cli import main
from jetcover.jets import Jet, continuation_jet, standard_families
from jetcover.serialize import canonical_json, covering_outcome_payload
from covering_reference import (  # local oracle module
    planar_certificate,
    reference_check_certificate,
    reference_load_certificate,
)
from rational_reference import reference_rat  # local oracle module

RAW = "@raw@"  # a string value that stands for a raw JSON number token
HUGE_DIGITS = "9" * 5000  # past the 4,300-digit limit of int <-> str
HOSTILE = (
    None, True, False, 0, -1, 2.5, 10 ** 30, float("inf"), float("nan"),
    "", "x", "1/0", "-", "0x10", "1e400", " 3", "3/", "+3", HUGE_DIGITS,
    "1/" + HUGE_DIGITS, "-" + HUGE_DIGITS + "/7", RAW + HUGE_DIGITS, RAW + "1e400",
    RAW + "-" + HUGE_DIGITS, [], {}, ["1/2"], {"p": "1/2"}, [[]],
)
INFORMATIONAL = {"delta_covering", "flat_poly", "lambda_threshold", "order", "built",
                 "semiconjugacy_exact"}  # system fields the reader never reads
TARGET = {"order": 1, "dim": 1, "coeffs": ["1/4", "-1"]}
TOL = "1/10000"
FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def paths(doc, prefix=()):
    """Every place in a JSON document, the root first."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from paths(value, prefix + (key,))


def encode(doc) -> str:
    """JSON text of `doc`, with each RAW-marked string written as the raw
    token after the mark (json.dumps cannot write an int past the digit limit)."""
    text = json.dumps(doc)
    for value in HOSTILE:
        if isinstance(value, str) and value.startswith(RAW):
            text = text.replace(json.dumps(value), value[len(RAW):])
    return text


@st.composite
def edits(draw, doc):
    """(text, path): the JSON text of `doc` with one edit, and the path of the
    place it touched (None for damage to the text itself)."""
    kind = draw(st.sampled_from(["swap", "drop", "add", "text"]))
    if kind == "text":
        text = json.dumps(doc)
        cut = draw(st.integers(0, len(text) - 1))
        tail = draw(st.sampled_from(["", "}", "]", ",", "\x00", "\udcff", HUGE_DIGITS]))
        return text[:cut] + tail, None
    path = draw(st.sampled_from([p for p in paths(doc) if p or kind != "drop"]))
    doc = json.loads(json.dumps(doc))  # a deep copy
    *head, last = path or (None,)
    parent = doc
    for key in head:
        parent = parent[key]
    place = parent[last] if path else doc
    value = draw(st.sampled_from(HOSTILE))
    if kind == "swap" and not path:
        doc = value
    elif kind == "swap":
        parent[last] = value
    elif kind == "drop":
        del parent[last]
    elif isinstance(place, dict):
        place[draw(st.sampled_from(["extra", "p", ""]))] = value
    elif isinstance(place, list):
        place.append(draw(st.sampled_from([value, *place])))
    else:  # a scalar: add a key or an element beside it
        if isinstance(parent, dict):
            parent["extra"] = value
        else:
            parent.append(value)
        return encode(doc), path[:-1]
    return encode(doc), path


def parses(text) -> bool:
    """Whether Python's JSON reader takes the text (it refuses an int past
    the digit limit, wherever it stands)."""
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


def run(args) -> int:
    """main's exit code, checked to be 0, 1 or 2 with no traceback written;
    argparse's own refusals end in SystemExit."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
    return code


def run_in(tmp: Path, args):
    """(exit code, output path) of a run that writes to `tmp`; nothing is
    written on exit 2."""
    out = tmp / "out"
    code = run(args + ["--out", str(out)])
    assert code != 2 or not out.exists()
    return code, out


@pytest.fixture(scope="module")
def realize_inputs(tmp_path_factory):
    """The order-1 system and target documents and the unedited run's bytes."""
    tmp = tmp_path_factory.mktemp("realize")
    system, target, out = tmp / "sys.json", tmp / "target.json", tmp / "real.json"
    assert main(["jet-system", "--order", "1", "--out", str(system)]) == 0
    target.write_text(json.dumps(TARGET))
    assert main(["realize", "--system", str(system), "--target", str(target), "--tol", TOL,
                 "--out", str(out)]) == 0
    return json.loads(system.read_text()), out.read_bytes()


@FUZZ
@given(st.data())
def test_an_edited_system_file(realize_inputs, data):
    system, expected = realize_inputs
    text, path = data.draw(edits(system))
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        (tmp / "sys.json").write_text(text, errors="surrogateescape")
        (tmp / "target.json").write_text(json.dumps(TARGET))
        code, out = run_in(tmp, ["realize", "--system", str(tmp / "sys.json"), "--target",
                                 str(tmp / "target.json"), "--tol", TOL])
        informational = bool(path) and path[0] in INFORMATIONAL
        assert code == 0 or not (informational and parses(text))
        assert code != 0 or out.read_bytes() == expected


@FUZZ
@given(st.data())
def test_an_edited_target_file(realize_inputs, data):
    system, _ = realize_inputs
    text, _ = data.draw(edits(TARGET))
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        (tmp / "sys.json").write_text(json.dumps(system))
        (tmp / "target.json").write_text(text, errors="surrogateescape")
        code, out = run_in(tmp, ["realize", "--system", str(tmp / "sys.json"), "--target",
                                 str(tmp / "target.json"), "--tol", TOL])
        if code == 0:  # the lifted-map check, on the target as the file states it:
            # the coefficients give the order, each a p/q string or a JSON
            # integer, alone or in a list of one
            result, rows = json.loads(out.read_text()), json.loads(text)["coeffs"]
            entries = [row[0] if type(row) is list else row for row in rows]
            coeffs = [F(e) if type(e) is int else reference_rat(e) for e in entries]
            order, lam = len(coeffs) - 1, F(system["lam"])
            word = continuation_jet(standard_families(lam, order), result["itinerary"], order)
            diff = Jet.scalar(coeffs) - word
            achieved = max(abs(e) for e in diff.flat())
            assert achieved == reference_rat(result["achieved_residual"])
            assert achieved <= reference_rat(result["residual_bound"]) <= F(TOL)


@pytest.fixture(scope="module")
def certificates(tmp_path_factory):
    """A one-dimensional certificate from `certify` and a planar one of 131 leaves."""
    path = tmp_path_factory.mktemp("cert") / "cert.json"
    assert main(["certify", "--lam", "3/4", "--out", str(path)]) == 0
    planar = canonical_json(covering_outcome_payload(planar_certificate(F(37, 64), F(13, 8), 64)))
    return [json.loads(path.read_text()), json.loads(planar)]


@FUZZ
@given(st.data())
def test_an_edited_certificate(certificates, data):
    text, _ = data.draw(edits(data.draw(st.sampled_from(certificates))))
    with tempfile.TemporaryDirectory() as name:
        cert = Path(name) / "cert.json"
        cert.write_text(text, errors="surrogateescape")
        code = run(["check-cert", "--cert", str(cert)])
        if code != 2:
            assert (code == 0) == reference_check_certificate(
                reference_load_certificate(json.loads(text)))


CONFIGS = {
    "certify": {"lam": "3/4", "lo": "-2", "hi": "2", "margin": "1/100", "max-depth": 40},
    "two-map-verdict": {"lam1": "1/2", "offset1": "3", "lam2": "3/4", "offset2": "-1"},
}
OPTIONS = {"certify": {"lam", "lo", "hi", "margin", "max-depth", "out"},
           "two-map-verdict": {"lam1", "offset1", "lam2", "offset2", "out"}}


@FUZZ
@given(st.sampled_from(sorted(CONFIGS)), st.data())
def test_an_edited_config_file(command, data):
    text, _ = data.draw(edits(CONFIGS[command]))
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        (tmp / "config.json").write_text(text, errors="surrogateescape")
        code, out = run_in(tmp, ["--config", str(tmp / "config.json"), command])
        if code != 2:  # the config held an object of strings and integers
            flags = [f"--{key.replace('_', '-')}={value}"
                     for key, value in json.loads(text).items()
                     if key.replace("_", "-") in OPTIONS[command]]
            (tmp / "flagged").mkdir()
            again, flagged = run_in(tmp / "flagged", [command] + flags)
            assert again == code and flagged.read_bytes() == out.read_bytes()
