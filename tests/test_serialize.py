import ast
import dataclasses
import hashlib
import json
import os
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetcover.covering import certify_covering, check_certificate
from jetcover.boxes import Box, Interval
from jetcover import serialize
from jetcover.errors import (
    CertificateFormatError,
    DegenerateInputError,
    ResourceLimitError,
)
from jetcover.cli import main
from jetcover.ifs import standard_pair
from jetcover.jetcovering import certify_delta_covering
from jetcover.jets import Jet, standard_families
from jetcover.serialize import (
    canonical_json,
    covering_outcome_payload,
    encode_ppm,
    jet_from_payload,
    jet_system_from_payload,
    jet_system_payload,
    load_certificate,
    write_atomic,
)
from covering_reference import planar_system, reference_load_certificate  # local oracle
from jets_reference import approximate_jet_payload, finite_difference_jet  # local oracle

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_jet_payload_round_trip_dim1():
    jet = Jet.scalar([F(1, 3), F(-2), F(0)])
    payload = {"order": 2, "dim": 1, "coeffs": ["1/3", "-2", "0"]}
    assert jet_from_payload(json.loads(json.dumps(payload))) == jet


def test_jet_payload_round_trip_dim2():
    jet = Jet([[F(1), F(2)], [F(0), F(-1, 2)]])
    payload = {"order": 1, "dim": 2, "coeffs": [["1", "2"], ["0", "-1/2"]]}
    assert jet_from_payload(json.loads(json.dumps(payload))) == jet


def test_jet_payload_malformed():
    with pytest.raises(CertificateFormatError):
        jet_from_payload({"coeffs": ["1", "x/y"]})
    with pytest.raises(CertificateFormatError):
        jet_from_payload({})


@pytest.mark.parametrize(
    "stated", [{"order": 3}, {"dim": 2}, {"order": 3, "dim": 1}, {"order": "1"}]
)
def test_jet_payload_stated_shape_must_match(stated):
    payload = {"coeffs": ["1/4", "-1"], **stated}
    with pytest.raises(CertificateFormatError):
        jet_from_payload(payload)


def _without(key):
    return lambda p: {k: v for k, v in p.items() if k != key}


# edits of a valid target (t) or order-1 system (s) file, each refused with
# a message that names the field, not Python's exception text
MALFORMED_FILES = {
    "target without coeffs": ("t", _without("coeffs"), "coeffs is missing"),
    "target list at the top level": ("t", lambda p: [p], "the jet is not a JSON object"),
    "target entry a float": ("t", lambda p: {**p, "coeffs": ["1/4", 1.5]},
                             "coeffs[1]: cannot coerce float"),
    "target row entry no rational": ("t", lambda p: {**p, "coeffs": [["1/4"], ["x"]]},
                                     "coeffs[1][0]: not an ASCII p/q"),
    "target rows ragged": ("t", lambda p: {**p, "coeffs": [["1/4", "0"], ["-1"]]},
                           "coeffs: ragged jet coefficients"),
    "target row empty": ("t", lambda p: {**p, "coeffs": [[]]},
                         "coeffs: a jet needs at least one component"),
    "target coeffs empty": ("t", lambda p: {**p, "coeffs": []},
                            "coeffs: a jet needs at least the order-0 entry"),
    "system without lam": ("s", _without("lam"), "lam is missing"),
    "system lam a float": ("s", lambda p: {**p, "lam": 0.75}, "lam: cannot coerce float"),
    "system without box_base": ("s", _without("box_base"), "box_base is missing"),
    "system jet_dim a bool": ("s", lambda p: {**p, "jet_dim": True},
                              "jet_dim is not a JSON integer"),
    "system p_coeffs entry a list": ("s", lambda p: {**p, "p_coeffs": [["1"]] + p["p_coeffs"][1:]},
                                     "p_coeffs[0]: cannot coerce list"),
    "system without branch_matrix": ("s", _without("branch_matrix"), "branch_matrix is missing"),
    "system projection a string": ("s", lambda p: {**p, "projection": "0"},
                                   "projection is not a JSON list"),
    "system pullback_box entry no rational": (
        "s", lambda p: {**p, "pullback_box": [["-x", "x"]] + p["pullback_box"][1:]},
        "pullback_box: not an ASCII p/q"),
    "system without its root": ("s", lambda p: {**p, "jet_dim": 3},
                                "the jet system: polynomial has no root of order 3 at 1/lam"),
    "system base not above 1": ("s", lambda p: {**p, "box_base": "1"},
                                "the jet system: box base must exceed 1"),
    "system list at the top level": ("s", lambda p: [p], "the jet system is not a JSON object"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
def test_jet_and_system_readers_name_the_field(jet_sys_r1, tmp_path, capsys, name):
    which, edit, message = MALFORMED_FILES[name]
    system = json.loads(canonical_json(
        jet_system_payload(jet_sys_r1, certify_delta_covering(jet_sys_r1))))
    target = {"order": 1, "dim": 1, "coeffs": ["1/4", "-1"]}
    reader, payload = {"t": (jet_from_payload, target), "s": (jet_system_from_payload, system)}[which]
    with pytest.raises(CertificateFormatError) as refused:
        reader(edit(payload))
    assert message in str(refused.value)
    # through the CLI: exit 2, the one message line, and nothing written
    files = {"s": tmp_path / "sys.json", "t": tmp_path / "target.json"}
    for key, value in (("s", system), ("t", target)):
        files[key].write_text(json.dumps(edit(value) if key == which else value))
    out = tmp_path / "real.json"
    capsys.readouterr()
    assert main(["realize", "--system", str(files["s"]), "--target", str(files["t"]),
                 "--tol", "1/100", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {refused.value}\n" and not out.exists()


def test_approximate_payload_flag():
    fams = standard_families(F(3, 4), 1)
    values = finite_difference_jet(fams, ("+", "+"), 1, 1e-4)
    payload = approximate_jet_payload(values)
    assert payload["approximate"] is True
    assert all(isinstance(v, float) for v in payload["coeffs"])


def test_canonical_json_sorted_and_stable():
    a = canonical_json({"b": 1, "a": [2, 3]})
    b = canonical_json({"a": [2, 3], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')
    assert a.endswith("\n")


def json_dumps(payload) -> str:
    """The oracle of `canonical_json`: the standard library's encoder."""
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


# strings with quotes, backslashes, control characters, non-ASCII and
# astral characters and a lone surrogate, which the ASCII encoder escapes
json_strings = st.text(
    st.sampled_from('a"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600') | st.characters()
)
json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2 ** 200), 2 ** 200) | json_strings,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(json_strings, inner, max_size=4)
    ),
    max_leaves=24,
)


@settings(max_examples=300)
@given(json_trees)
@example('a bare "string" \u00e9')  # a string at the top, outside any container
def test_canonical_json_is_the_standard_encoder(payload):
    assert canonical_json(payload) == json_dumps(payload)


# the two point-to-pixel rules that `pixels` replaced, kept as its oracles:
# limit-set's columns over [-r, r] and blender-render's rows of heights over [-2, 2]
def scatter_columns(xs, radius, width):
    span = 2 * radius
    return {min(int((x + radius) * width // span), width - 1) for x in xs if abs(x) <= radius}


def height_rows(ys, height):
    return {min(int((2 - y) * height // 4), height - 1) for y in ys if -2 <= y <= 2}


pixel_values = st.lists(st.fractions(-3, 3, max_denominator=64), max_size=20)


@settings(max_examples=300)
@given(st.fractions(F(1, 64), 3, max_denominator=64), pixel_values, st.integers(1, 64))
def test_pixels_is_the_rule_of_the_limit_set_columns(radius, xs, width):
    xs = xs + [-radius, radius]  # the endpoints lo and hi among the values
    assert serialize.pixels(xs, -radius, radius, width) == scatter_columns(xs, radius, width)


@settings(max_examples=300)
@given(pixel_values, st.integers(1, 64))
def test_pixels_is_the_rule_of_the_unstable_rows(ys, height):
    ys = ys + [F(-2), F(2)]  # the endpoints among the heights
    assert serialize.pixels([-y for y in ys], -2, 2, height) == height_rows(ys, height)


def test_canonical_json_is_the_standard_encoder_on_every_pinned_payload(monkeypatch, tmp_path):
    from test_cli import pinned_commands, run  # local test module

    payloads = []

    def recorded(payload):
        payloads.append(payload)
        return canonical_json(payload)

    monkeypatch.setattr(serialize, "canonical_json", recorded)
    commands = pinned_commands(tmp_path)
    for name, args in commands.items():
        run(args + ["--out", str(tmp_path / f"{name}.json")])
    assert len(payloads) == len(commands)  # one document per command
    for payload in payloads:
        assert canonical_json(payload) == json_dumps(payload)


@pytest.mark.parametrize(
    "payload", [1.5, {"a": [0.0]}, {1: "a"}, {"a": 1, 2: "b"}, {None: 1}, {"a"}, [frozenset()]]
)
def test_canonical_json_refuses_other_types(payload):
    with pytest.raises(TypeError):
        canonical_json(payload)


def test_the_standard_encoder_is_no_fallback_of_the_emitter():
    # `json.dumps` is the tests' oracle only
    tree = ast.parse(Path(serialize.__file__).read_text())
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
              for alias in node.names}
    assert "json" not in names and "dumps" not in names


def test_jet_system_payload_round_trip(jet_sys_r1):
    payload = jet_system_payload(jet_sys_r1, certify_delta_covering(jet_sys_r1))
    rebuilt = jet_system_from_payload(json.loads(canonical_json(payload)))
    assert rebuilt == jet_sys_r1


def test_write_atomic(tmp_path):
    target = tmp_path / "out.json"
    write_atomic(str(target), canonical_json({"x": 1}))
    assert json.loads(target.read_text()) == {"x": 1}
    write_atomic(str(target), b"P6\n1 1\n255\n\x00\x00\x00")
    assert target.read_bytes().startswith(b"P6")
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".jetcover-")]
    assert not leftovers


def test_write_atomic_leaves_nothing_when_the_write_fails(tmp_path):
    # an int is neither text nor bytes: the temp file goes, and no output
    # is left at the path
    target = tmp_path / "out.json"
    with pytest.raises(TypeError):
        write_atomic(str(target), 123)
    assert os.listdir(tmp_path) == []


def test_certificate_schema_fields(sys34):
    cert = certify_covering(sys34, Box([Interval(-2, 2)]), F(1, 100))
    payload = covering_outcome_payload(cert)
    assert set(payload) == {"system", "box", "margin", "depth", "leaves", "verified"}
    assert payload["margin"] == "1/100"
    assert all(set(leaf) == {"box", "witness"} for leaf in payload["leaves"])


def test_encode_ppm_pixels_and_bounds(monkeypatch):
    img = encode_ppm(3, 2, {1}, {0, 2})
    assert img == b"P6\n3 2\n255\n" + b"\xff" * 9 + b"\x00" * 3 + b"\xff" * 3 + b"\x00" * 3
    monkeypatch.setattr(serialize, "RASTER_PIXEL_CAP", 12)
    assert len(encode_ppm(4, 3, (), ())) == len(b"P6\n4 3\n255\n") + 36
    with pytest.raises(ResourceLimitError):
        encode_ppm(13, 1, (), ())
    for width, height in ((0, 1), (1, 0), (-4, 64)):
        with pytest.raises(DegenerateInputError):
            encode_ppm(width, height, (), ())


def test_load_certificate_counts_leaves_before_parsing_a_box(monkeypatch, sys34):
    payload = covering_outcome_payload(
        certify_covering(sys34, Box([Interval(-2, 2)]), F(1, 100))
    )
    monkeypatch.setattr(serialize, "COVER_LEAF_CAP", 2)
    assert len(load_certificate(payload).leaves) == 2
    payload["leaves"].append({"box": "not a box", "witness": "+"})
    with pytest.raises(ResourceLimitError, match="more than 2 leaves"):
        load_certificate(payload)


def benchmark_certificate_payloads():
    """The wire payloads of the benchmark's 58 planar certificates, whose
    parameters are read from the benchmark's source, not imported."""
    (params,) = [
        ast.literal_eval(node.value) for node in ast.parse(WORKLOADS.read_text()).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "COVER_PARAMS"
    ]
    assert len(params) == 58
    for lam, margin, h in params:
        target = Box.of((-2, F(h)), (-2, F(h)))
        cert = certify_covering(planar_system(F(lam)), target, F(margin))
        yield cert, json.loads(canonical_json(covering_outcome_payload(cert)))


def test_loader_reads_each_benchmark_certificate_as_the_old_loader_did():
    for cert, payload in benchmark_certificate_payloads():
        loaded = load_certificate(payload)
        assert loaded == reference_load_certificate(payload) == cert
        assert check_certificate(loaded)


def test_loader_parses_each_endpoint_string_once(monkeypatch):
    cert, payload = next(benchmark_certificate_payloads())
    parsed = Counter()
    ratio = serialize.ratio

    def counted(value):
        parsed[value] += 1
        return ratio(value)

    monkeypatch.setattr(serialize, "ratio", counted)
    loaded = load_certificate(payload)
    sides = [side for leaf in payload["leaves"] for side in leaf["box"]] + payload["box"]
    assert {parsed[e] for side in sides for e in side} == {1}
    # one Interval per distinct [lo, hi] pair, shared by the boxes naming it
    shared = {id(iv) for leaf, _ in loaded.leaves + ((loaded.target, ""),) for iv in leaf}
    assert len(shared) == len({tuple(side) for side in sides}) < len(sides)


def test_checking_a_loaded_certificate_builds_no_box_per_leaf(monkeypatch):
    # the loader holds the leaves as grid cells and the checker reads those;
    # only the target and its shrunk copy are boxes until the leaves are read
    cert, payload = next(benchmark_certificate_payloads())
    made = tuple(cert.leaves)  # the certifier's leaves, as boxes, before counting
    built = Counter()
    box_init, interval_init = Box.__init__, Interval.__post_init__

    def counted_box(self, intervals):
        built[Box] += 1
        box_init(self, intervals)

    def counted_interval(self):
        built[Interval] += 1
        interval_init(self)

    monkeypatch.setattr(Box, "__init__", counted_box)
    monkeypatch.setattr(Interval, "__post_init__", counted_interval)
    loaded = load_certificate(payload)
    assert check_certificate(loaded)
    assert built == {Box: 2, Interval: 2 * loaded.target.dim} and len(loaded.leaves) == 559
    assert loaded.leaves[0] == made[0]  # reading them builds every leaf once
    assert built[Box] == 2 + len(loaded.leaves)
    assert loaded.leaves == reference_load_certificate(payload).leaves == made


def test_benchmark_certificate_bytes_are_pinned():
    digest = hashlib.sha256()
    for cert, _ in benchmark_certificate_payloads():
        digest.update(canonical_json(covering_outcome_payload(cert)).encode())
    assert digest.hexdigest() == (
        "8e4781961fc580c771a3ad8ca806e94c2b2558c7282c23c3dbbcd66e1cb3e155"
    )


def test_writing_a_certificate_builds_no_box_per_leaf(monkeypatch):
    # the certifier hands its leaves on as integer sides, and the writer
    # renders those: only the target's shrunk copy is a new box
    built = Counter()
    box_init, interval_init = Box.__init__, Interval.__post_init__

    def counted_box(self, intervals):
        built[Box] += 1
        box_init(self, intervals)

    def counted_interval(self):
        built[Interval] += 1
        interval_init(self)

    target = Box.of((-2, F(13, 8)), (-2, F(13, 8)))
    monkeypatch.setattr(Box, "__init__", counted_box)
    monkeypatch.setattr(Interval, "__post_init__", counted_interval)
    cert = certify_covering(planar_system(F(71, 128)), target, F(1, 200))
    text = canonical_json(covering_outcome_payload(cert))
    assert len(cert.leaves) == 559 and cert.depth_used == 14
    assert built == {Box: 1, Interval: 2}
    monkeypatch.undo()
    # leaves given as (Box, witness) pairs are written to the same bytes
    as_tuple = dataclasses.replace(cert, leaves=tuple(cert.leaves))
    assert type(as_tuple.leaves) is tuple
    assert canonical_json(covering_outcome_payload(as_tuple)) == text


def test_leaf_of_another_dimension_is_a_format_error(sys34):
    payload = covering_outcome_payload(
        certify_covering(sys34, Box([Interval(-2, 2)]), F(1, 100))
    )
    payload["leaves"][1]["box"].append(["0", "1"])
    with pytest.raises(CertificateFormatError, match=r"leaves\[1\]\.box has 2 sides"):
        load_certificate(payload)


@pytest.mark.parametrize(
    "field, path",
    [
        ("branch_matrix", (0, 0)),
        ("branch_matrix", (0, 1)),
        ("branch_offset", (1,)),
        ("projection", (0, 0)),
        ("projection", (1, 2)),
        ("pullback_box", (2, 1)),
        ("branch_matrix", (1, 0)),
        ("branch_matrix", (1, 1)),
        ("branch_offset", (0,)),
    ],
)
def test_jet_system_file_states_no_unchecked_field(jet_sys_r1, field, path):
    payload = json.loads(canonical_json(
        jet_system_payload(jet_sys_r1, certify_delta_covering(jet_sys_r1))))
    *outer, last = path
    entries = payload[field]
    for i in outer:
        entries = entries[i]
    value = F(entries[last])
    # the same value in another spelling is the same system: 3p/3q, a JSON
    # integer for an integral entry, and "-0" for a zero one
    spellings = [f"{value.numerator * 3}/{value.denominator * 3}"]
    spellings += [int(value)] * (value.denominator == 1) + ["-0"] * (value == 0)
    for spelling in spellings:
        entries[last] = spelling
        assert jet_system_from_payload(payload) == jet_sys_r1
    # another value, however close, is refused with the field's name
    for changed in (f"{value.numerator * 3 + 1}/{value.denominator * 3}", "12345"):
        entries[last] = changed
        with pytest.raises(CertificateFormatError, match=field):
            jet_system_from_payload(payload)
    del payload[field]
    with pytest.raises(CertificateFormatError):
        jet_system_from_payload(payload)
