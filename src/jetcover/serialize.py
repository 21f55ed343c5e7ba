"""Canonical JSON and CSV wire formats and atomic file output.

Home of the JSON encoders and parsers, covering certificates included,
of the CSV tables (limit-set clouds are written, branch sample tables
read into `BranchSample` rows) and of the PPM raster encoder; the CLI adds only small verdict
dicts.  Each reader checks a field's JSON type before use, and names a
missing or mistyped field by its path in a CertificateFormatError.
Documents are emitted with sorted keys, two-space indent, ASCII escapes,
and a trailing newline, so identical inputs give byte-identical files.
Rationals travel as "p/q" strings, intervals as [lo, hi] pairs.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import itemgetter
from typing import Container, List, Sequence, Tuple

from .boxes import Box, Interval
from .covering import Certificate, CoveringFailure, Leaves
from .errors import CertificateFormatError, DegenerateInputError, ResourceLimitError
from .flatpoly import FlatPolyResult
from .ifs import COVER_LEAF_CAP, RASTER_PIXEL_CAP, AffineMap, IFSystem, Word
from .jetcovering import (
    DeltaCoveringCertificate,
    JetCoveringSystem,
    RealizationResult,
    build_system,
)
from .jets import Jet
from .linalg import Vec
from .rational import rat, rat_str, ratio, ratio_str


def canonical_json(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\\n"``
    for dicts with str keys, lists, tuples, str, int, bool and None; any other
    type is a TypeError.  Strings go through the C `encode_basestring_ascii`,
    and a string item of a list or a dict is encoded in place."""
    return _json(payload, "\n") + "\n"


def _json(value, indent: str) -> str:
    # containers first, since a str item of one is encoded in place
    inner = indent + "  "
    if isinstance(value, list) or isinstance(value, tuple):
        items = [encode_basestring_ascii(v) if type(v) is str else _json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if isinstance(value, dict):  # a key that is no str: TypeError from the sort or the encoder
        items = [
            encode_basestring_ascii(k) + ": "
            + (encode_basestring_ascii(v) if type(v) is str else _json(v, inner))
            for k, v in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"{type(value).__name__} is not a canonical JSON type")


def write_atomic(path: str, data) -> None:
    """Write bytes or text via a temp file and rename, never a partial file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    mode = "wb" if isinstance(data, (bytes, bytearray)) else "w"
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".jetcover-")
    try:
        with os.fdopen(fd, mode) as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def interval_to_list(iv: Interval) -> list:
    return [rat_str(iv.lo), rat_str(iv.hi)]


def box_to_list(box: Box) -> list:
    return [interval_to_list(iv) for iv in box.intervals]


# --- jets ---------------------------------------------------------------------


def jet_from_payload(payload: dict) -> Jet:
    """The jet of the file's coefficients, each row a JSON list of entries
    or, for dim 1, one entry; an order or dim the file states must be a JSON
    integer, the one its coefficients give."""
    coeffs = _entry(_typed(payload, dict, "the jet"), "coeffs", list)
    rows = [
        [_parsed(f"coeffs[{i}][{c}]", rat, e) for c, e in enumerate(row)]
        if type(row) is list else [_parsed(f"coeffs[{i}]", rat, row)]
        for i, row in enumerate(coeffs)
    ]
    jet = _parsed("coeffs", Jet, rows)
    for key in ("order", "dim"):  # by type too: True and 1.0 equal 1
        if key in payload and (type(payload[key]), payload[key]) != (int, getattr(jet, key)):
            raise CertificateFormatError(
                f"stated {key} {payload[key]!r} is not the coefficients' "
                f"{getattr(jet, key)}"
            )
    return jet


# --- covering certificates ------------------------------------------------------


def _affine_to_dict(f: AffineMap) -> dict:
    return {
        "matrix": [[rat_str(e) for e in row] for row in f.matrix],
        "offset": [rat_str(e) for e in f.offset],
        "contraction": rat_str(f.contraction),
    }


def _affine_from_dict(d: dict) -> AffineMap:
    rows, offset = _entry(_typed(d, dict, "the map"), "matrix", list), _entry(d, "offset", list)
    return AffineMap([[rat(e) for e in _typed(row, list, "a matrix row")] for row in rows],
                     [rat(e) for e in offset], rat(_entry(d, "contraction", None)))


def covering_outcome_payload(outcome) -> dict:
    """The wire form of a Certificate or a CoveringFailure.  A certificate's
    leaves are written from their integer sides (`covering.Leaves`; other
    leaves are put into that form first), each distinct side rendered once
    by `ratio_str`, so no Box or Fraction is built per leaf."""
    if isinstance(outcome, Certificate):
        system, leaves = outcome.system, Leaves.of(outcome.target, outcome.leaves)
        # each distinct side is rendered once, from its integer ratios
        text = {pair: (ratio_str(*pair[0]), ratio_str(*pair[1]))
                for pair in dict.fromkeys(chain.from_iterable(leaves.sides))}
        boxes = zip(*([list(text[pair]) for pair in pairs] for pairs in leaves.sides))
        return {
            "system": {
                "alphabet": list(system.alphabet),
                "maps": {s: _affine_to_dict(system.maps[s]) for s in system.alphabet},
            },
            "box": box_to_list(outcome.target),
            "margin": rat_str(outcome.margin),
            "depth": outcome.max_depth,
            "leaves": [
                {"box": list(box), "witness": witness}
                for box, witness in zip(boxes, leaves.witnesses)
            ],
            "verified": True,
        }
    if isinstance(outcome, CoveringFailure):
        return {
            "verified": False,
            "witness_box": box_to_list(outcome.witness_box),
            "depth": outcome.max_depth,
        }
    raise CertificateFormatError("not a covering outcome")


_JSON_TYPES = {dict: "object", list: "list", str: "string", int: "integer"}


def _typed(value, kind, path: str):
    """`value` if its JSON type is `kind` (a bool is no integer), else a
    CertificateFormatError naming the field's path."""
    if type(value) is not kind:
        raise CertificateFormatError(f"{path} is not a JSON {_JSON_TYPES[kind]}")
    return value


def _entry(obj: dict, key: str, kind, path: str = ""):
    """`obj[key]`, of JSON type `kind` unless that is None; `path` leads to obj."""
    if key not in obj:
        raise CertificateFormatError(f"{path}{key} is missing")
    return obj[key] if kind is None else _typed(obj[key], kind, path + key)


def _parsed(path: str, parse, value):
    """parse(value); its TypeError or ValueError, whose message is the
    package's own, is a CertificateFormatError naming the field's path."""
    try:
        return parse(value)
    except (TypeError, ValueError) as exc:
        raise CertificateFormatError(f"{path}: {exc}") from None


def _leaf_columns(leaves: list, dim: int, ratios: dict):
    """Per axis each leaf's side as a pair of integer ratios, and the
    witnesses; each distinct endpoint is parsed once, into `ratios`.  The
    JSON types are checked a column at a time, in C loops, so a leaf costs
    no Python step of its own; a malformed one raises a KeyError,
    TypeError or ValueError whose message the caller writes."""
    boxes, witnesses = list(map(itemgetter("box"), leaves)), list(map(itemgetter("witness"), leaves))
    sides = list(chain.from_iterable(boxes))
    ends = list(chain.from_iterable(sides))
    if not (set(map(type, boxes + sides)) <= {list} and set(map(len, boxes)) <= {dim}
            and set(map(len, sides)) <= {2} and set(map(type, witnesses)) <= {str}
            and set(map(type, ends)) <= {str, int}):
        raise TypeError
    for end in dict.fromkeys(ends):
        if end not in ratios:
            ratios[end] = ratio(end)
    pairs = list(zip(map(ratios.__getitem__, ends[0::2]), map(ratios.__getitem__, ends[1::2])))
    return [pairs[c::dim] for c in range(dim)], witnesses


def load_certificate(payload: dict) -> Certificate:
    """Parse a certificate.  Each field's JSON type is checked before use,
    and a malformed piece, a leaf of another dimension than the target's
    included, is a CertificateFormatError naming its path, such as
    ``leaves[3].box[1]``.  More leaves than `COVER_LEAF_CAP` is a
    ResourceLimitError, raised before any leaf is read.  Each distinct
    endpoint is parsed once, to its integer ratio (`ratio`).  The leaves
    are held as their sides (`covering.Leaves`), whose cells on the
    target's dyadic grid are made here, once, so that a reversed side is
    refused at load, and which `check_certificate` reads as they are: the
    (Box, witness) pairs of `Certificate.leaves` are built on first use,
    one `Interval` per distinct side, and `check-cert` never builds them."""
    _typed(payload, dict, "the certificate")
    system, leaves = _entry(payload, "system", dict), _entry(payload, "leaves", list)
    if len(leaves) > COVER_LEAF_CAP:
        raise ResourceLimitError(f"certificate has more than {COVER_LEAF_CAP} leaves")
    depth = _entry(payload, "depth", int)  # not a bool, float or string
    if depth < 0:
        raise CertificateFormatError(f"depth {depth!r} is not a non-negative JSON integer")
    alphabet = _entry(system, "alphabet", list, "system.")
    if not all(type(s) is str for s in alphabet):
        raise CertificateFormatError("system.alphabet is not a JSON list of strings")
    maps = _entry(system, "maps", dict, "system.").items()
    system = IFSystem(tuple(alphabet), {s: _parsed(
        f"system.maps[{encode_basestring_ascii(s)}]", _affine_from_dict, m) for s, m in maps})
    ratios = {}  # endpoint (a JSON string or integer) -> its integer ratio

    def interval(side) -> Interval:
        if type(side) is not list or len(side) != 2 or not {type(e) for e in side} <= {str, int}:
            raise TypeError("not a JSON [lo, hi] pair of p/q strings")
        for end in side:
            if end not in ratios:
                ratios[end] = ratio(end)
        return Interval(*(Fraction(*ratios[end]) for end in side))

    sides = [_parsed(f"box[{c}]", interval, side) for c, side in enumerate(_entry(payload, "box", list))]
    target = Box([sides[sides.index(iv)] for iv in sides])  # equal sides share one Interval
    try:
        held = Leaves(target, *_leaf_columns(leaves, target.dim, ratios))
        held.cells  # a reversed side is refused here, at load
    except (KeyError, TypeError, ValueError):
        for i, leaf in enumerate(leaves):  # name the first malformed piece
            at = f"leaves[{i}]"
            _entry(_typed(leaf, dict, at), "witness", str, at + ".")
            for c, side in enumerate(_entry(leaf, "box", list, at + ".")):
                _parsed(f"{at}.box[{c}]", interval, side)
            if len(leaf["box"]) != target.dim:
                raise CertificateFormatError(
                    f"{at}.box has {len(leaf['box'])} sides, not the target's {target.dim}") from None
        raise  # the walk names every piece that the columns refuse
    margin = _parsed("margin", rat, _entry(payload, "margin", None))
    return Certificate(system=system, target=target, margin=margin, max_depth=depth, leaves=held)


# --- flat polynomials -----------------------------------------------------------


def flat_poly_payload(res: FlatPolyResult) -> dict:
    return {
        "flatness": res.flatness,
        "coeffs": [rat_str(c) for c in res.coeffs],
        "degree": res.degree,
        "optimum": rat_str(res.optimum),
        "l1_nonleading": rat_str(res.optimum),
        "dual_certificate": [rat_str(y) for y in res.dual],
        "search_degree": res.search_degree,
        "history": [[n, rat_str(v)] for n, v in res.history],
    }


# --- jet covering systems --------------------------------------------------------


def _reduced_str(num: int, den: int) -> str:
    """The wire form of num / den, den > 0, reduced by one gcd."""
    g = gcd(num, den)
    return ratio_str(num // g, den // g)


def jet_system_payload(sys: JetCoveringSystem, delta_cover: DeltaCoveringCertificate) -> dict:
    """The system's wire form; the projection and the pullback box are
    written from the integer rows and radii that `build_system` judged."""
    (_, _, rows, den), (radii, scale) = sys.integer_rows, sys.integer_radii
    return {
        "jet_dim": sys.jet_dim,
        "order": sys.order,
        "lam": rat_str(sys.lam),
        "p_coeffs": [rat_str(c) for c in sys.p_coeffs],
        "branch_matrix": [[rat_str(e) for e in row] for row in sys.branch_matrix],
        "branch_offset": [rat_str(e) for e in sys.branch_offset],
        "projection": [[_reduced_str(e, den) for e in row] for row in rows],
        "box_base": rat_str(sys.box_base),
        "pullback_box": [[_reduced_str(-r, scale), _reduced_str(r, scale)] for r in radii],
        "semiconjugacy_exact": True,
        "delta_covering": {
            "inequality": {
                "lhs": rat_str(delta_cover.inequality_lhs),
                "rhs": rat_str(delta_cover.inequality_rhs),
                "exact": True,
            },
            "functional_range": interval_to_list(delta_cover.functional_range),
            "window_leaves": [
                [interval_to_list(iv), label]
                for iv, label in delta_cover.window_leaves
            ],
            "margin": rat_str(delta_cover.margin),
        },
    }


def _same_value(stated, rebuilt) -> bool:
    """Whether nested lists of p/q strings equal nested tuples of Fractions
    entry by entry; the canonical spelling is compared as text first."""
    if isinstance(rebuilt, Fraction):
        return stated == rat_str(rebuilt) or rat(stated) == rebuilt
    return (
        isinstance(stated, list)
        and len(stated) == len(rebuilt)
        and all(map(_same_value, stated, rebuilt))
    )


def jet_system_from_payload(payload: dict) -> JetCoveringSystem:
    """Rebuild the system from its defining fields through `build_system`,
    which re-verifies the polynomial, the semi-conjugacy and the box
    inequality of the stated base, and require the branch matrix, branch
    offset, projection and pullback box the file states to equal the
    rebuilt ones by value.  A missing or mistyped field, a mismatch, or an
    input `build_system` refuses, is a CertificateFormatError."""
    _typed(payload, dict, "the jet system")
    jet_dim = _entry(payload, "jet_dim", int)  # not a bool, float or string
    p_coeffs = [_parsed(f"p_coeffs[{i}]", rat, c)
                for i, c in enumerate(_entry(payload, "p_coeffs", list))]
    lam = _parsed("lam", rat, _entry(payload, "lam", None))
    base = _parsed("box_base", rat, _entry(payload, "box_base", None))
    try:
        system = build_system(jet_dim, lam, p_coeffs, box_base=base)
    except DegenerateInputError as exc:
        raise CertificateFormatError(f"the jet system: {exc}") from None
    rebuilt = {
        "branch_matrix": system.branch_matrix,
        "branch_offset": system.branch_offset,
        "projection": system.projection,
        "pullback_box": tuple((iv.lo, iv.hi) for iv in system.pullback_box()),
    }
    for name, value in rebuilt.items():
        if not _parsed(name, lambda stated: _same_value(stated, value), _entry(payload, name, list)):
            raise CertificateFormatError(f"the file's {name} is not the rebuilt system's")
    return system


def realization_payload(res: RealizationResult) -> dict:
    return {
        "itinerary": res.itinerary_string(),
        "steps": res.steps,
        "achieved_residual": rat_str(res.achieved_residual),
        "residual_bound": rat_str(res.residual_bound),
    }


# --- blender reports --------------------------------------------------------------


def blender_cover_payload(res) -> dict:
    """The wire form of a `blender.BlenderCoverResult`."""
    return {
        "ok": res.ok,
        "base_target": interval_to_list(res.base_target),
        "base_images": [
            {"branch": label, "image": interval_to_list(iv), "contains_target": holds}
            for label, iv, holds in res.base_images
        ],
        "fiber": covering_outcome_payload(res.fiber_outcome),
    }


def nearly_affine_payload(report) -> dict:
    """The wire form of a `blender.NearlyAffineReport`."""

    def branch(b):
        return {
            "c1_deviation": rat_str(b.deviation),
            "boundary_clear": b.boundary_clear,
            "samples": b.samples,
            "boundary_samples": b.boundary_samples,
        }

    return {
        "lam": rat_str(report.lam),
        "plus": branch(report.plus),
        "minus": branch(report.minus),
        "grid_step": rat_str(report.grid_step),
        "certified": report.certified,
    }


# --- CSV tables -------------------------------------------------------------------


def cloud_to_csv(points: Sequence[Tuple[Vec, Word]]) -> str:
    """CSV export: columns x1..xn then the word string, rationals as p/q."""
    if not points:
        return ""
    n = len(points[0][0])
    header = ",".join(f"x{i + 1}" for i in range(n)) + ",word"
    lines = [header]
    for pt, w in points:
        lines.append(",".join(map(rat_str, pt)) + "," + "".join(w))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BranchSample:
    """One tabulated evaluation of an inverse branch and its Jacobian: a
    row of a branch sample table, which `blender.nearly_affine_check` reads."""

    x: Fraction
    y: Fraction
    gx: Fraction
    gy: Fraction
    dxx: Fraction
    dxy: Fraction
    dyx: Fraction
    dyy: Fraction


BRANCH_TABLE_COLUMNS = ("x", "y", "gx", "gy", "dxx", "dxy", "dyx", "dyy")


def branch_table_from_csv(text: str) -> List[BranchSample]:
    rows = [line.strip() for line in text.splitlines() if line.strip()]
    if not rows or rows[0].split(",") != list(BRANCH_TABLE_COLUMNS):
        raise DegenerateInputError(
            "branch table must start with header " + ",".join(BRANCH_TABLE_COLUMNS)
        )
    out = []
    for line in rows[1:]:
        parts = line.split(",")
        if len(parts) != len(BRANCH_TABLE_COLUMNS):
            raise DegenerateInputError(f"bad table row: {line!r}")
        out.append(BranchSample(*(rat(p) for p in parts)))
    return out


# --- PPM rasters ------------------------------------------------------------------

PPM_BG = b"\xff\xff\xff"
PPM_FG = b"\x00\x00\x00"


def check_raster(width: int, height: int) -> None:
    """Refuse a raster size that is not positive or exceeds RASTER_PIXEL_CAP;
    callers check it before they compute what the raster shows."""
    if width < 1 or height < 1:
        raise DegenerateInputError(f"raster {width}x{height} needs positive dimensions")
    if width * height > RASTER_PIXEL_CAP:
        raise ResourceLimitError(
            f"raster {width}x{height} exceeds the cap of {RASTER_PIXEL_CAP} pixels"
        )


def encode_ppm(width: int, height: int, rows: Container[int], cols: Container[int]) -> bytes:
    """Binary PPM (P6), origin top-left, foreground exactly at the pixels in
    rows x cols.  The size is checked before any pixel is allocated."""
    check_raster(width, height)
    lit = b"".join(PPM_FG if c in cols else PPM_BG for c in range(width))
    background = PPM_BG * width
    body = b"".join(lit if r in rows else background for r in range(height))
    return f"P6\n{width} {height}\n255\n".encode("ascii") + body
