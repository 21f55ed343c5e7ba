"""Canonical JSON and CSV wire formats and atomic file output.

Home of the JSON encoders and parsers, covering certificates included,
of the CSV tables (limit-set clouds, branch samples) and of the PPM
raster encoder; the CLI adds only small verdict dicts.  Documents are
emitted with sorted keys, two-space indent, ASCII escapes, and a trailing
newline, so identical inputs give byte-identical files.  Rationals travel
as "p/q" strings, intervals as [lo, hi] pairs.
"""

from __future__ import annotations

import os
import tempfile
from fractions import Fraction
from itertools import starmap
from json.encoder import encode_basestring_ascii
from typing import Container, List, Optional, Sequence, Tuple

from .blender import BlenderCoverResult, BranchSample, NearlyAffineReport
from .boxes import Box, Interval
from .covering import Certificate, CoveringFailure
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
from .rational import rat, rat_str


def canonical_json(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\\n"``
    for dicts with str keys, lists, tuples, str, int, bool and None; any other
    type is a TypeError.  Strings go through the C `encode_basestring_ascii`."""
    return _json(payload, "\n") + "\n"


def _json(value, indent: str) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items = [encode_basestring_ascii(v) if type(v) is str else _json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if isinstance(value, dict):  # a key that is no str: TypeError from the sort or the encoder
        items = [
            encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
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


def jet_to_payload(jet: Jet) -> dict:
    if jet.dim == 1:
        coeffs = [rat_str(row[0]) for row in jet.coeffs]
    else:
        coeffs = [[rat_str(e) for e in row] for row in jet.coeffs]
    return {"order": jet.order, "dim": jet.dim, "coeffs": coeffs}


def jet_from_payload(payload: dict) -> Jet:
    """The jet of the file's coefficients; an order or dim the file states
    must be a JSON integer, the one its coefficients give."""
    try:
        coeffs = payload["coeffs"]
        if not isinstance(coeffs, list):  # a string or an object would iterate too
            raise CertificateFormatError("coeffs is not a JSON list")
        rows = [
            [rat(e) for e in (row if isinstance(row, list) else [row])]
            for row in coeffs
        ]
        jet = Jet(rows)
        for key in ("order", "dim"):  # by type too: True and 1.0 equal 1
            if key in payload and (type(payload[key]), payload[key]) != (int, getattr(jet, key)):
                raise CertificateFormatError(
                    f"stated {key} {payload[key]!r} is not the coefficients' "
                    f"{getattr(jet, key)}"
                )
        return jet
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateFormatError(f"malformed jet: {exc}") from exc


# --- covering certificates ------------------------------------------------------


def _affine_to_dict(f: AffineMap) -> dict:
    return {
        "matrix": [[rat_str(e) for e in row] for row in f.matrix],
        "offset": [rat_str(e) for e in f.offset],
        "contraction": rat_str(f.contraction),
    }


def _affine_from_dict(d: dict) -> AffineMap:
    return AffineMap(
        [[rat(e) for e in row] for row in d["matrix"]],
        [rat(e) for e in d["offset"]],
        rat(d["contraction"]),
    )


def covering_outcome_payload(outcome) -> dict:
    if isinstance(outcome, Certificate):
        system = outcome.system
        # each distinct cell interval is rendered once; the leaves keep them all alive
        text = {id(iv): iv for leaf, _ in outcome.leaves for iv in leaf.intervals}
        text = {key: (rat_str(iv.lo), rat_str(iv.hi)) for key, iv in text.items()}
        return {
            "system": {
                "alphabet": list(system.alphabet),
                "maps": {s: _affine_to_dict(system.maps[s]) for s in system.alphabet},
            },
            "box": box_to_list(outcome.target),
            "margin": rat_str(outcome.margin),
            "depth": outcome.max_depth,
            "leaves": [
                {"box": [list(text[id(iv)]) for iv in leaf.intervals], "witness": witness}
                for leaf, witness in outcome.leaves
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


def load_certificate(payload: dict) -> Certificate:
    """Parse a certificate; more leaves than `COVER_LEAF_CAP` is a
    ResourceLimitError, raised before any box is parsed.  The depth must be a
    non-negative JSON integer, the alphabet a JSON list of strings and each
    witness a JSON string.  Each distinct endpoint string is parsed once, and
    each distinct pair makes one `Interval`, shared by every box naming it."""
    values, intervals = {}, {}  # keyed on str only: no other JSON value equals a str

    def value(text):  # a JSON int goes through `rat` each time, which refuses a float or bool
        if type(text) is str and text not in values:
            values[text] = rat(text)
        return values[text] if type(text) is str else rat(text)

    def interval(lo, hi):
        iv = intervals.get((lo, hi))
        if iv is None:
            iv = Interval(value(lo), value(hi))
            if type(lo) is str and type(hi) is str:
                intervals[lo, hi] = iv
        return iv

    try:
        system = payload["system"]
        if len(payload["leaves"]) > COVER_LEAF_CAP:
            raise ResourceLimitError(
                f"certificate has more than {COVER_LEAF_CAP} leaves"
            )
        depth = payload["depth"]
        if type(depth) is not int or depth < 0:  # not a bool, float or string
            raise CertificateFormatError(f"depth {depth!r} is not a non-negative JSON integer")
        leaves = tuple(
            (Box(tuple(starmap(interval, leaf["box"]))), leaf["witness"])
            for leaf in payload["leaves"]
        )
        if not all(type(witness) is str for _, witness in leaves):
            raise CertificateFormatError("a leaf's witness is not a JSON string")
        if type(system["maps"]) is not dict:
            raise CertificateFormatError("system.maps is not a JSON object")
        alphabet = system["alphabet"]
        if type(alphabet) is not list or not all(type(s) is str for s in alphabet):
            raise CertificateFormatError("system.alphabet is not a JSON list of strings")
        return Certificate(
            system=IFSystem(
                tuple(alphabet),
                {s: _affine_from_dict(m) for s, m in system["maps"].items()},
            ),
            target=Box(tuple(starmap(interval, payload["box"]))),
            margin=rat(payload["margin"]),
            max_depth=depth,
            leaves=leaves,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateFormatError(f"malformed certificate: {exc}") from exc


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


def jet_system_payload(
    sys: JetCoveringSystem,
    delta_cover: Optional[DeltaCoveringCertificate] = None,
) -> dict:
    payload = {
        "jet_dim": sys.jet_dim,
        "order": sys.order,
        "lam": rat_str(sys.lam),
        "p_coeffs": [rat_str(c) for c in sys.p_coeffs],
        "branch_matrix": [[rat_str(e) for e in row] for row in sys.branch_matrix],
        "branch_offset": [rat_str(e) for e in sys.branch_offset],
        "projection": [[rat_str(e) for e in row] for row in sys.projection],
        "box_base": rat_str(sys.box_base),
        "pullback_box": box_to_list(sys.pullback_box()),
        "semiconjugacy_exact": True,
    }
    if delta_cover is not None:
        payload["delta_covering"] = {
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
        }
    return payload


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
    rebuilt ones by value.  A mismatch, or an input `build_system`
    refuses, is a CertificateFormatError."""
    if not isinstance(payload, dict):
        raise CertificateFormatError("the jet system is not a JSON object")
    try:
        if type(payload["jet_dim"]) is not int:  # not a bool, float or string
            raise CertificateFormatError("jet_dim is not a JSON integer")
        if not isinstance(payload["p_coeffs"], list):
            raise CertificateFormatError("p_coeffs is not a JSON list")
        p_coeffs, base = [rat(c) for c in payload["p_coeffs"]], rat(payload["box_base"])
        system = build_system(payload["jet_dim"], rat(payload["lam"]), p_coeffs, box_base=base)
        rebuilt = {
            "branch_matrix": system.branch_matrix,
            "branch_offset": system.branch_offset,
            "projection": system.projection,
            "pullback_box": tuple((iv.lo, iv.hi) for iv in system.pullback_box()),
        }
        for name, value in rebuilt.items():
            if not _same_value(payload[name], value):
                raise CertificateFormatError(f"the file's {name} is not the rebuilt system's")
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateFormatError(f"malformed jet system: {exc}") from exc
    return system


def realization_payload(res: RealizationResult) -> dict:
    return {
        "itinerary": res.itinerary_string(),
        "steps": res.steps,
        "achieved_residual": rat_str(res.achieved_residual),
        "residual_bound": rat_str(res.residual_bound),
    }


# --- blender reports --------------------------------------------------------------


def blender_cover_payload(res: BlenderCoverResult) -> dict:
    return {
        "ok": res.ok,
        "base_target": interval_to_list(res.base_target),
        "base_images": [
            {"branch": label, "image": interval_to_list(iv), "contains_target": holds}
            for label, iv, holds in res.base_images
        ],
        "fiber": covering_outcome_payload(res.fiber_outcome),
    }


def nearly_affine_payload(report: NearlyAffineReport) -> dict:
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


BRANCH_TABLE_COLUMNS = ("x", "y", "gx", "gy", "dxx", "dxy", "dyx", "dyy")


def branch_table_to_csv(samples: Sequence[BranchSample]) -> str:
    lines = [",".join(BRANCH_TABLE_COLUMNS)]
    for s in samples:
        lines.append(
            ",".join(rat_str(getattr(s, col)) for col in BRANCH_TABLE_COLUMNS)
        )
    return "\n".join(lines) + "\n"


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
