"""Command-line surface.

Every command is deterministic (identical inputs give byte-identical
outputs) and writes files atomically.  Rationals are passed as "p/q"
strings.  Exit codes: 0 success, 1 negative mathematical verdict
(non-covering, not in the covered set, contraction too small), 2 input
validation error.

An optional --config JSON file supplies defaults for any long option;
explicit flags override it.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import blender, serialize
from .boxes import Box, Interval
from .covering import Certificate, certify_covering, check_certificate
from .errors import (
    CertificateFormatError,
    ConstructionError,
    JetcoverError,
    NotCoveredError,
    SearchExhaustedError,
)
from .flatpoly import (
    find_flat_poly,
    l1_tail,
    lambda_threshold,
    minimal_flat_poly,
    scale_to_p,
)
from .ifs import (
    affine_1d,
    decide_two_map_line,
    limit_set_cloud,
    standard_pair,
)
from .jetcovering import (
    auto_lambda,
    build_system,
    certify_delta_covering,
    realize_jet,
)
from .rational import rat, rat_str

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2


def _write_json(path: str, payload) -> None:
    serialize.write_atomic(path, serialize.canonical_json(payload))


def _scatter_ppm(points, width: int, height: int, radius: Fraction) -> bytes:
    """1-d point cloud raster on the middle row of a [-r, r] viewport."""
    span = 2 * radius
    cols = {
        min(int((pt[0] + radius) * width // span), width - 1)
        for pt, _ in points
        if abs(pt[0]) <= radius
    }
    return serialize.encode_ppm(width, height, {height // 2}, cols)


# --- subcommand handlers --------------------------------------------------------


def cmd_limit_set(args) -> int:
    sys_ = standard_pair(rat(args.lam))
    cloud = limit_set_cloud(sys_, args.depth)
    # encode the raster first: a rejected size must leave no file behind
    img = _scatter_ppm(cloud, args.width, args.height, sys_.radius) if args.ppm else None
    serialize.write_atomic(args.out, serialize.cloud_to_csv(cloud))
    if img is not None:
        serialize.write_atomic(args.ppm, img)
    return EXIT_OK


def cmd_certify(args) -> int:
    sys_ = standard_pair(rat(args.lam))
    target = Box([Interval.of(rat(args.lo), rat(args.hi))])
    outcome = certify_covering(sys_, target, rat(args.margin), args.max_depth)
    _write_json(args.out, serialize.covering_outcome_payload(outcome))
    return EXIT_OK if isinstance(outcome, Certificate) else EXIT_NEGATIVE


def cmd_check_cert(args) -> int:
    with open(args.cert, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    cert = serialize.load_certificate(payload)
    return EXIT_OK if check_certificate(cert) else EXIT_NEGATIVE


def cmd_two_map_verdict(args) -> int:
    f1 = affine_1d(rat(args.lam1), rat(args.offset1))
    f2 = affine_1d(rat(args.lam2), rat(args.offset2))
    verdict = decide_two_map_line(f1, f2)
    payload = {"verdict": verdict.kind}
    if verdict.robust_interior:
        payload["trimmed_interval"] = serialize.interval_to_list(verdict.trimmed)
        payload["epsilon"] = rat_str(verdict.epsilon)
    if args.out:
        _write_json(args.out, payload)
    else:
        print(serialize.canonical_json(payload), end="")
    return EXIT_OK if verdict.robust_interior else EXIT_NEGATIVE


def cmd_flat_poly(args) -> int:
    try:
        if args.degree is not None:
            res = minimal_flat_poly(args.flatness, args.degree)
        else:
            res = find_flat_poly(args.flatness, rat(args.margin), args.degree_max)
    except SearchExhaustedError as exc:
        _write_json(args.out, {"found": False, "detail": str(exc)})
        return EXIT_NEGATIVE
    _write_json(args.out, serialize.flat_poly_payload(res))
    return EXIT_OK


def cmd_jet_system(args) -> int:
    big_n = args.order + 1
    qres = find_flat_poly(big_n, rat(args.margin), args.degree_max)
    threshold = lambda_threshold(qres)
    lam = auto_lambda(threshold) if args.lam == "auto" else rat(args.lam)
    p_coeffs = scale_to_p(qres, lam)
    l1 = l1_tail(p_coeffs)
    if l1 >= 2:
        _write_json(
            args.out,
            {
                "built": False,
                "verdict": "lambda-too-small",
                "lam": rat_str(lam),
                "lambda_threshold": rat_str(threshold),
                "l1_nonleading": rat_str(l1),
            },
        )
        return EXIT_NEGATIVE
    system = build_system(big_n, lam, p_coeffs)
    delta_cover = certify_delta_covering(system)
    payload = serialize.jet_system_payload(system, delta_cover)
    payload["lambda_threshold"] = rat_str(threshold)
    payload["flat_poly"] = serialize.flat_poly_payload(qres)
    payload["built"] = True
    _write_json(args.out, payload)
    return EXIT_OK


def cmd_realize(args) -> int:
    with open(args.system, "r", encoding="utf-8") as handle:
        system = serialize.jet_system_from_payload(json.load(handle))
    with open(args.target, "r", encoding="utf-8") as handle:
        target = serialize.jet_from_payload(json.load(handle))
    try:
        result = realize_jet(system, target, args.tol, args.max_steps)
    except NotCoveredError:
        _write_json(args.out, {"certified": False})
        return EXIT_NEGATIVE
    payload = serialize.realization_payload(result)
    payload["certified"] = True
    payload["membership_margin"] = rat_str(result.membership.margin)
    _write_json(args.out, payload)
    return EXIT_OK


def cmd_blender_render(args) -> int:
    sys_ = blender.SkewSystem(rat(args.lam), rat(args.overhang))
    img = blender.render_unstable_union(
        sys_, rat(args.a), args.depth, args.width, args.height
    )
    serialize.write_atomic(args.out, img)
    return EXIT_OK


def cmd_blender_cover(args) -> int:
    sys_ = blender.SkewSystem(rat(args.lam), rat(args.overhang))
    result = blender.verify_example_covering(
        sys_, rat(args.margin), args.max_depth
    )
    _write_json(args.out, serialize.blender_cover_payload(result))
    return EXIT_OK if result.ok else EXIT_NEGATIVE


def cmd_nearly_affine(args) -> int:
    with open(args.table_plus, "r", encoding="utf-8") as handle:
        plus = serialize.branch_table_from_csv(handle.read())
    with open(args.table_minus, "r", encoding="utf-8") as handle:
        minus = serialize.branch_table_from_csv(handle.read())
    report = blender.nearly_affine_check(
        rat(args.lam), plus, minus, rat(args.grid_step)
    )
    _write_json(args.out, serialize.nearly_affine_payload(report))
    return EXIT_OK


# --- parser -----------------------------------------------------------------------

# parameters without defaults, checked after the config merge so a config
# file may supply any of them
REQUIRED = {
    "limit-set": ("lam", "depth", "out"),
    "certify": ("lam", "out"),
    "check-cert": ("cert",),
    "two-map-verdict": ("lam1", "offset1", "lam2", "offset2"),
    "flat-poly": ("flatness", "out"),
    "jet-system": ("order", "out"),
    "realize": ("system", "target", "out"),
    "blender-render": ("lam", "depth", "out"),
    "blender-cover": ("lam", "out"),
    "nearly-affine": ("lam", "table_plus", "table_minus", "grid_step", "out"),
}


def _rat_flag(parser, name, default=None, help=""):
    parser.add_argument(name, type=str, default=default, help=help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetcover",
        description="certified IFS coverings, jet lifts, and blender demos",
    )
    parser.add_argument(
        "--config", type=str, default=None, help="JSON file with option defaults"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("limit-set", help="export a depth-k limit set cloud as CSV")
    _rat_flag(p, "--lam", help="contraction, e.g. 3/4")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--ppm", type=str, default=None, help="optional raster output")
    p.add_argument("--width", type=int, default=512)
    p.add_argument("--height", type=int, default=64)
    p.set_defaults(handler=cmd_limit_set)

    p = sub.add_parser("certify", help="covering certificate for the standard pair")
    _rat_flag(p, "--lam")
    _rat_flag(p, "--lo", default="-2")
    _rat_flag(p, "--hi", default="2")
    _rat_flag(p, "--margin", default="1/100")
    p.add_argument("--max-depth", type=int, default=24)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser("check-cert", help="re-verify a covering certificate")
    p.add_argument("--cert", type=str, default=None)
    p.set_defaults(handler=cmd_check_cert)

    p = sub.add_parser("two-map-verdict", help="two-map line trichotomy")
    _rat_flag(p, "--lam1")
    _rat_flag(p, "--offset1")
    _rat_flag(p, "--lam2")
    _rat_flag(p, "--offset2")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(handler=cmd_two_map_verdict)

    p = sub.add_parser("flat-poly", help="L1-minimal flat polynomial via exact LP")
    p.add_argument("--flatness", type=int, default=None, help="order of the root at 1")
    p.add_argument("--degree", type=int, default=None, help="fix the degree")
    _rat_flag(p, "--margin", default="1/16")
    p.add_argument("--degree-max", type=int, default=64)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(handler=cmd_flat_poly)

    p = sub.add_parser("jet-system", help="build the covered jet-space system")
    p.add_argument("--order", type=int, default=None, help="jet order r >= 0")
    _rat_flag(p, "--lam", default="auto")
    _rat_flag(p, "--margin", default="1/16")
    p.add_argument("--degree-max", type=int, default=64)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(handler=cmd_jet_system)

    p = sub.add_parser("realize", help="realize a target jet as a continuation jet")
    p.add_argument("--system", type=str, default=None, help="jet-system JSON")
    p.add_argument("--target", type=str, default=None, help="target jet JSON")
    _rat_flag(p, "--tol", default="1/100000000")
    p.add_argument("--max-steps", type=int, default=10_000)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(handler=cmd_realize)

    p = sub.add_parser("blender-render", help="raster of unstable segments")
    _rat_flag(p, "--lam")
    _rat_flag(p, "--a", default="0")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--width", type=int, default=512)
    p.add_argument("--height", type=int, default=512)
    _rat_flag(p, "--overhang", default="1/10")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(handler=cmd_blender_render)

    p = sub.add_parser("blender-cover", help="exact covering check for the example")
    _rat_flag(p, "--lam")
    _rat_flag(p, "--overhang", default="1/10")
    _rat_flag(p, "--margin", default="1/100")
    p.add_argument("--max-depth", type=int, default=24)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(handler=cmd_blender_cover)

    p = sub.add_parser("nearly-affine", help="grid distance to the affine models")
    _rat_flag(p, "--lam")
    p.add_argument("--table-plus", type=str, default=None, help="CSV sample table")
    p.add_argument("--table-minus", type=str, default=None, help="CSV sample table")
    _rat_flag(p, "--grid-step")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(handler=cmd_nearly_affine)

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: Sequence[str]):
    """Parse once to find --config and the command, then parse again with
    the file's values as that command's defaults, so explicit flags win.
    Keys that are not the command's own options are ignored."""
    args = parser.parse_args(argv)
    if not args.config:
        return args
    with open(args.config, "r", encoding="utf-8") as handle:
        defaults = json.load(handle)
    if not isinstance(defaults, dict):
        raise CertificateFormatError("config file must hold a JSON object")
    (commands,) = (a.choices for a in parser._actions if a.dest == "command")
    command = commands[args.command]
    own = {a.dest for a in command._actions if a.option_strings}
    overlay = {key.replace("-", "_"): value for key, value in defaults.items()}
    command.set_defaults(**{k: v for k, v in overlay.items() if k in own})
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = _apply_config(parser, sys.argv[1:] if argv is None else list(argv))
        missing = [
            name for name in REQUIRED[args.command]
            if getattr(args, name) is None
        ]
        if missing:
            flags = ", ".join("--" + m.replace("_", "-") for m in missing)
            print(f"error: missing required option(s): {flags}", file=sys.stderr)
            return EXIT_INVALID
        return args.handler(args)
    except (JetcoverError, ValueError, TypeError, OSError) as exc:
        if isinstance(exc, ConstructionError):
            raise  # invariant violations should crash loudly
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
