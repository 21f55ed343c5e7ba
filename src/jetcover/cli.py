"""Command-line surface.

Every command is deterministic (identical inputs give byte-identical
outputs) and writes files atomically.  Rationals are passed as "p/q"
strings.  Exit codes: 0 success, 1 negative mathematical verdict
(non-covering, not in the covered set, contraction too small), 2 input
validation error.

Each command's handler, help line and options sit in one table,
`COMMANDS`.  A process builds the top-level parser and each command's
parser once, on first use.  An optional --config JSON file supplies
defaults for that command's long options in that call alone; explicit
flags override it, and other keys are ignored.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Optional, Sequence

from . import blender, serialize
from .boxes import Box, Interval
from .covering import DEFAULT_MAX_DEPTH, Certificate, certify_covering, check_certificate
from .errors import (
    CertificateFormatError,
    ConstructionError,
    DegenerateInputError,
    JetcoverError,
    NotCoveredError,
    ResourceLimitError,
    SearchExhaustedError,
)
from .flatpoly import (
    DEFAULT_MARGIN,
    FLAT_DEGREE_CAP,
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
    DEFAULT_MAX_STEPS,
    auto_lambda,
    build_system,
    certify_delta_covering,
    realize_jet,
)
from .rational import rat, rat_str

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2


def _read_text(path: str) -> str:
    """The file's text; bytes that are not UTF-8 are a CertificateFormatError."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise CertificateFormatError(f"{path} is not UTF-8 text: {exc}") from exc


def _load_json(path: str):
    """The file's JSON document; text that is none is a CertificateFormatError."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, too many digits or levels
        raise CertificateFormatError(f"{path} is not a JSON document: {exc}") from exc


def _joined(tokens: Sequence[str], flags: Sequence[str]) -> list:
    """`tokens` with a negative rational joined to the flag, or a prefix of
    one, before it (``--lo=-3/2``): argparse takes -3/2 for an option."""
    prefixes = {flag[:n] for flag in flags for n in range(3, len(flag) + 1)}
    out = []
    for token in tokens:
        if out and out[-1] in prefixes and re.fullmatch(r"-[0-9]+(/[0-9]+)?", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _write_json(path: str, payload) -> None:
    serialize.write_atomic(path, serialize.canonical_json(payload))


# --- subcommand handlers --------------------------------------------------------


def cmd_limit_set(args) -> int:
    sys_ = standard_pair(args.lam)
    if args.ppm:  # a rejected raster size costs no cloud and leaves no file
        serialize.check_raster(args.width, args.height)
    cloud = limit_set_cloud(sys_, args.depth)
    serialize.write_atomic(args.out, serialize.cloud_to_csv(cloud))
    if args.ppm:
        # the cloud on the middle row of a [-r, r] viewport
        cols = serialize.pixels((pt[0] for pt, _ in cloud), -sys_.radius, sys_.radius, args.width)
        serialize.write_atomic(args.ppm, serialize.encode_ppm(
            args.width, args.height, {args.height // 2}, cols))
    return EXIT_OK


def cmd_certify(args) -> int:
    sys_ = standard_pair(args.lam)
    target = Box([Interval(args.lo, args.hi)])
    # before the call: a bad margin is reported ahead of a bad --max-depth
    outcome = certify_covering(sys_, target, rat(args.margin), args.max_depth)
    _write_json(args.out, serialize.covering_outcome_payload(outcome))
    return EXIT_OK if isinstance(outcome, Certificate) else EXIT_NEGATIVE


def cmd_check_cert(args) -> int:
    cert = serialize.load_certificate(_load_json(args.cert))
    return EXIT_OK if check_certificate(cert) else EXIT_NEGATIVE


def cmd_two_map_verdict(args) -> int:
    f1 = affine_1d(args.lam1, args.offset1)
    f2 = affine_1d(args.lam2, args.offset2)
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
            # before the call: a bad margin is reported ahead of a bad --flatness
            res = find_flat_poly(args.flatness, rat(args.margin), args.degree_max)
    except SearchExhaustedError as exc:
        _write_json(args.out, {"found": False, "detail": str(exc)})
        return EXIT_NEGATIVE
    _write_json(args.out, serialize.flat_poly_payload(res))
    return EXIT_OK


def cmd_jet_system(args) -> int:
    if args.order < 0:
        raise DegenerateInputError(f"--order {args.order} is below 0")
    if args.order >= FLAT_DEGREE_CAP:  # before order + 1, which may pass the digit limit
        raise ResourceLimitError(f"--order {args.order} is above {FLAT_DEGREE_CAP - 1}")
    big_n = args.order + 1
    qres = find_flat_poly(big_n, args.margin, args.degree_max)
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
    system = serialize.jet_system_from_payload(_load_json(args.system))
    target = serialize.jet_from_payload(_load_json(args.target))
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
    sys_ = blender.SkewSystem(args.lam, 0)  # the raster reads only lam
    img = blender.render_unstable_union(
        sys_, rat(args.a), args.depth, args.width, args.height
    )
    serialize.write_atomic(args.out, img)
    return EXIT_OK


def cmd_blender_cover(args) -> int:
    sys_ = blender.SkewSystem(args.lam, args.overhang)
    result = blender.verify_example_covering(
        sys_, rat(args.margin), args.max_depth
    )
    _write_json(args.out, serialize.blender_cover_payload(result))
    return EXIT_OK if result.ok else EXIT_NEGATIVE


def cmd_nearly_affine(args) -> int:
    plus = serialize.branch_table_from_csv(_read_text(args.table_plus))
    minus = serialize.branch_table_from_csv(_read_text(args.table_minus))
    # both before the call: a bad lam is reported ahead of a bad grid step,
    # and a grid step that is no p/q ahead of a lam out of range
    report = blender.nearly_affine_check(
        rat(args.lam), plus, minus, rat(args.grid_step)
    )
    _write_json(args.out, serialize.nearly_affine_payload(report))
    return EXIT_OK


# --- the command table -------------------------------------------------------------

NO_DEFAULT = object()  # the command line or --config must supply the option

COMMANDS = {
    "limit-set": (cmd_limit_set, "export a depth-k limit set cloud as CSV", (
        ("--lam", str, NO_DEFAULT, "contraction, e.g. 3/4"),
        ("--depth", int, NO_DEFAULT, ""),
        ("--out", str, NO_DEFAULT, ""),
        ("--ppm", str, None, "optional raster output"),
        ("--width", int, 512, ""),
        ("--height", int, 64, ""),
    )),
    "certify": (cmd_certify, "covering certificate for the standard pair", (
        ("--lam", str, NO_DEFAULT, ""),
        ("--lo", str, "-2", ""),
        ("--hi", str, "2", ""),
        ("--margin", str, "1/100", ""),
        ("--max-depth", int, DEFAULT_MAX_DEPTH, ""),
        ("--out", str, NO_DEFAULT, ""),
    )),
    "check-cert": (cmd_check_cert, "re-verify a covering certificate", (
        ("--cert", str, NO_DEFAULT, ""),
    )),
    "two-map-verdict": (cmd_two_map_verdict, "two-map line trichotomy", (
        ("--lam1", str, NO_DEFAULT, ""),
        ("--offset1", str, NO_DEFAULT, ""),
        ("--lam2", str, NO_DEFAULT, ""),
        ("--offset2", str, NO_DEFAULT, ""),
        ("--out", str, None, ""),
    )),
    "flat-poly": (cmd_flat_poly, "L1-minimal flat polynomial via integer exchange", (
        ("--flatness", int, NO_DEFAULT, "order of the root at 1"),
        ("--degree", int, None, "fix the degree"),
        ("--margin", str, DEFAULT_MARGIN, ""),
        ("--degree-max", int, FLAT_DEGREE_CAP, ""),
        ("--out", str, NO_DEFAULT, ""),
    )),
    "jet-system": (cmd_jet_system, "build the covered jet-space system", (
        ("--order", int, NO_DEFAULT, "jet order r >= 0"),
        ("--lam", str, "auto", ""),
        ("--margin", str, DEFAULT_MARGIN, ""),
        ("--degree-max", int, FLAT_DEGREE_CAP, ""),
        ("--out", str, NO_DEFAULT, ""),
    )),
    "realize": (cmd_realize, "realize a target jet as a continuation jet", (
        ("--system", str, NO_DEFAULT, "jet-system JSON"),
        ("--target", str, NO_DEFAULT, "target jet JSON"),
        ("--tol", str, "1/100000000", ""),
        ("--max-steps", int, DEFAULT_MAX_STEPS, ""),
        ("--out", str, NO_DEFAULT, ""),
    )),
    "blender-render": (cmd_blender_render, "raster of unstable segments", (
        ("--lam", str, NO_DEFAULT, ""),
        ("--a", str, "0", ""),
        ("--depth", int, NO_DEFAULT, ""),
        ("--width", int, 512, ""),
        ("--height", int, 512, ""),
        ("--out", str, NO_DEFAULT, ""),
    )),
    "blender-cover": (cmd_blender_cover, "exact covering check for the example", (
        ("--lam", str, NO_DEFAULT, ""),
        ("--overhang", str, "1/10", ""),
        ("--margin", str, "1/100", ""),
        ("--max-depth", int, DEFAULT_MAX_DEPTH, ""),
        ("--out", str, NO_DEFAULT, ""),
    )),
    "nearly-affine": (cmd_nearly_affine, "grid distance to the affine models", (
        ("--lam", str, NO_DEFAULT, ""),
        ("--table-plus", str, NO_DEFAULT, "CSV sample table"),
        ("--table-minus", str, NO_DEFAULT, "CSV sample table"),
        ("--grid-step", str, NO_DEFAULT, ""),
        ("--out", str, NO_DEFAULT, ""),
    )),
}


@functools.lru_cache(maxsize=None)
def _top_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="jetcover",
        description="certified IFS coverings, jet lifts, and blender demos",
        epilog="commands:\n" + "\n".join(
            f"  {name:<17} {help_}" for name, (_, help_, _) in COMMANDS.items()
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    top.add_argument("--config", help="JSON file with option defaults")
    top.add_argument(
        "command", choices=COMMANDS, metavar="command", help="one of the commands below"
    )
    top.add_argument(
        "arguments", nargs=argparse.REMAINDER,
        help="the command's options, listed by jetcover <command> --help",
    )
    return top


@functools.lru_cache(maxsize=None)
def _command_parser(command: str) -> argparse.ArgumentParser:
    """The command's parser, with the table's defaults."""
    _, help_, options = COMMANDS[command]
    parser = argparse.ArgumentParser(prog=f"jetcover {command}", description=help_)
    for flag, kind, default, text in options:
        parser.add_argument(flag, type=kind, default=default, help=text)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    chosen = _top_parser().parse_args(sys.argv[1:] if argv is None else list(argv))
    handler, _, options = COMMANDS[chosen.command]
    flags = [flag for flag, *_ in options]
    dests = [flag[2:].replace("-", "_") for flag in flags]
    try:
        config = {}
        if chosen.config:
            config = _load_json(chosen.config)
            if not isinstance(config, dict):
                raise CertificateFormatError("config file must hold a JSON object")
            config = {key.replace("-", "_"): value for key, value in config.items()}
        for dest, (flag, kind, _, _) in zip(dests, options):
            value = config.get(dest, "")
            if not (isinstance(value, str) or kind is int and type(value) is int):
                raise CertificateFormatError(
                    f"config key {flag[2:]!r}: {json.dumps(value)} is not a string"
                    + (" or an integer" if kind is int else "")
                )
        # config values go first as --flag=value, so a flag on the command line wins
        leading = [f"{flag}={config[dest]}" for dest, flag in zip(dests, flags) if dest in config]
        args = _command_parser(chosen.command).parse_args(
            leading + _joined(chosen.arguments, flags))
        missing = [flag for dest, flag in zip(dests, flags) if getattr(args, dest) is NO_DEFAULT]
        if missing:
            print(f"error: missing required option(s): {', '.join(missing)}", file=sys.stderr)
            return EXIT_INVALID
        return handler(args)
    except (JetcoverError, OSError) as exc:
        if isinstance(exc, ConstructionError):
            raise  # invariant violations should crash loudly
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
