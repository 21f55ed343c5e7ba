"""Span recorder that wraps jetcover's public functions from outside.

A `Tracer` replaces each traced function, in every ``jetcover`` module
namespace that bound it, with a wrapper that records a span
``(name, start, end, parent, op)``.  Spans stay in memory; `layer_metrics`
turns them into per-layer call counts and self times, and `write_spans`
saves them as JSON lines at the end of a run.  `uninstall` puts every
original back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# functions that get a span, as (module, attribute) under ``jetcover``
SPANNED = (
    ("cli", "main"),
    ("serialize", "jet_system_from_payload"),
    ("serialize", "load_certificate"),
    ("serialize", "canonical_json"),
    ("serialize", "write_atomic"),
    ("jetcovering", "certify_membership"),
    ("jetcovering", "realize_jet"),
    ("jetcovering", "greedy_pullback_step"),
    ("jetcovering", "build_system"),
    ("simplex", "lp_solve"),
    ("linalg", "mat_mul"),
    ("linalg", "inf_norm_mat"),
    ("linalg", "inverse"),
    ("jets", "continuation_jet"),
    ("flatpoly", "find_flat_poly"),
    ("flatpoly", "lambda_threshold"),
    ("flatpoly", "scale_to_p"),
    ("covering", "certify_covering"),
    ("covering", "check_certificate"),
    ("covering", "inverse_image_box"),
)

# methods called too often for a span each (L(L-1)/2 times per certificate
# check): only their calls are counted
COUNTED = (("boxes", "Box", "interiors_disjoint"),)


def _den_bits(values) -> int:
    return max((v.denominator.bit_length() for v in values), default=0)


# size counters read from a traced call's arguments and result
def _observe_lp(counts, maxima, args, result):
    problem = args[0]
    maxima["simplex.lp_rows_max"] = max(maxima["simplex.lp_rows_max"], len(problem.b))
    maxima["simplex.lp_cols_max"] = max(
        maxima["simplex.lp_cols_max"], len(problem.objective)
    )


def _observe_membership(counts, maxima, args, result):
    if result.witness is not None:
        bits = _den_bits(result.witness)
        maxima["jetcovering.witness_den_bits"] = max(
            maxima["jetcovering.witness_den_bits"], bits
        )


def _observe_realize(counts, maxima, args, result):
    maxima["jetcovering.steps_k"] = max(maxima["jetcovering.steps_k"], result.steps)
    maxima["jetcovering.residual_den_bits"] = max(
        maxima["jetcovering.residual_den_bits"],
        result.achieved_residual.denominator.bit_length(),
    )


def _observe_flat(counts, maxima, args, result):
    counts["flatpoly.degrees_tried"] += len(result.history)


def _observe_certificate(maxima, cert):
    maxima["covering.leaves"] = max(maxima["covering.leaves"], len(cert.leaves))
    maxima["covering.depth"] = max(maxima["covering.depth"], cert.depth_used)


def _observe_cover(counts, maxima, args, result):
    if getattr(result, "leaves", None) is None:  # a CoveringFailure
        return
    _observe_certificate(maxima, result)
    counts["covering.maps_per_certificate"] += len(result.system.alphabet)


def _observe_check(counts, maxima, args, result):
    _observe_certificate(maxima, args[0])


def _observe_json(counts, maxima, args, result):
    counts["serialize.out_bytes"] += len(result.encode("utf-8"))


OBSERVERS = {
    "simplex.lp_solve": _observe_lp,
    "jetcovering.certify_membership": _observe_membership,
    "jetcovering.realize_jet": _observe_realize,
    "flatpoly.find_flat_poly": _observe_flat,
    "covering.certify_covering": _observe_cover,
    "covering.check_certificate": _observe_check,
    "serialize.canonical_json": _observe_json,
}


def _package_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "jetcover" or name.startswith("jetcover."))
    ]


class Tracer:
    """In-memory spans and counters for one traced pass over a list of ops."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.counts = Counter()
        self.maxima = Counter()
        self.op_id = -1
        self._stack = []
        self._patched = []

    def _span(self, name, fn):
        tracer = self
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op_id)
            if observe is not None:
                observe(tracer.counts, tracer.maxima, args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def tracing(self, op_id: int):
        """Trace one op: patch on entry, restore on exit."""
        self.op_id = op_id
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def install(self) -> None:
        """Patch every traced name in each jetcover namespace that bound it."""
        modules = _package_modules()
        for module_name, attr in SPANNED:
            owner = sys.modules["jetcover." + module_name]
            original = getattr(owner, attr)
            wrapper = self._span(f"{module_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
        for module_name, cls_name, attr in COUNTED:
            cls = getattr(sys.modules["jetcover." + module_name], cls_name)
            original = cls.__dict__[attr]
            name = f"{module_name}.{cls_name}.{attr}.calls"
            setattr(cls, attr, self._counter(name, original))
            self._patched.append((cls, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def calls_under(spans, name, ancestor):
    """Number of `name` spans that have an `ancestor` span above them."""
    found = 0
    for span_name, _, _, parent, _ in spans:
        if span_name != name:
            continue
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        found += parent >= 0
    return found


def self_times(spans):
    """Per-name (calls, self seconds); self = duration minus direct children.

    Children of one span run one after another on one thread, so the sum
    of their durations is the part of the parent they cover.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls = Counter()
    self_s = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - covered[i]
    return calls, self_s


# reported per-layer metrics: name -> unit
CALLS = (
    "simplex.lp_solve",
    "jetcovering.certify_membership",
    "jetcovering.greedy_pullback_step",
    "jetcovering.build_system",
    "linalg.mat_mul",
    "linalg.inf_norm_mat",
    "linalg.inverse",
    "jets.continuation_jet",
    "covering.inverse_image_box",
    "serialize.write_atomic",
)
SELF_S = (
    "simplex.lp_solve",
    "jetcovering.realize_jet",
    "jetcovering.greedy_pullback_step",
    "jetcovering.build_system",
    "linalg.mat_mul",
    "linalg.inf_norm_mat",
    "linalg.inverse",
    "jets.continuation_jet",
    "flatpoly.find_flat_poly",
    "flatpoly.lambda_threshold",
    "flatpoly.scale_to_p",
    "covering.certify_covering",
    "covering.check_certificate",
    "serialize.jet_system_from_payload",
    "serialize.load_certificate",
    "serialize.canonical_json",
    "cli.main",
)
SIZES = {
    "simplex.lp_rows_max": "count",
    "simplex.lp_cols_max": "count",
    "jetcovering.steps_k": "count",
    "jetcovering.witness_den_bits": "bits",
    "jetcovering.residual_den_bits": "bits",
    "flatpoly.degrees_tried": "count",
    "covering.leaves": "count",
    "covering.depth": "count",
    "boxes.Box.interiors_disjoint.calls": "count",
    "serialize.out_bytes": "B",
}
RATIOS = ("jetcovering.membership_per_op", "covering.inversions_per_map")


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{name}.calls": "count" for name in CALLS}
    units.update({f"{name}.self_s": "s" for name in SELF_S})
    units.update(SIZES)
    units.update({name: "ratio" for name in RATIOS})
    units["trace.overhead"] = "ratio"
    return units


def layer_metrics(tracer: Tracer):
    """Per-layer values from one traced pass: totals, maxima and ratios.

    Counts are totals over the pass, sizes are maxima, and self times are
    total seconds.  Everything but the self times repeats exactly for the
    same inputs.  `covering.inversions_per_map` counts only the inversions
    made by the producer, `certify_covering`, per map of each certificate
    it made.
    """
    calls, self_s = self_times(tracer.spans)
    values = {f"{name}.calls": calls[name] for name in CALLS}
    values.update({f"{name}.self_s": self_s[name] for name in SELF_S})
    for name in SIZES:
        values[name] = tracer.counts[name] + tracer.maxima[name]
    realizations = calls["jetcovering.realize_jet"]
    values["jetcovering.membership_per_op"] = (
        calls["jetcovering.certify_membership"] / realizations if realizations else 0
    )
    maps = tracer.counts["covering.maps_per_certificate"]
    inversions = calls_under(tracer.spans, "linalg.inverse", "covering.certify_covering")
    values["covering.inversions_per_map"] = inversions / maps if maps else 0
    return values
