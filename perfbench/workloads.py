"""The benchmark workloads.  realize-o2 runs here but is not in BENCHMARK.json.

Each workload has the same shape:

- ``setup(work_dir)`` imports jetcover afresh and builds what every op
  needs; it returns bytes that must be identical on every repetition;
- ``inputs(rng)`` yields op inputs from a seeded generator, forever;
- ``op(inp)`` runs one timed op and returns an `OpRecord`;
- ``check(rec)`` is the independent, untimed check of one op's output.

The program only sees the generated files and arguments.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import sys
from fractions import Fraction
from time import perf_counter
from types import SimpleNamespace

PROGRAM_MODULES = (
    "cli", "serialize", "jetcovering", "covering", "boxes", "ifs", "jets",
    "flatpoly",
)


def load_program() -> SimpleNamespace:
    """Import jetcover from scratch, so every set-up pays for its imports."""
    for name in list(sys.modules):
        if name == "jetcover" or name.startswith("jetcover."):
            del sys.modules[name]
    importlib.invalidate_caches()
    return SimpleNamespace(**{
        name: importlib.import_module("jetcover." + name) for name in PROGRAM_MODULES
    })


@dataclasses.dataclass
class OpRecord:
    inp: object
    latency_s: float
    output: bytes = b""  # the primary output, fingerprinted in op order
    ok: bool = True  # False when the op raised or exited non-zero
    error: str = ""
    passed: bool = False  # the op succeeded and its output passed the check
    digest: bytes = b""  # sha256 of the output, which is then dropped
    ref_s: float = 0.0  # mean reference time just before and after the op


def _run_cli(jc, argv, out_path):
    start = perf_counter()
    code = jc.cli.main(argv)
    latency = perf_counter() - start
    with open(out_path, "rb") as handle:
        output = handle.read()
    return latency, code, output


class Realize:
    """One in-process ``jetcover realize`` per op on a fresh seeded target."""

    tol = "1/100000000"

    def __init__(self, name: str, order: int, trace_ops: int):
        self.name = name
        self.order = order
        self.trace_ops = trace_ops

    def setup(self, work_dir: str) -> bytes:
        self.jc = load_program()
        self.system_path = os.path.join(work_dir, "system.json")
        self.target_path = os.path.join(work_dir, "target.json")
        self.out_path = os.path.join(work_dir, "realization.json")
        argv = ["jet-system", "--order", str(self.order), "--out", self.system_path]
        if self.jc.cli.main(argv) != 0:
            raise RuntimeError(f"jet-system --order {self.order} failed")
        with open(self.system_path, "rb") as handle:
            data = handle.read()
        payload = json.loads(data)
        self.lam = Fraction(payload["lam"])
        self.projection = [[Fraction(e) for e in row] for row in payload["projection"]]
        self.bounds = [Fraction(hi) for _, hi in payload["pullback_box"]]
        return data

    def inputs(self, rng):
        """Targets reverse(P u*), u* uniform on a 10^-4 grid in 95% of the box."""
        while True:
            u = [Fraction(rng.randint(-9500, 9500), 10000) * b for b in self.bounds]
            x = [sum(a * v for a, v in zip(row, u)) for row in self.projection]
            yield tuple(reversed(x))

    def op(self, target) -> OpRecord:
        with open(self.target_path, "w", encoding="utf-8") as handle:
            coeffs = [str(c) for c in target]
            json.dump({"order": self.order, "dim": 1, "coeffs": coeffs}, handle)
        argv = ["realize", "--system", self.system_path, "--target", self.target_path,
                "--tol", self.tol, "--out", self.out_path]
        latency, code, output = _run_cli(self.jc, argv, self.out_path)
        return OpRecord(target, latency, output, ok=code == 0,
                        error="" if code == 0 else f"exit code {code}")

    def check(self, rec: OpRecord) -> bool:
        """Lifted-map continuation jet of the itinerary hits the target exactly
        within achieved_residual, and achieved <= bound <= tol."""
        payload = json.loads(rec.output)
        if payload.get("certified") is not True:
            return False
        word = payload["itinerary"]
        if len(word) != payload["steps"] or not word or set(word) - {"+", "-"}:
            return False
        families = self.jc.jets.standard_families(self.lam, self.order)
        realized = self.jc.jets.continuation_jet(families, tuple(word), self.order)
        achieved = max(abs(t - row[0]) for t, row in zip(rec.inp, realized.coeffs))
        return (
            len(realized.coeffs) == len(rec.inp)
            and achieved == Fraction(payload["achieved_residual"])
            and achieved <= Fraction(payload["residual_bound"]) <= Fraction(self.tol)
        )


class JetSystem:
    """One in-process ``jetcover jet-system --order 3 --lam λ`` per op."""

    name = "jet-system"
    order = 3
    trace_ops = 3

    def setup(self, work_dir: str) -> bytes:
        self.jc = load_program()
        self.out_path = os.path.join(work_dir, "jet-system.json")
        flat = self.jc.flatpoly.find_flat_poly(self.order + 1)
        threshold = self.jc.flatpoly.lambda_threshold(flat)
        first = threshold.numerator * 1024 // threshold.denominator + 1
        # "auto" and every 2^-10 grid value strictly above the threshold
        self.lams = ["auto"] + [str(Fraction(k, 1024)) for k in range(first, 1024)]
        return " ".join([str(threshold)] + self.lams).encode("ascii")

    def inputs(self, rng):
        while True:
            yield rng.choice(self.lams)

    def op(self, lam) -> OpRecord:
        argv = ["jet-system", "--order", str(self.order), "--lam", lam,
                "--out", self.out_path]
        latency, code, output = _run_cli(self.jc, argv, self.out_path)
        return OpRecord(lam, latency, output, ok=code == 0,
                        error="" if code == 0 else f"exit code {code}")

    def check(self, rec: OpRecord) -> bool:
        """The system reloads (re-verifying the semi-conjugacy) and its window
        leaves tile the functional range exactly."""
        payload = json.loads(rec.output)
        if payload.get("built") is not True:
            return False
        system = self.jc.serialize.jet_system_from_payload(payload)
        if system.jet_dim != self.order + 1 or str(system.lam) != payload["lam"]:
            return False
        cover = payload["delta_covering"]
        lo, hi = (Fraction(e) for e in cover["functional_range"])
        leaves = sorted(
            (Fraction(a), Fraction(b), label)
            for (a, b), label in cover["window_leaves"]
        )
        edge = lo
        for a, b, label in leaves:
            if a != edge or b <= a or label not in ("+", "-"):
                return False
            edge = b
        return bool(leaves) and edge == hi


# (λ, margin, h) for x -> λx + (±1, ±1) on [-2, h]^2; each gives a
# 559-leaf certificate, so every op does the same amount of work, and an
# op (0.2 to 0.4 s) is short enough to sit between two reference timings
COVER_PARAMS = (
    ('71/128', '1/200', '13/8'), ('71/128', '1/200', '131/80'),
    ('71/128', '1/200', '33/20'), ('71/128', '1/200', '133/80'),
    ('285/512', '1/200', '129/80'), ('285/512', '1/100', '13/8'),
    ('285/512', '1/200', '13/8'), ('285/512', '1/100', '131/80'),
    ('285/512', '1/200', '131/80'), ('285/512', '1/100', '33/20'),
    ('285/512', '1/200', '33/20'), ('285/512', '1/100', '133/80'),
    ('285/512', '1/200', '133/80'), ('143/256', '1/100', '129/80'),
    ('143/256', '1/200', '129/80'), ('143/256', '1/100', '13/8'),
    ('143/256', '1/200', '13/8'), ('143/256', '1/100', '131/80'),
    ('143/256', '1/200', '131/80'), ('143/256', '1/100', '33/20'),
    ('143/256', '1/200', '33/20'), ('287/512', '1/200', '8/5'),
    ('287/512', '1/100', '129/80'), ('287/512', '1/200', '129/80'),
    ('287/512', '1/100', '13/8'), ('287/512', '1/200', '13/8'),
    ('287/512', '1/100', '131/80'), ('287/512', '1/200', '131/80'),
    ('287/512', '1/100', '33/20'), ('9/16', '1/100', '8/5'),
    ('9/16', '1/200', '8/5'), ('9/16', '1/100', '129/80'),
    ('9/16', '1/200', '129/80'), ('9/16', '1/100', '13/8'),
    ('9/16', '1/200', '13/8'), ('9/16', '1/100', '131/80'),
    ('9/16', '1/200', '131/80'), ('289/512', '1/100', '8/5'),
    ('289/512', '1/200', '8/5'), ('289/512', '1/100', '129/80'),
    ('289/512', '1/200', '129/80'), ('289/512', '1/100', '13/8'),
    ('289/512', '1/200', '13/8'), ('289/512', '1/100', '131/80'),
    ('145/256', '1/100', '8/5'), ('145/256', '1/200', '8/5'),
    ('145/256', '1/100', '129/80'), ('145/256', '1/200', '129/80'),
    ('145/256', '1/100', '13/8'), ('145/256', '1/200', '13/8'),
    ('291/512', '1/100', '8/5'), ('291/512', '1/200', '8/5'),
    ('291/512', '1/100', '129/80'), ('291/512', '1/200', '129/80'),
    ('73/128', '1/100', '8/5'), ('73/128', '1/200', '8/5'),
    ('73/128', '1/100', '129/80'), ('293/512', '1/100', '8/5'),
)


class _Cover:
    """Shared by the two halves of the covering-certificate round trip."""

    trace_ops = 1

    def setup(self, work_dir: str) -> bytes:
        self.jc = load_program()
        self.dropped_checked = False
        return repr(COVER_PARAMS).encode("ascii")

    def certify(self, params):
        """The producer half: certificate of one parameter triple, as JSON text."""
        jc = self.jc
        lam, margin, h = (Fraction(p) for p in params)
        maps = {
            label: jc.ifs.AffineMap([[lam, 0], [0, lam]], [sx, sy])
            for label, sx, sy in (("a", 1, 1), ("b", 1, -1),
                                  ("c", -1, 1), ("d", -1, -1))
        }
        system = jc.ifs.IFSystem(("a", "b", "c", "d"), maps)
        side = jc.boxes.Interval(Fraction(-2), h)
        target = jc.boxes.Box([side, side])
        outcome = jc.covering.certify_covering(system, target, margin)
        return jc.serialize.canonical_json(jc.serialize.covering_outcome_payload(outcome))

    def check_dropped_leaf(self, text: str, where: float) -> bool:
        """Once per run: a copy of the certificate with one leaf dropped
        must be rejected.  True when it is, or when already done."""
        if self.dropped_checked:
            return True
        self.dropped_checked = True
        cert = self.jc.serialize.load_certificate(json.loads(text))
        drop = int(where * len(cert.leaves))
        leaves = cert.leaves[:drop] + cert.leaves[drop + 1:]
        cut = dataclasses.replace(cert, leaves=leaves)
        return not self.jc.covering.check_certificate(cut)


class CertCertify(_Cover):
    """Producer half: `certify_covering` and `canonical_json` of one planar
    covering certificate."""

    name = "cert-certify"

    def inputs(self, rng):
        while True:
            yield rng.choice(COVER_PARAMS), rng.random()

    def op(self, inp) -> OpRecord:
        start = perf_counter()
        text = self.certify(inp[0])
        latency = perf_counter() - start
        return OpRecord(inp, latency, text.encode("ascii"))

    def check(self, rec: OpRecord) -> bool:
        """`check_certificate` accepts the reloaded certificate; once per run,
        a copy with one leaf dropped is rejected."""
        text = rec.output.decode("ascii")
        payload = json.loads(text)
        if payload.get("verified") is not True or not payload["leaves"]:
            return False
        cert = self.jc.serialize.load_certificate(payload)
        return (self.jc.covering.check_certificate(cert)
                and self.check_dropped_leaf(text, rec.inp[1]))


class CertCheck(_Cover):
    """Checker half: `load_certificate` and `check_certificate` of one planar
    covering certificate.  Each certificate is made the first time its
    parameters are drawn, while the input is generated, outside the op's
    timing; later draws reuse it, so more of a run goes to timed ops."""

    name = "cert-check"

    def inputs(self, rng):
        made = {}
        while True:
            params, where = rng.choice(COVER_PARAMS), rng.random()
            if params not in made:
                made[params] = self.certify(params)
            yield params, where, made[params]

    def op(self, inp) -> OpRecord:
        text = inp[2]
        start = perf_counter()
        cert = self.jc.serialize.load_certificate(json.loads(text))
        accepted = self.jc.covering.check_certificate(cert)
        latency = perf_counter() - start
        verdict = b"accepted\n" if accepted else b"rejected\n"
        return OpRecord(inp[:2], latency, verdict + text.encode("ascii"),
                        ok=accepted, error="" if accepted else "certificate rejected")

    def check(self, rec: OpRecord) -> bool:
        """The certificate came from `certify_covering`, so accepting it is
        right; once per run, a copy with one leaf dropped is rejected."""
        text = rec.output.decode("ascii").split("\n", 1)[1]
        return self.check_dropped_leaf(text, rec.inp[1])


WORKLOADS = {
    "realize-o1": lambda: Realize("realize-o1", 1, trace_ops=10),
    "realize-o2": lambda: Realize("realize-o2", 2, trace_ops=1),
    "jet-system": JetSystem,
    "cert-certify": CertCertify,
    "cert-check": CertCheck,
}
