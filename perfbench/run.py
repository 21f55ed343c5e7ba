"""jetcover benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload realize-o1 --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.

``--trace 0`` sets up the workload, then runs ops in a closed loop with one
client until ``--seconds`` have passed; between ops it times set-ups in
fresh processes.
Each output is checked independently right after its op, outside the op's
timing.  ``--trace 1`` runs the workload's fixed traced op list three
times on the same inputs: plain, then traced twice.  It reports per-layer
metrics from the first traced pass and the tracing overhead.  It fails
when the two traced passes count differently or any pass's outputs differ.

Human-readable lines (run context, every metric with its unit,
fingerprints) come first; the last line of standard output is the JSON
result.  A full report and the spans go to ``.perfbench_out/``.  See
README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from time import perf_counter

import tracing
from workloads import WORKLOADS, OpRecord

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_RUNS = 8
# seconds the reference takes at full speed on the machine the bounds were
# tuned on (2-vCPU x86-64 VM); set-up times are scaled to that speed
REFERENCE_NOMINAL_S = 0.015

# bounded in BENCHMARK.json: the op time in units of the reference
# computation, and the set-up time at the reference's nominal speed
END_TO_END = {
    "op_p50_ref": "ref",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
# printed and kept in the report, not bounded: they follow the machine's speed
SECONDS = {
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "reference_p50_s": "s",
    "setup_raw_s": "s",
}


@dataclasses.dataclass(frozen=True)
class _Span:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty span")


def reference_s() -> float:
    """Seconds taken by a fixed piece of exact-rational work.

    It is timed before and after every op.  On a shared machine the CPU
    can run at about half speed for tens of seconds at a time; an op's time
    divided by the mean of its two reference times stays steady when that
    happens.  The work mixes the three kinds jetcover does: big-integer
    growth, small-fraction arithmetic, and bisection into many small
    frozen objects.
    """
    start = perf_counter()
    stack = [(Fraction(-2), Fraction(2), 0)]
    spans = []
    while stack:
        lo, hi, depth = stack.pop()
        if depth == 10:
            spans.append(_Span(lo, hi))
            continue
        mid = (lo + hi) / 2
        stack.append((mid, hi, depth + 1))
        stack.append((lo, mid, depth + 1))
    big = Fraction(1, 3)
    for _ in range(1000):
        big = big * Fraction(7, 5) + Fraction(1, 7)
    small = Fraction(0)
    table = {}
    for i in range(1, 800):
        small += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, i % 5 + 4)
        if small > 10:
            small -= 10
        table[i % 50] = (small.numerator % 97, str(small.denominator))  # dict work
    return perf_counter() - start


def run_context(workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fingerprint(records) -> str:
    """sha256 over the per-op sha256 of each primary output, in op order."""
    outer = hashlib.sha256()
    for rec in records:
        outer.update(rec.digest)
    return outer.hexdigest()


def tail(latencies):
    """Latency at the highest percentile with at least 10 ops beyond it."""
    n = len(latencies)
    if n < 20:
        return None
    ordered = sorted(latencies)
    return ordered[n - 11], 100.0 * (n - 10) / n


def check(workload, rec) -> None:
    """Independent, untimed check of one op; sets rec.passed."""
    if not rec.ok:
        print(f"FAILED op: {rec.error.strip()}", file=sys.stderr)
        return
    try:
        rec.passed = workload.check(rec)
    except Exception:
        print(traceback.format_exc(limit=3), file=sys.stderr)
    if not rec.passed:
        print(f"FAILED check on input {rec.inp!r:.120}", file=sys.stderr)


def run_ops(workload, inputs, deadline=None, around=None, corrupt=None, between=None):
    """Closed loop, one client: the next op starts when the last one ends.

    Each output is checked and fingerprinted right after its op, outside
    the op's timing and outside `around(op_index)`, which wraps the op
    alone.  The reference is timed before the first op and after each
    check.  `between()` runs after that, and returns True when it did
    something.  Returns the records and the seconds spent in ops.
    """
    records = []
    busy = 0.0
    ref_before = reference_s()
    for index, inp in enumerate(inputs):
        start = perf_counter()
        with around(index) if around else contextlib.nullcontext():
            try:
                rec = workload.op(inp)
            except Exception:  # a crashing op is a counted failure, not a stop
                rec = OpRecord(inp, 0.0, ok=False, error=traceback.format_exc(limit=3))
        busy += perf_counter() - start
        if corrupt is not None and not records:
            corrupt(rec)
        check(workload, rec)
        rec.digest = hashlib.sha256(rec.output).digest()
        rec.output = b""  # keep only the digest, so memory does not grow with ops
        ref_after = reference_s()
        rec.ref_s = (ref_before + ref_after) / 2
        ref_before = ref_after
        records.append(rec)
        if deadline is not None and perf_counter() >= deadline:
            break
        if between is not None and between():
            ref_before = reference_s()
    return records, busy


def make_work_dir(workload_name: str) -> str:
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{workload_name}-", dir=work_root)


def setup_once(workload_name: str):
    """Time one set-up of a workload in this process.

    Returns (set-up seconds, reference seconds, sha256 of the output).  The
    reference is the mean of five timings just before the set-up and five
    just after, taken in the same process, so on the same CPU.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    work_dir = make_work_dir(workload_name)
    try:
        workload = WORKLOADS[workload_name]()
        before = statistics.mean(reference_s() for _ in range(5))
        start = perf_counter()
        data = workload.setup(work_dir)
        elapsed = perf_counter() - start
        after = statistics.mean(reference_s() for _ in range(5))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return elapsed, (before + after) / 2, hashlib.sha256(data).hexdigest()


def setup_in_child(workload_name: str):
    """`setup_once` in a fresh interpreter, so it pays for every import."""
    done = subprocess.run(
        [sys.executable, "-c", "import sys, run; print(*run.setup_once(sys.argv[1]))",
         workload_name],
        cwd=HERE, capture_output=True, text=True, timeout=170, check=True,
    )
    seconds, ref, digest = done.stdout.split()
    return float(seconds), float(ref), digest


def measure(workload, seed, seconds, work_dir, corrupt=None):
    """The plain run: end-to-end metrics with nothing wrapped.

    Set-up is timed in fresh child processes: one after the first op, then
    one every 1/SETUP_RUNS of the run, at least 3 in all.  Each set-up time
    is divided by the reference time of its own process, and `setup_s` is
    the median of these ratios in seconds at the reference's nominal speed.
    """
    own_setup = hashlib.sha256(workload.setup(work_dir)).hexdigest()
    setups = []
    next_setup = perf_counter()

    def between() -> bool:
        nonlocal next_setup
        if perf_counter() < next_setup:
            return False
        setups.append(setup_in_child(workload.name))
        next_setup = perf_counter() + seconds / SETUP_RUNS
        return True

    inputs = workload.inputs(random.Random(f"{workload.name}:{seed}"))
    records, busy = run_ops(workload, inputs, deadline=perf_counter() + seconds,
                            corrupt=corrupt, between=between)
    while len(setups) < 3:
        setups.append(setup_in_child(workload.name))
    setup_agree = {digest for _, _, digest in setups} == {own_setup}
    failed = sum(not rec.passed for rec in records)
    latencies = [rec.latency_s for rec in records]
    metrics = {
        "op_p50_ref": statistics.median(rec.latency_s / rec.ref_s for rec in records),
        "setup_s": REFERENCE_NOMINAL_S * statistics.median(
            elapsed / ref for elapsed, ref, _ in setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "op_p50_s": statistics.median(latencies),
        "ops_per_s": len(records) / busy,
        "reference_p50_s": statistics.median(rec.ref_s for rec in records),
        "setup_raw_s": statistics.median(elapsed for elapsed, _, _ in setups),
    }
    extra = {
        "fail_ratio": failed / len(records),
        "fingerprint": fingerprint(records),
        "setup_outputs_agree": setup_agree,
        "seconds": {name: {"value": raw[name], "unit": unit}
                    for name, unit in SECONDS.items()},
        "latencies_s": latencies,
        "reference_s": [rec.ref_s for rec in records],
        "setups_s": [elapsed for elapsed, _, _ in setups],
        "setup_references_s": [ref for _, ref, _ in setups],
    }
    found = tail(latencies)
    if found is not None:
        extra["op_tail_s"] = found[0]
        extra["op_tail_percentile"] = found[1]
    return {
        "correct": failed == 0 and setup_agree,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
        "extra": extra,
    }


def measure_traced(workload, seed, out_dir, work_dir):
    """Plain pass, then two traced passes, over the same fixed op list."""
    workload.setup(work_dir)
    inputs = workload.inputs(random.Random(f"{workload.name}:{seed}"))
    op_inputs = [next(inputs) for _ in range(workload.trace_ops)]
    plain, _ = run_ops(workload, op_inputs)
    tracers = [tracing.Tracer(), tracing.Tracer()]
    traced, _ = run_ops(workload, op_inputs, around=tracers[0].tracing)
    retraced, _ = run_ops(workload, op_inputs, around=tracers[1].tracing)

    passes = (plain, traced, retraced)
    failed = sum(not rec.passed for records in passes for rec in records)
    prints = [fingerprint(records) for records in passes]
    values = tracing.layer_metrics(tracers[0])
    repeat = tracing.layer_metrics(tracers[1])
    differing = sorted(
        name for name in values
        if not name.endswith(".self_s") and values[name] != repeat[name]
    )
    for name in differing:
        print(f"FLAG count differs between traced passes: {name} "
              f"{values[name]} != {repeat[name]}", file=sys.stderr)
    values["trace.overhead"] = (
        statistics.median(r.latency_s / r.ref_s for r in traced)
        / statistics.median(r.latency_s / r.ref_s for r in plain)
    )
    tracers[0].write_spans(
        os.path.join(out_dir, f"spans-{workload.name}-seed{seed}.jsonl"))
    attempted = sum(len(records) for records in passes)
    return {
        "correct": failed == 0 and len(set(prints)) == 1 and not differing,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
        "extra": {
            "fail_ratio": failed / attempted,
            "fingerprint": prints[0],
            "fingerprints_agree": len(set(prints)) == 1,
            "counts_differ": differing,
        },
    }


def run(workload_name, seed, seconds, trace, corrupt=None):
    """Run one workload; returns the report (result keys plus context)."""
    if not os.path.isfile(os.path.join(SRC, "jetcover", "__init__.py")):
        raise FileNotFoundError(f"no jetcover sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    workload = WORKLOADS[workload_name]()
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    work_dir = make_work_dir(workload_name)
    try:
        if trace:
            report = measure_traced(workload, seed, out_dir, work_dir)
            units = tracing.metric_units()
        else:
            report = measure(workload, seed, seconds, work_dir, corrupt)
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    report["metrics"] = {
        name: {"value": report["metrics"][name], "unit": unit}
        for name, unit in units.items()
    }
    report["context"] = dict(run_context(workload_name, seed),
                             ops=report["attempted"], trace=trace, seconds=seconds)
    path = os.path.join(out_dir, f"{workload_name}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    return report


def print_report(report) -> None:
    ctx = report["context"]
    name = ctx["workload"]
    print("context: " + " ".join(f"{k}={v}" for k, v in ctx.items()))
    for metric, entry in report["metrics"].items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    extra = report["extra"]
    for metric, entry in extra.get("seconds", {}).items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    print(f"{name} fail_ratio {extra['fail_ratio']:.6g} failed/attempted "
          f"({report['failed']}/{report['attempted']})")
    if "op_tail_s" in extra:
        print(f"{name} op_tail_s {extra['op_tail_s']:.6g} s "
              f"(p{extra['op_tail_percentile']:.1f} of {report['attempted']} ops)")
    print(f"{name} fingerprint seed={ctx['seed']} ops={report['attempted']} "
          f"sha256={extra['fingerprint']}")
    result = {key: report[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = run(args.workload, args.seed, args.seconds, args.trace)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
