"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, plain and traced, and checks that
every metric named in BENCHMARK.json is reported with its unit, and that a
deliberately corrupted realize output is counted as a failure.  Exits
non-zero on the first problem.  Takes about two minutes.
"""

from __future__ import annotations

import json
import os
import sys

import run


def corrupt_itinerary(rec) -> None:
    """Flip the first branch of a realization, keeping the JSON well formed."""
    payload = json.loads(rec.output)
    word = payload["itinerary"]
    payload["itinerary"] = ("-" if word[0] == "+" else "+") + word[1:]
    rec.output = json.dumps(payload).encode("ascii")


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            report = run.run(workload, seed=7, seconds=0.5, trace=trace)
            got = {name: entry["unit"] for name, entry in report["metrics"].items()}
            expect(got == wanted[trace],
                   f"{workload} trace={trace} metrics/units differ from BENCHMARK.json")
            expect(report["correct"] and report["failed"] == 0,
                   f"{workload} trace={trace} reported a failure")
            print(f"ok {workload} trace={trace}: {len(got)} metrics, "
                  f"{report['attempted']} ops")
    print("corrupting one realize output; one FAILED check line is expected")
    report = run.run("realize-o1", seed=7, seconds=0.5, trace=0,
                     corrupt=corrupt_itinerary)
    expect(report["failed"] >= 1 and report["extra"]["fail_ratio"] > 0
           and not report["correct"], "corrupted realize output was not counted")
    print(f"ok corrupted realize output counted: fail_ratio "
          f"{report['extra']['fail_ratio']:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
