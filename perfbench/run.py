#!/usr/bin/env python3
"""The repository benchmark: paper tables and the query server, end to end.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload table-narrow --seed 1 --seconds 10 --trace 0

Workloads: ``table-narrow``, ``table-paper``, ``serve-cold`` and
``serve-hot`` (see perfbench/README.md).  ``--trace 0`` measures and
prints every end-to-end metric; ``--trace 1`` repeats the measured
phase with spans on each layer and prints the per-layer metrics,
including the tracing overhead.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A
failed output check or a leaked shared-memory segment makes the exit
code 1.  ``--smoke`` shrinks every workload (4,000 nodes, few requests)
for the self-tests and writes no history.
"""

import os

# One BLAS thread per process: the load must fit the cores it measures.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro  # noqa: E402  (fails outside a checkout: no result is printed)

if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"repro was imported from {repro.__file__}, not from this checkout")

from perfbench import serve, tables  # noqa: E402
from perfbench.common import (  # noqa: E402
    WORK_DIR,
    append_history,
    earlier_digests,
    provenance,
    windowed_rate,
)
from perfbench.layers import UNITS  # noqa: E402

WORKLOADS = {
    "table-narrow": tables,
    "table-paper": tables,
    "serve-cold": serve,
    "serve-hot": serve,
}

#: Every end-to-end metric, for every workload: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}


#: The p99 needs ten samples beyond it; below this many operations (a
#: table run has a handful) no percentile above the median has them.
TAIL_SAMPLES = 1000


def end_to_end(result) -> dict:
    """The user-facing numbers; an operation is one table or one request."""
    latencies = [seconds * 1e3 for seconds in result["operations"]]
    tail = 99 if len(latencies) >= TAIL_SAMPLES else 50
    return {
        "setup_s": float(np.median(result["setups"])),
        "latency_p50_ms": float(np.percentile(latencies, 50)),
        "latency_p99_ms": float(np.percentile(latencies, tail)),
        "throughput_per_s": windowed_rate(result["completions"], result["rate_window"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def report(workload: str, seed: int, trace: bool, result, values) -> None:
    """Human-readable summary (every line before the JSON one)."""
    kind = result["operation"]
    count = len(result["operations"])
    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    print(f"  setup_s            {values['setup_s']:12.4f} s    (median of {len(result['setups'])} set-ups)")
    if kind == "table":
        print(f"  table_s            {values['latency_p50_ms'] / 1e3:12.4f} s    (median of {count} tables)")
    print(f"  latency_p50_ms     {values['latency_p50_ms']:12.4f} ms   ({count} {kind}s)")
    if count >= TAIL_SAMPLES:
        print(f"  latency_p99_ms     {values['latency_p99_ms']:12.4f} ms   ({count // 100} samples beyond it)")
    else:
        print(f"  latency_p99_ms     {values['latency_p99_ms']:12.4f} ms   (the median: too few {kind}s for a tail)")
    print(f"  throughput_per_s   {values['throughput_per_s']:12.4f} 1/s  "
          f"(median over windows of {result['rate_window']} {kind}s)")
    print(f"  error_rate         {result['failed'] / result['attempted']:12.4f}      "
          f"({result['failed']} of {result['attempted']} failed)")
    print(f"  peak_rss_mb        {values['peak_rss_mb']:12.4f} MB")
    for name, value in result.get("per_layer", {}).items():
        print(f"  {name:52s} {value:14.6g} {UNITS[name]}")
    for problem in result["problems"][:20]:
        print(f"  CHECK FAILED: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrunken run for self-tests")
    args = parser.parse_args()
    trace = bool(args.trace)
    WORK_DIR.mkdir(exist_ok=True)
    # SIGTERM unwinds like an exception, so the server child is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    started = time.perf_counter()
    result = WORKLOADS[args.workload].run(args.workload, args.seed, args.seconds, trace, args.smoke)
    values = end_to_end(result)
    if trace:
        traced = float(np.median(result["traced_operations"])) * 1e3
        overhead = traced - values["latency_p50_ms"]
        result["per_layer"]["trace.overhead_ms"] = overhead
        result["per_layer"]["trace.overhead_pct"] = 100.0 * overhead / values["latency_p50_ms"]

    record = {
        "workload": args.workload,
        "trace": trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "wall_s": time.perf_counter() - started,
        "unix_time": time.time(),
        "provenance": provenance(args.seed),
        "output_digest": result["output_digest"],
        "end_to_end": values,
        "per_layer": result.get("per_layer"),
        "samples": len(result["operations"]),
        # Small runs (the tables) keep every sample for later analysis.
        "operation_seconds": result["operations"] if len(result["operations"]) < 100 else None,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
    }
    mismatched = [old for old in earlier_digests(record) if old != result["output_digest"]]
    if mismatched:
        result["problems"].append(
            f"outputs differ from an earlier run at this seed: {result['output_digest']} "
            f"vs {mismatched[0]}"
        )
    correct = not result["problems"]
    if not args.smoke:
        append_history(record)

    report(args.workload, args.seed, trace, result, values)
    if trace:
        chosen = {name: (value, UNITS[name]) for name, value in result["per_layer"].items()}
    else:
        chosen = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in chosen.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
