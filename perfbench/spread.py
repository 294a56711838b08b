#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, checked against their bounds.

Runs ``perfbench/run.py`` once per seed for each workload (one after
the other, never concurrently) and prints, per metric, the median and
the interquartile range as a share of the median, next to the bound
from BENCHMARK.json.  Exit code 1 when a spread exceeds its bound or a
run fails.

Usage:  python3 perfbench/spread.py [--seeds 1-10] [workload ...]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    first, last = map(int, args.seeds.split("-"))
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for workload in workloads:
        values, units = {}, {}
        for seed in range(first, last + 1):
            completed = subprocess.run(
                spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0",
                ],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = completed.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if completed.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED\n{completed.stdout}{completed.stderr}")
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"{workload}  ({last - first + 1} seeds)")
        for name, series in values.items():
            middle = statistics.median(series)
            spread = None
            if len(series) >= 2 and middle:
                q1, _, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / abs(middle)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread is not None and spread > bound:
                flag, ok = "  OVER BOUND", False
            shown = f"{spread:8.4f}" if spread is not None else "     n/a"
            print(
                f"  {name:44s} median {middle:14.6g} {units[name]:6s} "
                f"spread {shown}  bound {bound}{flag}"
            )
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
