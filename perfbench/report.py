#!/usr/bin/env python3
"""Print every end-to-end metric of every workload, with failed_frac, by name and unit.

Usage (from the repository root): python3 perfbench/report.py [--seed N] [--seconds S]

Runs perfbench/run.py once per workload without tracing.  Exits 1 if any
run reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT, SPEC, WORKLOADS


def main() -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    print(f"{'workload':10s} {'metric':12s} {'value':>12s} unit")
    all_correct = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        rows.append(("failed_frac", result["failed"] / result["attempted"], "frac"))
        for metric, value, unit in rows:
            print(f"{name:10s} {metric:12s} {value:12.6g} {unit}")
        all_correct &= result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
