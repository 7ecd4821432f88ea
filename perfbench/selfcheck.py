#!/usr/bin/env python3
"""Self-checks of the benchmark, run from the repository root.

Usage: python3 perfbench/selfcheck.py [--workload NAME ...] [--seed N]

For each workload:
  1. one seed generates the same inputs twice, and two seeds different ones;
  2. two traced runs at one seed give identical work counts;
  3. a traced and an untraced run at one seed give identical op outputs.
Runs take ``run_seconds`` from BENCHMARK.json.  Exits 0 when every check
passes and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT, SPEC, SRC, WORKLOADS

sys.path.insert(0, str(SRC))
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[str, dict]:
    """One benchmark run; returns its outputs digest and its result object."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    digest = next(line for line in lines if line.startswith("outputs_digest "))
    return digest, json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    seconds = json.loads(SPEC.read_text())["run_seconds"]

    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    for name in args.workload:
        same = workloads.input_fingerprint(name, args.seed)
        check(same == workloads.input_fingerprint(name, args.seed),
              f"{name}: seed {args.seed} gives the same inputs twice")
        check(same != workloads.input_fingerprint(name, args.seed + 1),
              f"{name}: seeds {args.seed} and {args.seed + 1} give different inputs")

        traced = [bench(name, args.seed, seconds, 1) for _ in range(2)]
        counts = [{k: r["metrics"][k]["value"] for k in tracing.WORK_COUNTS} for _, r in traced]
        check(counts[0] == counts[1] and all(r["correct"] for _, r in traced),
              f"{name}: two traced runs give identical work counts {counts[0]}")

        digest, result = bench(name, args.seed, seconds, 0)
        check(digest == traced[0][0] and result["correct"],
              f"{name}: traced and untraced runs give identical outputs ({digest})")

    print(f"{len(failures)} self-check(s) failed" if failures else "all self-checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
