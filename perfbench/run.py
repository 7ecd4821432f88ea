#!/usr/bin/env python3
"""Benchmark of the exact-interval chain: pmf, tail search, root solve, coverage.

Usage (from the repository root):
    python3 perfbench/run.py --workload {interval,calibrate,sweep} --seed N \\
        --seconds S --trace {0,1}

One process with one thread drives the library as a closed loop with one
client: the next op starts when the previous one returns.  Inputs come from
the seed alone; every op's output is checked outside the timed interval.

``--trace 0`` times whole cycles of ops back to back until their summed time
reaches ``--seconds`` and reports the end-to-end metrics.  ``--trace 1`` runs one
untraced cycle of the workload's ops, then traced cycles until ``--seconds``
have passed, and reports the per-layer metrics; spans go to
``perfbench/out/``.  Set-up time is sampled in fresh interpreters in both
modes.  Metric names and units come from ``BENCHMARK.json``.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"
WORKLOADS = ("interval", "calibrate", "sweep")
#: Fresh interpreters per run for set-up time; the median is reported.
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Per-layer metrics the traced run prints but BENCHMARK.json does not list:
#: they move on ``sweep`` only and read 0 on the listed workloads.
SWEEP_ONLY = {"coverage.comparator_s": "s/op", "coverage.deficit": "prob"}


def pin_threads() -> None:
    """One thread everywhere: library default threads=1, single-threaded BLAS/OpenMP."""
    os.environ.pop("LINCOM_CI_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"


def sample_setup(workload: str, seed: int) -> list[dict[str, float]]:
    """Time fresh interpreters from launch until the first op is ready."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(HERE / "setup_child.py"), workload, str(seed)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=120)
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up sample exited with code {proc.returncode}")
        samples.append({"setup_s": wall, **json.loads(line)})
    return samples


class Runner:
    """Runs and checks ops; an op that raises or fails its check counts as failed."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.durations: list[float] = []
        #: Output fingerprint of every op, None where the op raised.
        self.fingerprints: list[bytes | None] = []
        # Per input index: the first output's fingerprint and its check verdict.
        # A later op on the same input must reproduce that output exactly.
        self._verdicts: dict[int, tuple[bytes, str | None]] = {}

    def fail(self, op: int, reason: str) -> None:
        self.failed += 1
        print(f"op {op} failed: {reason}", file=sys.stderr)

    def call(self, op: int):
        """Run op ``op`` of the cycle and time it; returns (output, fingerprint) or None."""
        self.attempted += 1
        inp = self.wl.inputs[op % len(self.wl.inputs)]
        t0 = time.perf_counter()
        try:
            out = self.wl.run_op(inp)
            error = None
        except Exception:  # a failing op is a measured outcome, not a crash
            error = traceback.format_exc()
        self.durations.append(time.perf_counter() - t0)
        print(f"op {op}: {self.durations[-1]:.4f} s", file=sys.stderr)
        if error is not None:
            self.fingerprints.append(None)
            self.fail(op, error)
            return None
        self.fingerprints.append(self.wl.fingerprint(out))
        return out, self.fingerprints[-1]

    def digest(self, first: int) -> str:
        """Digest of one cycle of op outputs starting at op ``first``."""
        h = hashlib.sha256()
        for fp in self.fingerprints[first:first + len(self.wl.inputs)]:
            h.update(fp or b"raised")
        return h.hexdigest()

    def run_checked(self, op: int):
        result = self.call(op)
        if result is None:
            return None
        out, fp = result
        key = op % len(self.wl.inputs)
        if key not in self._verdicts:
            try:
                reason = self.wl.check(self.wl.inputs[key], out)
            except Exception:
                reason = traceback.format_exc()
            self._verdicts[key] = (fp, reason)
        first_fp, reason = self._verdicts[key]
        if fp != first_fp:
            reason = "output differs from an earlier op on the same input"
        if reason is not None:
            self.fail(op, reason)
            return None
        return out, fp


def timed_run(wl, seconds: float, setup: list[dict]) -> tuple[Runner, dict[str, float]]:
    runner = Runner(wl)
    op = 0
    # Stop on whole cycles only, so every input carries the same weight in every run.
    while op == 0 or op % len(wl.inputs) or sum(runner.durations) < seconds:
        runner.run_checked(op)
        op += 1
    passed = runner.attempted - runner.failed
    metrics = {
        "ops_per_s": passed / sum(runner.durations),
        "op_p50_s": statistics.median(runner.durations),
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    print(f"outputs_digest {runner.digest(0)} over {min(op, len(wl.inputs))} ops")
    return runner, metrics


def traced_run(
    wl, seed: int, seconds: float, setup: list[dict]
) -> tuple[Runner, dict[str, float]]:
    import tracing

    cycle = len(wl.inputs)
    runner = Runner(wl)
    t_start = time.perf_counter()
    reference = [runner.run_checked(op) for op in range(cycle)]
    untraced_wall = sum(runner.durations)
    deficit = max((wl.deficit(r[0]) for r in reference if r is not None), default=0.0)

    tracer = tracing.Tracer()
    traced_walls = []
    op = 0
    with tracer:
        while not traced_walls or time.perf_counter() - t_start < seconds:
            t0 = time.perf_counter()
            for i in range(cycle):
                tracer.op_id = op
                result = runner.call(op)
                if result is not None and (reference[i] is None or result[1] != reference[i][1]):
                    runner.fail(op, "traced output differs from the untraced output")
                op += 1
            traced_walls.append(time.perf_counter() - t0)

    metrics = tracer.metrics(n_ops=op)
    metrics.update(tracing.kernel_rows())
    metrics.update({
        "lincom_ci.import_s": statistics.median(s["lincom_ci.import_s"] for s in setup),
        "model.setup_s": statistics.median(s["model.setup_s"] for s in setup),
        "model.lattice_points": wl.lattice_points(),
        "coverage.deficit": deficit,
        "trace.overhead_frac": statistics.median(traced_walls) / untraced_wall - 1.0,
    })
    print(f"outputs_digest {runner.digest(cycle)} over {cycle} ops")
    trace_path = OUT / f"trace-{wl.name}-seed{seed}.npz"
    tracer.dump(trace_path)
    print(f"spans: {len(tracer.start)} written to {trace_path.relative_to(ROOT)}")
    return runner, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "lincom_ci" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"benchmark needs {SRC.relative_to(ROOT)}/lincom_ci and {SPEC.name} "
              "at the repository root", file=sys.stderr)
        return 2

    pin_threads()
    sys.path.insert(0, str(SRC))
    import workloads

    spec = json.loads(SPEC.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    setup = sample_setup(args.workload, args.seed)
    for key in setup[0]:
        print(f"set-up samples {key}: {' '.join(f'{s[key]:.4f}' for s in setup)} s")
    wl = workloads.build(args.workload, args.seed)
    wl.prepare()
    print(f"workload {wl.name}: {wl.description}")
    print(f"closed loop, 1 client, 1 process with 1 thread ({', '.join(THREAD_VARS)}=1, "
          f"LINCOM_CI_THREADS unset), nproc={os.cpu_count()}")

    if args.trace:
        runner, values = traced_run(wl, args.seed, args.seconds, setup)
    else:
        runner, values = timed_run(wl, args.seconds, setup)
    unlisted = SWEEP_ONLY if args.trace else {}
    if set(values) != {m["name"] for m in wanted} | set(unlisted):
        raise RuntimeError(f"metrics {sorted(values)} do not match {SPEC.name}")

    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, unit in unlisted.items():
        print(f"{name} = {values[name]:.6g} {unit} (sweep only, not in {SPEC.name})")
    print(f"failed_frac = {runner.failed / runner.attempted:.6g} frac "
          f"({runner.failed} of {runner.attempted} ops)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
