#!/usr/bin/env python3
"""Coverage sweep over the benchmark scenarios.

Writes one CSV per (scenario, n) pair plus a summary JSON.  The desk budget
keeps this to a few minutes; pass --budget paper for the full-size study
(expect hours).

Usage:
    python scripts/run_scenario_sweep.py --out results/ [--budget desk]
        [--scenarios A B C D] [--sizes 5 10] [--alpha 0.05] [--seed 42]

Bad input prints ``error: ...`` and exits 2, before any sweep for a bad
scenario or size; a numerical failure exits 3.
"""

import argparse
import csv
import json
import pathlib
import sys

from lincom_ci import SolverConfig
from lincom_ci.cli import run_guarded, write_curve
from lincom_ci.coverage import BUDGETS, Budget, ScenarioSpec, run_scenario


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--budget", choices=sorted(BUDGETS), default="desk")
    parser.add_argument("--scenarios", nargs="+", default=["A", "B", "C", "D"])
    parser.add_argument("--sizes", nargs="+", type=int, default=[5, 10])
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=42)
    return run_guarded(sweep, parser.parse_args(argv))


def sweep(args: argparse.Namespace) -> int:
    specs = [
        ScenarioSpec(id=scenario_id, n=n)
        for scenario_id in args.scenarios
        for n in args.sizes
        # one size suffices for the mixed-outcome layout
        if not (scenario_id == "D" and n != args.sizes[0])
    ]
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    budget: Budget = BUDGETS[args.budget]
    summary = []

    for spec in specs:
        print(f"scenario {spec.id} n={spec.n} ...", file=sys.stderr)
        exact, comparator, runtimes = run_scenario(
            spec, args.alpha, budget, SolverConfig(), seed=args.seed
        )
        path = out_dir / f"scenario_{spec.id}_n{spec.n}.csv"
        with open(path, "w", newline="") as fh:
            write_curve(csv.writer(fh), exact, comparator, comparator_column=True)
        entry = {
            "scenario": spec.id,
            "n": spec.n,
            "avg_coverage": exact.avg_coverage,
            "confidence_coefficient": exact.conf_coeff_estimate,
            "comparator": spec.comparator,
            "runtimes_s": runtimes,
        }
        if comparator is not None:
            entry["comparator_avg"] = comparator.avg_coverage
            entry["comparator_min"] = comparator.conf_coeff_estimate
        summary.append(entry)
        print(json.dumps(entry), file=sys.stderr)

    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    print(f"wrote {len(summary)} sweeps to {out_dir}/", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
