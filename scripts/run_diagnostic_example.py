#!/usr/bin/env python3
"""Compare three kidney-function classifiers by weighted misclassification cost.

Three fitted classifiers (recursive partitioning, an additive regression
tree, multinomial regression) produced 3x3 contingency tables over the
classes (normal function, normal with proteinuria, nephropathy).  Costs
penalize missed nephropathy most heavily; prevalences reweight each true
class.  The script prints each classifier's cost estimate with its exact
interval, using the whole-number weight convention by default.

Usage:
    python scripts/run_diagnostic_example.py [--alpha 0.05] [--no-round] [--seed 42]

Bad input prints ``error: ...`` and exits 2; a numerical failure exits 3.
"""

import argparse
import sys
import time

from lincom_ci import OptimizerConfig, SolverConfig, fiducial_interval
from lincom_ci.bayescost import (
    ContingencyTable,
    CostMatrix,
    PrevalenceVector,
    bc_problem,
    bc_weights,
    estimate_bc,
)
from lincom_ci.bounds import _validate_alpha
from lincom_ci.cli import run_guarded

COSTS = CostMatrix(c=((0, 4, 4), (25, 0, 4), (45, 14, 0)))
PREVALENCES = PrevalenceVector(pr=("0.50", "0.28", "0.22"))
TABLES = {
    "recursive partitioning": ContingencyTable(rows=((26, 1, 5), (5, 9, 4), (1, 2, 11))),
    "additive regression tree": ContingencyTable(rows=((29, 1, 2), (5, 10, 3), (2, 2, 10))),
    "multinomial regression": ContingencyTable(rows=((30, 2, 0), (11, 7, 0), (2, 8, 4))),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--no-round", action="store_true", help="keep exact rational weights")
    parser.add_argument("--seed", type=int, default=42, help="optimizer seed")
    return run_guarded(compare, parser.parse_args(argv))


def compare(args: argparse.Namespace) -> int:
    # Bad input is rejected before anything is printed.
    alpha = _validate_alpha(args.alpha)
    cfg = SolverConfig(optimizer=OptimizerConfig(seed=args.seed))
    rounding = "none" if args.no_round else "nearest-integer"
    weights = bc_weights(COSTS, PREVALENCES, rounding=rounding)
    print(f"weights ({rounding}): {[str(w) for w in weights]}", file=sys.stderr)

    print(f"{'classifier':28s} {'cost':>8s} {'lower':>8s} {'upper':>8s} {'secs':>6s}")
    for name, table in TABLES.items():
        problem, counts = bc_problem(table, weights)
        start = time.perf_counter()
        res = fiducial_interval(problem, counts, alpha, cfg)
        elapsed = time.perf_counter() - start
        est = float(estimate_bc(table, weights))
        print(f"{name:28s} {est:8.3f} {res.lower:8.3f} {res.upper:8.3f} {elapsed:6.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
