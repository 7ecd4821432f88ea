"""Command-line interface.

Subcommands: ``bounds`` (interval for observed counts), ``pmf`` (lattice
distribution for a given probability vector), ``coverage`` (sweep a config
problem), ``scenario`` (benchmark layouts A-D), ``adjust-alpha`` (average
coverage calibration), and ``bayes-cost`` (contingency-table workflow).

Results go to stdout (JSON for summaries, CSV for curves and tables) and are
byte-identical across runs with the same seed; logs and runtimes go to
stderr.  Exit codes: 0 success, 2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional, Sequence

from . import bayescost, bounds, coverage, model
from .errors import InputError, NumericalError
from .optimizer import OptimizerConfig


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read file {path!r}: {exc}") from exc


def _read_csv_rows(path: str) -> list[list[str]]:
    rows = [row for row in csv.reader(io.StringIO(_read_text(path))) if row]
    if not rows:
        raise InputError(f"file {path!r} holds no CSV rows")
    return rows


def _counts_from_csv(path: str) -> model.ObservedCounts:
    return model.ObservedCounts(blocks=tuple(map(tuple, _read_csv_rows(path))))


def _square_from_csv(path: str, what: str) -> tuple[tuple[str, ...], ...]:
    rows = _read_csv_rows(path)
    k = len(rows)
    if any(len(row) != k for row in rows):
        raise InputError(f"{what} file {path!r} must be a square table")
    return tuple(tuple(cell.strip() for cell in row) for row in rows)


def _load_problem(args) -> tuple[model.Problem, Optional[float]]:
    return model.problem_from_json(_read_text(args.config))


def _resolve_alpha(cli_alpha: Optional[float], config_alpha: Optional[float]) -> float:
    alpha = cli_alpha if cli_alpha is not None else config_alpha
    if alpha is None:
        raise InputError("alpha missing: pass --alpha or set it in the config file")
    return bounds._validate_alpha(alpha)


def _solver_config(args) -> bounds.SolverConfig:
    opt = OptimizerConfig(n_r=args.nr, n_s=args.ns, seed=args.seed)
    return bounds.SolverConfig(tol_f=args.tol_f, optimizer=opt)


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _emit_curve_csv(report, comparator) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    if comparator is None:
        writer.writerow(["L", "coverage_exact"])
        for L, c in zip(report.L_grid, report.coverage):
            writer.writerow([repr(float(L)), repr(float(c))])
    else:
        writer.writerow(["L", "coverage_exact", "coverage_comparator"])
        for L, c, g in zip(report.L_grid, report.coverage, comparator.coverage):
            writer.writerow([repr(float(L)), repr(float(c)), repr(float(g))])


def _log_summary(tag: str, payload: dict) -> None:
    sys.stderr.write(f"{tag} {json.dumps(payload, sort_keys=True)}\n")


def _cmd_bounds(args) -> int:
    problem, cfg_alpha = _load_problem(args)
    alpha = _resolve_alpha(args.alpha, cfg_alpha)
    counts = _counts_from_csv(args.counts)
    cfg = _solver_config(args)
    result = bounds.fiducial_interval(problem, counts, alpha, cfg)
    payload = {
        "estimate": float(result.y_hat),
        "lower": result.lower,
        "upper": result.upper,
        "alpha": alpha,
        "adjusted_alpha": None,
    }
    if args.adjusted:
        adjusted = bounds.adjust_alpha(problem, alpha, args.grid, cfg)
        adj_result = bounds.fiducial_interval(problem, counts, adjusted, cfg)
        payload["adjusted_alpha"] = adjusted
        payload["lower"] = adj_result.lower
        payload["upper"] = adj_result.upper
    _emit_json(payload)
    return 0


def _cmd_pmf(args) -> int:
    problem, _ = _load_problem(args)
    rows = _read_csv_rows(args.probs)
    try:
        blocks = [[float(cell) for cell in row] for row in rows]
    except ValueError as exc:
        raise InputError(f"probs file {args.probs!r} has a non-numeric cell: {exc}") from exc
    p = model.simplex_point(problem, blocks)
    from .pmf import pmf_fft

    dist = pmf_fft(problem, p)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["y", "prob"])
    for idx in range(dist.lattice.count):
        writer.writerow([repr(float(dist.lattice.value(idx))), repr(float(dist.probs[idx]))])
    return 0


def _budget(args) -> coverage.Budget:
    base = coverage.BUDGETS[args.budget]
    return coverage.Budget(
        n_L=base.n_L if args.n_l is None else args.n_l,
        n_p=base.n_p if args.n_p is None else args.n_p,
        n_draws=base.n_draws if args.draws is None else args.draws,
    )


def _cmd_coverage(args) -> int:
    problem, cfg_alpha = _load_problem(args)
    alpha = _resolve_alpha(args.alpha, cfg_alpha)
    cfg = _solver_config(args)
    budget = _budget(args)
    exact = coverage.coverage_curve(problem, alpha, budget.n_L, budget.n_p, cfg, seed=args.seed)
    comparator = None
    if args.comparator != "none":
        comparator = coverage.comparator_curve(
            problem, alpha, budget.n_L, budget.n_p, budget.n_draws,
            args.comparator, seed=args.seed,
        )
    _emit_curve_csv(exact, comparator)
    summary = {
        "avg_coverage": exact.avg_coverage,
        "min_coverage": exact.conf_coeff_estimate,
    }
    if comparator is not None:
        summary["comparator_avg"] = comparator.avg_coverage
        summary["comparator_min"] = comparator.conf_coeff_estimate
    _log_summary("summary", summary)
    return 0


def _cmd_scenario(args) -> int:
    spec = coverage.ScenarioSpec(id=args.id, n=args.n)
    cfg = _solver_config(args)
    budget = _budget(args)
    exact, comparator, runtimes = coverage.run_scenario(
        spec, args.alpha, budget, cfg, seed=args.seed
    )
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["L", "coverage_exact", "coverage_comparator"])
    for idx, (L, c) in enumerate(zip(exact.L_grid, exact.coverage)):
        comp = repr(float(comparator.coverage[idx])) if comparator is not None else ""
        writer.writerow([repr(float(L)), repr(float(c)), comp])
    summary = {
        "scenario": args.id,
        "n": args.n,
        "avg_coverage": exact.avg_coverage,
        "min_coverage": exact.conf_coeff_estimate,
        "runtimes_s": runtimes,
    }
    if comparator is not None:
        summary["comparator"] = comparator.method
        summary["comparator_avg"] = comparator.avg_coverage
        summary["comparator_min"] = comparator.conf_coeff_estimate
    _log_summary("summary", summary)
    return 0


def _cmd_adjust_alpha(args) -> int:
    problem, cfg_alpha = _load_problem(args)
    alpha = _resolve_alpha(args.alpha, cfg_alpha)
    cfg = _solver_config(args)
    adjusted = bounds.adjust_alpha(problem, alpha, args.grid, cfg)
    _emit_json({"alpha": alpha, "adjusted_alpha": adjusted})
    return 0


def _cmd_bayes_cost(args) -> int:
    table = bayescost.ContingencyTable(rows=_square_from_csv(args.table, "table"))
    if args.transpose:
        table = table.transposed()
    costs = bayescost.CostMatrix(c=_square_from_csv(args.costs, "costs"))
    prev_rows = _read_csv_rows(args.prev)
    flat = [cell.strip() for row in prev_rows for cell in row]
    prev = bayescost.PrevalenceVector(pr=tuple(flat))
    rounding = "nearest-integer" if args.round else "none"
    weights = bayescost.bc_weights(costs, prev, rounding)
    problem, counts = bayescost.bc_problem(table, weights)
    cfg = _solver_config(args)
    result = bounds.fiducial_interval(problem, counts, args.alpha, cfg)
    _emit_json(
        {
            "estimate": float(result.y_hat),
            "lower": result.lower,
            "upper": result.upper,
            "alpha": args.alpha,
            "weights": [str(w) for w in weights],
        }
    )
    return 0


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=42, help="base RNG seed (default 42)")
    sub.add_argument("--nr", type=int, default=20, help="random exploration draws")
    sub.add_argument("--ns", type=int, default=20, help="perturbation steps")
    sub.add_argument("--tol-f", type=float, default=1e-4, help="tail-functional tolerance")


def _add_budget_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--budget", choices=sorted(coverage.BUDGETS), default="desk")
    sub.add_argument("--n-l", type=int, default=None, help="override grid size")
    sub.add_argument("--n-p", type=int, default=None, help="override vectors per grid point")
    sub.add_argument("--draws", type=int, default=None, help="override Monte Carlo draws")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lincom-ci",
        description="Exact confidence intervals for linear combinations of multinomial probabilities",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sb = subs.add_parser("bounds", help="interval for observed counts")
    sb.add_argument("--config", required=True)
    sb.add_argument("--counts", required=True)
    sb.add_argument("--alpha", type=float, default=None)
    sb.add_argument("--adjusted", action="store_true", help="use the average-coverage level")
    sb.add_argument("--grid", type=int, default=50, help="grid size for the adjustment")
    _add_solver_flags(sb)
    sb.set_defaults(func=_cmd_bounds)

    sp = subs.add_parser("pmf", help="lattice distribution for a probability vector")
    sp.add_argument("--config", required=True)
    sp.add_argument("--probs", required=True)
    sp.set_defaults(func=_cmd_pmf)

    sc = subs.add_parser("coverage", help="coverage sweep for a config problem")
    sc.add_argument("--config", required=True)
    sc.add_argument("--alpha", type=float, default=None)
    sc.add_argument("--comparator", choices=["none", "gold", "goodman"], default="none")
    _add_budget_flags(sc)
    _add_solver_flags(sc)
    sc.set_defaults(func=_cmd_coverage)

    ss = subs.add_parser("scenario", help="benchmark scenario sweep")
    ss.add_argument("--id", required=True, choices=["A", "B", "C", "D"])
    ss.add_argument("--n", type=int, required=True)
    ss.add_argument("--alpha", type=float, default=0.05)
    _add_budget_flags(ss)
    _add_solver_flags(ss)
    ss.set_defaults(func=_cmd_scenario)

    sa = subs.add_parser("adjust-alpha", help="average-coverage adjusted level")
    sa.add_argument("--config", required=True)
    sa.add_argument("--alpha", type=float, default=None)
    sa.add_argument("--grid", type=int, default=50)
    _add_solver_flags(sa)
    sa.set_defaults(func=_cmd_adjust_alpha)

    sbc = subs.add_parser("bayes-cost", help="contingency-table cost interval")
    sbc.add_argument("--table", required=True)
    sbc.add_argument("--costs", required=True)
    sbc.add_argument("--prev", required=True)
    sbc.add_argument("--alpha", type=float, default=0.05)
    sbc.add_argument("--round", action="store_true", help="round weights to whole numbers")
    sbc.add_argument("--transpose", action="store_true", help="input table has columns as truth")
    _add_solver_flags(sbc)
    sbc.set_defaults(func=_cmd_bayes_cost)

    return parser


def dispatch(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
