"""Workload inputs, operations and output checks.

Each workload is a fixed cycle of operations built from the workload seed
alone.  Every operation reuses the same problems, so per-problem caches are
warm after ``prepare`` and their cold cost shows only in set-up time.
Operations call the library through module attributes (``bounds.adjust_alpha``
and so on), so the tracer can wrap them where they are bound.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from lincom_ci import bayescost, bounds, coverage, model, optimizer, pmf

ALPHA = 0.05

# Diagnostic test set: costs, prevalences and the three classifiers' tables
# (rows are the true class; row sums 32, 18, 14).
COSTS = ((0, 4, 4), (25, 0, 4), (45, 14, 0))
PREVALENCES = ("0.50", "0.28", "0.22")
PAPER_TABLES = (
    ((26, 1, 5), (5, 9, 4), (1, 2, 11)),
    ((29, 1, 2), (5, 10, 3), (2, 2, 10)),
    ((30, 2, 0), (11, 7, 0), (2, 8, 4)),
)
#: Tables drawn per seed on top of the paper's three, one from each of them.
N_RESAMPLED = 3

CALIBRATE_SCENARIO = ("C", 5)
CALIBRATE_GRID = 50
#: Acceptance tolerance on the average coverage at the calibrated level.
CALIBRATE_COVERAGE_TOL = 0.01

SWEEP_SCENARIOS = ("A", "B", "C", "D")
SWEEP_N = 5
SWEEP_BUDGET = "desk"


@dataclass(frozen=True)
class Workload:
    """One workload: its problems, its cycle of op inputs, and how to run and check an op."""

    name: str
    problems: tuple[model.Problem, ...]
    inputs: tuple[Any, ...]
    run_op: Callable[[Any], Any]
    #: Returns None when the output is correct, else the reason it is not.
    check: Callable[[Any, Any], Optional[str]]
    #: Canonical bytes of an op's output, for rerun and traced-run comparison.
    fingerprint: Callable[[Any], bytes]
    description: str
    #: Largest shortfall of an exact coverage cell below 1 - alpha in an output.
    deficit: Callable[[Any], float] = lambda _output: 0.0

    def prepare(self) -> float:
        """Warm every per-problem cache; return the cold lattice geometry and mask time."""
        model_s = 0.0
        rng = np.random.default_rng(0)
        for problem in self.problems:
            t0 = time.perf_counter()
            model.lattice_geometry(problem)
            model.attainable_mask(problem)
            model_s += time.perf_counter() - t0
            mid = 0.5 * float(problem.L_min + problem.L_max)
            point = optimizer.sample_constrained(problem, mid, rng)
            pmf.pmf_fft(problem, point)  # phase matrices
            optimizer.perturb(problem, point, 0.1, rng)  # null-space basis
        return model_s

    def lattice_points(self) -> int:
        return sum(model.y_lattice(p).count for p in self.problems)


def _digest(*parts: Any) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.digest()


def _optimizer_seed(seed: int) -> int:
    return int(seed) % 2**64


# --- interval ---------------------------------------------------------------


def interval_tables(seed: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The paper's three tables, then one multinomial resample of each per seed."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 1)))
    tables = list(PAPER_TABLES)
    for i in range(N_RESAMPLED):
        base = PAPER_TABLES[i % len(PAPER_TABLES)]
        tables.append(
            tuple(
                tuple(int(v) for v in rng.multinomial(sum(row), np.asarray(row) / sum(row)))
                for row in base
            )
        )
    return tuple(tables)


def diagnostic_weights(rounding: str) -> tuple:
    return bayescost.bc_weights(
        bayescost.CostMatrix(c=COSTS), bayescost.PrevalenceVector(pr=PREVALENCES), rounding
    )


def _interval(seed: int) -> Workload:
    weights = diagnostic_weights("nearest-integer")
    tables = interval_tables(seed)
    problem, _ = bayescost.bc_problem(bayescost.ContingencyTable(rows=tables[0]), weights)

    def run_op(rows):
        prob, counts = bayescost.bc_problem(bayescost.ContingencyTable(rows=rows), weights)
        return bounds.fiducial_interval(prob, counts, ALPHA)

    def check(rows, res: bounds.FiducialBounds) -> Optional[str]:
        if not all(math.isfinite(v) for v in (res.lower, res.upper, *res.residuals)):
            return f"non-finite interval {res}"
        expected = bayescost.estimate_bc(bayescost.ContingencyTable(rows=rows), weights)
        if res.y_hat != expected:
            return f"estimate {res.y_hat} differs from estimate_bc {expected}"
        y_hat = float(res.y_hat)
        chain = (float(problem.L_min), res.lower, y_hat, res.upper, float(problem.L_max))
        if any(a > b for a, b in zip(chain, chain[1:])):
            return f"L_min <= lower <= y_hat <= upper <= L_max fails: {chain}"
        return None

    def fingerprint(res: bounds.FiducialBounds) -> bytes:
        return _digest(
            res.lower, res.upper, res.y_hat, res.lb_pinned, res.ub_pinned, res.residuals
        )

    return Workload(
        name="interval",
        problems=(problem,),
        inputs=tables,
        run_op=run_op,
        check=check,
        fingerprint=fingerprint,
        description=(
            f"op = bc_problem + fiducial_interval, alpha={ALPHA}, default SolverConfig; "
            f"{len(tables)} tables cycled ({len(PAPER_TABLES)} paper, {N_RESAMPLED} resampled "
            "from them by seeded multinomial draws); row sums (32, 18, 14), whole-number weights"
        ),
    )


# --- calibrate --------------------------------------------------------------


def _calibrate(seed: int) -> Workload:
    scenario_id, n = CALIBRATE_SCENARIO
    problem = coverage.ScenarioSpec(id=scenario_id, n=n).problem()
    opt_seed = _optimizer_seed(seed)
    cfg = bounds.SolverConfig(optimizer=optimizer.OptimizerConfig(seed=opt_seed))
    # average_coverage inside adjust_alpha draws with the optimizer seed; the
    # check must grade the result on draws the calibration did not see.
    check_seed = (opt_seed + 1) % 2**64

    def run_op(config):
        return bounds.adjust_alpha(problem, ALPHA, CALIBRATE_GRID, config)

    def check(config, level: float) -> Optional[str]:
        if not (math.isfinite(level) and ALPHA <= level <= 10 * ALPHA):
            return f"calibrated level {level!r} outside [{ALPHA}, {10 * ALPHA}]"
        table = bounds.build_interval_table(problem, level, config)
        avg = coverage.average_coverage(
            problem, table, CALIBRATE_GRID, CALIBRATE_GRID, check_seed
        )
        if abs(avg - (1 - ALPHA)) > CALIBRATE_COVERAGE_TOL:
            return (f"average coverage {avg:.4f} at level {level:.4f} is not within "
                    f"{1 - ALPHA} +/- {CALIBRATE_COVERAGE_TOL}")
        return None

    return Workload(
        name="calibrate",
        problems=(problem,),
        inputs=(cfg,),
        run_op=run_op,
        check=check,
        fingerprint=lambda level: _digest(level),
        description=(
            f"op = adjust_alpha on scenario {scenario_id} n={n}, grid {CALIBRATE_GRID}, "
            f"alpha={ALPHA}, optimizer seed {opt_seed}; check rebuilds the table at the "
            f"returned level and runs average_coverage on seed {check_seed}"
        ),
    )


# --- sweep ------------------------------------------------------------------


def _sweep(seed: int) -> Workload:
    specs = tuple(coverage.ScenarioSpec(id=s, n=SWEEP_N) for s in SWEEP_SCENARIOS)
    budget = coverage.BUDGETS[SWEEP_BUDGET]
    cfg = bounds.SolverConfig(optimizer=optimizer.OptimizerConfig(seed=_optimizer_seed(seed)))
    sweep_seed = int(seed)

    def run_op(inputs):
        config, draw_seed = inputs
        return tuple(
            coverage.run_scenario(spec, ALPHA, budget, config, seed=draw_seed)[:2]
            for spec in specs
        )

    def check(_, reports) -> Optional[str]:
        for spec, (exact, comparator) in zip(specs, reports):
            for report in (exact, comparator):
                if report is None:
                    continue
                values = np.append(report.coverage, report.conf_coeff_estimate)
                if not (np.all(np.isfinite(values)) and np.all((values >= 0) & (values <= 1))):
                    return f"scenario {spec.id} {report.method} coverage outside [0, 1]"
        return None

    def fingerprint(reports) -> bytes:
        parts = []
        for report in (r for pair in reports for r in pair):
            if report is not None:
                parts += [report.coverage, report.conf_coeff_estimate]
        return _digest(*parts)

    return Workload(
        name="sweep",
        problems=tuple(spec.problem() for spec in specs),
        inputs=((cfg, sweep_seed),),
        run_op=run_op,
        check=check,
        fingerprint=fingerprint,
        deficit=lambda reports: max(
            0.0, max((1 - ALPHA) - exact.conf_coeff_estimate for exact, _ in reports)
        ),
        description=(
            f"op = run_scenario for {', '.join(SWEEP_SCENARIOS)} at n={SWEEP_N}, "
            f"{SWEEP_BUDGET} budget ({budget.n_L} grid x {budget.n_p} vectors x "
            f"{budget.n_draws} draws), alpha={ALPHA}, sweep and optimizer seed {sweep_seed}"
        ),
    )


def build(name: str, seed: int) -> Workload:
    return {"interval": _interval, "calibrate": _calibrate, "sweep": _sweep}[name](seed)


def input_fingerprint(name: str, seed: int) -> bytes:
    """Canonical bytes of the op inputs a seed generates for a workload."""
    return _digest(build(name, seed).inputs)
