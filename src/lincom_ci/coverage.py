"""Coverage evaluation, large-sample comparator intervals, and scenario sweeps.

Coverage at a probability vector is exact: the interval-inclusion indicator
summed against the exact lattice pmf.  Curves sweep a uniform grid of target
values, sampling feasible probability vectors at each; the minimum over all
cells estimates the confidence coefficient.  Every exact curve goes through
``_table_coverage``: cells drawn as flat rows from their own seeded streams,
evaluated in kernel batches, scored by ``_scores`` and folded by ``_report``;
the comparator sweep reads the same cell rows.  Comparator intervals follow
standard large-sample theory (chi-square critical value times a plug-in
standard error), with full degrees of freedom or the single-contrast
adjustment.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Literal, Optional

import numpy as np
from scipy.stats import chi2

from .bounds import IntervalTable, SolverConfig, _validate_alpha, build_interval_table
from .errors import InputError
from .model import (
    ObservedCounts,
    Problem,
    SimplexPoint,
    build_problem,
    check_counts,
    experiment,
    y_lattice,
)
# Cells are drawn by ``_sample_rows``; ``sample_constrained`` stays bound here
# because ``perfbench/tracing.py`` wraps ``coverage.sample_constrained`` by name.
from .optimizer import _sample_rows, sample_constrained  # noqa: F401
from .pmf import _checked, _pmf_batches, pmf_fft

Method = Literal["exact", "gold", "goodman"]

#: Grid-point mass below which a missing interval entry is ignored.
MASS_EPS = 1e-12

#: Inclusion slack absorbing float round-off in the target's dot product.
INCLUSION_EPS = 1e-10

#: Bytes of cell pmf rows ``_table_coverage`` keeps at most; above this it
#: redraws the cells for every table.
CELL_STORE_BYTES = 64 * 2**20


def _inclusion_tol(L):
    return INCLUSION_EPS * np.maximum(1.0, np.abs(L))


@dataclass(frozen=True)
class CoverageReport:
    """Per-grid-point coverage plus the global average and minimum."""

    L_grid: np.ndarray
    coverage: np.ndarray
    avg_coverage: float
    conf_coeff_estimate: float
    method: Method

    def __post_init__(self):
        if self.L_grid.shape != self.coverage.shape:
            raise InputError("L_grid and coverage must have equal length")


@dataclass(frozen=True)
class Budget:
    """Sampling sizes for a sweep: grid points, vectors per point, MC draws."""

    n_L: int
    n_p: int
    n_draws: int

    def __post_init__(self):
        if min(self.n_L, self.n_p, self.n_draws) < 1:
            raise InputError(f"budget sizes must be >= 1, got {self}")


BUDGETS: dict[str, Budget] = {
    "desk": Budget(n_L=50, n_p=50, n_draws=200),
    "paper": Budget(n_L=1000, n_p=1000, n_draws=500),
}

_SCENARIO_WEIGHTS: dict[str, tuple[tuple[int, ...], ...]] = {
    "A": ((0, 1, 1), (2, 0, 3), (5, 3, 0)),
    "B": ((1, 2, 3, 0), (1, 1, 2, 0)),
    "C": ((1, 0), (-1, 0)),
    "D": ((4, -2, -2), (4, -1, -1, -2)),
}

_SCENARIO_COMPARATOR: dict[str, Optional[Method]] = {
    "A": "gold",
    "B": "gold",
    "C": "goodman",
    "D": None,
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One of the four benchmark weight layouts with a common block size."""

    id: str
    n: int

    def __post_init__(self):
        if self.id not in _SCENARIO_WEIGHTS:
            raise InputError(f"scenario id must be one of A, B, C, D, got {self.id!r}")
        if self.n < 1:
            raise InputError(f"scenario sample size must be >= 1, got {self.n}")

    @property
    def weights(self) -> tuple[tuple[int, ...], ...]:
        return _SCENARIO_WEIGHTS[self.id]

    @property
    def comparator(self) -> Optional[Method]:
        return _SCENARIO_COMPARATOR[self.id]

    def problem(self) -> Problem:
        return build_problem([experiment(self.n, block) for block in self.weights])


def _check_table(problem: Problem, table: IntervalTable) -> None:
    if table.problem != problem:
        raise InputError("the interval table was built for another problem")


def coverage_at_p(problem: Problem, p: SimplexPoint, table: IntervalTable) -> float:
    """Exact probability that the interval drawn under p captures p's target."""
    _check_table(problem, table)
    probs = pmf_fft(problem, p).probs[None]
    return _scores(probs, np.array([p.dot_weights(problem)]), table)[0]


def _scores(probs: np.ndarray, targets: np.ndarray, table: IntervalTable) -> list[float]:
    """Per pmf row, the mass of the observed values whose interval contains its target.

    Errors if a grid point carrying real mass has no table entry, naming
    the first in row order.  Each row's covered mass is summed on its own,
    so a row scores the same alone as in a batch.
    """
    missing = (probs > MASS_EPS) & ~table.present
    if np.any(missing):
        row, idx = np.argwhere(missing)[0]
        raise InputError(
            f"interval table lacks an entry at grid index {idx} with mass {probs[row, idx]:.3e}"
        )
    L = targets[:, None]
    tol = _inclusion_tol(L)
    with np.errstate(invalid="ignore"):
        covered = table.present & (table.lower - tol <= L) & (L <= table.upper + tol)
    return [float(row[mask].sum()) for row, mask in zip(probs, covered)]


def _cell_rng(seed: int, l_idx: int, p_idx: int, salt: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), l_idx, p_idx, salt)))


def _L_grid(problem: Problem, n_L: int, n_p: int) -> np.ndarray:
    if n_L < 1 or n_p < 1:
        raise InputError(f"n_L and n_p must be >= 1, got {n_L}, {n_p}")
    lo, hi = float(problem.L_min), float(problem.L_max)
    if n_L == 1:
        return np.array([0.5 * (lo + hi)])
    return np.linspace(lo, hi, n_L)


def _cell_points(problem: Problem, grid: np.ndarray, n_p: int, seed: int) -> Iterator[np.ndarray]:
    """Each sweep cell's feasible vector as a flat row, lazily in grid order.

    Grid point ``l_idx`` gets ``n_p`` vectors, cell (l_idx, p_idx) drawn
    from its own seeded stream, so sweeps with the same seed see the same
    vectors whatever they evaluate.
    """
    for l_idx, L in enumerate(grid):
        for p_idx in range(n_p):
            yield _sample_rows(problem, float(L), _cell_rng(seed, l_idx, p_idx), 1)[0]


def _report(grid: np.ndarray, n_p: int, values: Iterable[float], method: Method) -> CoverageReport:
    """Mean per grid point, their average and the minimum of cell values in grid order."""
    values = iter(values)
    per_L = np.empty(grid.size)
    minimum = 1.0
    for l_idx in range(grid.size):
        acc = 0.0
        for _ in range(n_p):
            c = next(values)
            acc += c
            minimum = min(minimum, c)
        per_L[l_idx] = acc / n_p
    return CoverageReport(
        L_grid=grid,
        coverage=per_L,
        avg_coverage=float(per_L.mean()),
        conf_coeff_estimate=minimum,
        method=method,
    )


def _table_coverage(
    problem: Problem, n_L: int, n_p: int, seed: int
) -> Callable[[IntervalTable], CoverageReport]:
    """Exact coverage report of any table of ``problem`` over one set of cells.

    The cells are drawn by ``_cell_points`` and evaluated in kernel batches
    (``pmf._pmf_batches``); each cell's target is its row's dot product with
    the weights, as ``SimplexPoint.dot_weights`` computes it.  The pmf rows
    are kept while they fit in ``CELL_STORE_BYTES``, so many tables are
    scored against cells drawn once; above that every call redraws them.
    """
    grid = _L_grid(problem, n_L, n_p)
    w = problem.w_float()

    def cell_rows() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for points, probs in _pmf_batches(problem, _cell_points(problem, grid, n_p, seed)):
            yield probs, np.array([np.dot(row, w) for row in points])

    stored = None
    if grid.size * n_p * y_lattice(problem).count * 8 <= CELL_STORE_BYTES:
        stored = list(cell_rows())

    def report(table: IntervalTable) -> CoverageReport:
        batches = cell_rows() if stored is None else stored
        scores = itertools.chain.from_iterable(_scores(*batch, table) for batch in batches)
        return _report(grid, n_p, scores, "exact")

    return report


def average_coverage(
    problem: Problem,
    table: IntervalTable,
    n_L: int,
    n_p: int,
    seed: int,
) -> float:
    """Mean exact coverage over a uniform target grid (flat target weighting)."""
    return coverage_curve(problem, table.alpha, n_L, n_p, seed=seed, table=table).avg_coverage


def coverage_curve(
    problem: Problem,
    alpha: float,
    n_L: int,
    n_p: int,
    cfg: SolverConfig = SolverConfig(),
    seed: int = 42,
    table: Optional[IntervalTable] = None,
) -> CoverageReport:
    """Exact-method coverage across a uniform target grid.

    Builds the full interval table at ``alpha`` once (a passed table must be
    for ``problem`` at that level), then averages exact coverage over
    ``n_p`` sampled vectors per grid point.  The reported confidence
    coefficient is the minimum over every sampled cell.
    """
    if table is None:
        table = build_interval_table(problem, alpha, cfg)
    elif alpha != table.alpha:
        raise InputError(f"alpha {alpha!r} differs from the table's level {table.alpha!r}")
    _check_table(problem, table)
    return _table_coverage(problem, n_L, n_p, seed)(table)


def _large_sample_halfwidth(
    problem: Problem,
    counts_blocks: list[np.ndarray],
    alpha: float,
    df: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized estimate and half-width for batches of count blocks."""
    w_blocks = problem.w_blocks_float()
    n_rows = counts_blocks[0].shape[0]
    y_hat = np.zeros(n_rows)
    var = np.zeros(n_rows)
    for e, wb, xb in zip(problem.experiments, w_blocks, counts_blocks):
        phat = xb / e.n
        mean_w = phat @ wb
        y_hat += mean_w
        var += (phat @ (wb**2) - mean_w**2) / e.n
    crit = float(chi2.ppf(1.0 - alpha, df))
    half = np.sqrt(crit * np.maximum(var, 0.0))
    return y_hat, half


def _comparator_df(problem: Problem, method: Method) -> int:
    if method == "gold":
        return sum(e.m - 1 for e in problem.experiments)
    if method == "goodman":
        return 1
    raise InputError(f"unknown comparator method {method!r}")


def _large_sample_interval(
    problem: Problem,
    counts: ObservedCounts,
    alpha: float,
    method: Method,
) -> tuple[float, float]:
    alpha = _validate_alpha(alpha)
    check_counts(problem, counts)
    blocks = [np.array([b], dtype=float) for b in counts.blocks]
    y_hat, half = _large_sample_halfwidth(
        problem, blocks, alpha, _comparator_df(problem, method)
    )
    lo = max(float(y_hat[0] - half[0]), float(problem.L_min))
    hi = min(float(y_hat[0] + half[0]), float(problem.L_max))
    return lo, hi


def gold_interval(
    problem: Problem, counts: ObservedCounts, alpha: float
) -> tuple[float, float]:
    """Large-sample interval with chi-square df summed over all experiments."""
    return _large_sample_interval(problem, counts, alpha, "gold")


def goodman_interval(
    problem: Problem, counts: ObservedCounts, alpha: float
) -> tuple[float, float]:
    """Large-sample interval with a single contrast degree of freedom."""
    return _large_sample_interval(problem, counts, alpha, "goodman")


def mc_coverage_large_sample(
    problem: Problem,
    p: SimplexPoint,
    alpha: float,
    n_draws: int,
    method: Method,
    seed: int = 42,
) -> float:
    """Monte Carlo coverage of a comparator interval at one probability vector."""
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    row = _checked(problem, p).concat()
    return _mc_coverage(problem, row, _validate_alpha(alpha), n_draws, method, rng)


def _mc_coverage(
    problem: Problem,
    row: np.ndarray,
    alpha: float,
    n_draws: int,
    method: Method,
    rng: np.random.Generator,
) -> float:
    """``mc_coverage_large_sample`` at the concatenated probability vector ``row``."""
    if n_draws < 1:
        raise InputError(f"n_draws must be >= 1, got {n_draws}")
    L = float(np.dot(row, problem.w_float()))
    blocks = [
        rng.multinomial(e.n, row[s], size=n_draws).astype(float)
        for e, s in zip(problem.experiments, problem.block_slices())
    ]
    y_hat, half = _large_sample_halfwidth(
        problem, blocks, alpha, _comparator_df(problem, method)
    )
    lo = np.maximum(y_hat - half, float(problem.L_min))
    hi = np.minimum(y_hat + half, float(problem.L_max))
    tol = _inclusion_tol(L)
    return float(np.mean((lo - tol <= L) & (L <= hi + tol)))


def comparator_curve(
    problem: Problem,
    alpha: float,
    n_L: int,
    n_p: int,
    n_draws: int,
    method: Method,
    seed: int = 42,
) -> CoverageReport:
    """Monte Carlo coverage sweep for a large-sample comparator.

    Uses the same per-cell probability draws as the exact sweep with the same
    seed, so the two curves are directly comparable.
    """
    alpha = _validate_alpha(alpha)
    grid = _L_grid(problem, n_L, n_p)
    values = (
        _mc_coverage(problem, row, alpha, n_draws, method, _cell_rng(seed, *divmod(i, n_p), salt=1))
        for i, row in enumerate(_cell_points(problem, grid, n_p, seed))
    )
    return _report(grid, n_p, values, method)


def run_scenario(
    spec: ScenarioSpec,
    alpha: float,
    budget: Budget,
    cfg: SolverConfig = SolverConfig(),
    seed: int = 42,
) -> tuple[CoverageReport, Optional[CoverageReport], dict[str, float]]:
    """Exact sweep plus the matched comparator sweep (where one applies).

    Returns the two reports and wall-clock runtimes in seconds; the
    comparator slot is None for layouts no large-sample method handles.
    """
    problem = spec.problem()
    t0 = time.perf_counter()
    exact = coverage_curve(problem, alpha, budget.n_L, budget.n_p, cfg, seed=seed)
    t1 = time.perf_counter()
    comparator = None
    if spec.comparator is not None:
        comparator = comparator_curve(
            problem, alpha, budget.n_L, budget.n_p, budget.n_draws, spec.comparator, seed=seed
        )
    t2 = time.perf_counter()
    runtimes = {"exact_s": t1 - t0, "comparator_s": t2 - t1}
    return exact, comparator, runtimes
