"""Coverage evaluation, large-sample comparator intervals, and scenario sweeps.

Coverage at a probability vector is exact: the interval-inclusion indicator
summed against the exact lattice pmf.  Curves sweep a uniform grid of target
values, sampling feasible probability vectors at each; the minimum over all
cells estimates the confidence coefficient.  Grid point ``l_idx`` draws from
two streams, ``np.random.default_rng(np.random.SeedSequence((seed, l_idx,
salt)))`` (``_grid_rng``): salt 0 gives its ``n_p`` cells' exponentials as one
``(n_p, M)`` draw and one sampler call (``_cell_points``), so a grid point's
first cells do not depend on ``n_p``, and salt 1 the comparator's counts.
Exact coverage has one pipeline: ``_cell_rows`` gathers whole grid points'
cells into full kernel batches and yields each batch's pmf rows and
targets, and ``_exact_report`` scores them by ``_scores`` and folds each
grid point's scores by ``_report``.  ``coverage_curve`` scores the stream as
it comes; ``_table_coverage`` keeps it for many tables while it fits in
``CELL_STORE_BYTES`` and reruns it otherwise.  The comparator sweep reads
the same cell arrays and draws each grid point's Monte Carlo counts in one
call per experiment (``_mc_coverage``).  Comparator intervals
follow standard large-sample theory (chi-square critical value times a
plug-in standard error), with full degrees of freedom or the single-contrast
adjustment.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Literal, Optional

import numpy as np
from scipy.special import gammaincinv

from .bounds import IntervalTable, SolverConfig, _validate_alpha, build_interval_table
from .errors import InputError
from .model import (
    ObservedCounts,
    Problem,
    SimplexPoint,
    build_problem,
    check_counts,
    experiment,
    positive_int,
    y_lattice,
)
# Cells are drawn by ``_sample_rows``; ``sample_constrained`` stays bound here
# because ``perfbench/tracing.py`` wraps ``coverage.sample_constrained`` by name.
from .optimizer import _sample_rows, sample_constrained  # noqa: F401
from .pmf import _checked, _fft_batch_rows, _pmf_batches, pmf_fft

Method = Literal["exact", "gold", "goodman"]

#: Grid-point mass below which a missing interval entry is ignored.
MASS_EPS = 1e-12

#: Inclusion slack absorbing float round-off in the target's dot product.
INCLUSION_EPS = 1e-10

#: Bytes of cell pmf rows ``_table_coverage`` keeps at most; above this it
#: redraws the cells for every table.
CELL_STORE_BYTES = 64 * 2**20


def _check_sizes(**sizes) -> None:
    """Raise ``InputError`` unless every named size is an integer (not a bool) of at least 1."""
    for name, value in sizes.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise InputError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise InputError(f"{name} must be >= 1, got {value}")


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
        _check_sizes(n_L=self.n_L, n_p=self.n_p, n_draws=self.n_draws)


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
        object.__setattr__(self, "n", positive_int(self.n, "scenario sample size"))

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
    return float(_scores(probs, np.array([p.dot_weights(problem)]), table)[0])


def _scores(probs: np.ndarray, targets: np.ndarray, table: IntervalTable) -> np.ndarray:
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
    # Each run of rows with one covered mask (the cells of a grid point) is
    # summed as one block.  ``np.take`` gives it C-ordered, so its rows sum
    # as each row alone would.
    starts = np.flatnonzero((covered[1:] != covered[:-1]).any(axis=1)) + 1
    cuts = [0, *starts.tolist(), len(probs)]
    scores = np.empty(len(probs))
    for a, b in zip(cuts, cuts[1:]):
        scores[a:b] = np.take(probs[a:b], np.flatnonzero(covered[a]), axis=1).sum(axis=1)
    return scores


def _check_seed(seed) -> int:
    """``seed`` as an int; ``InputError`` unless it is a non-negative integer (not a bool)."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def _grid_rng(seed: int, l_idx: int, salt: int) -> np.random.Generator:
    """Grid point ``l_idx``'s stream: salt 0 for its cells, 1 for the comparator's counts."""
    return np.random.default_rng(np.random.SeedSequence((seed, l_idx, salt)))


def _L_grid(problem: Problem, n_L: int, n_p: int) -> np.ndarray:
    _check_sizes(n_L=n_L, n_p=n_p)
    lo, hi = float(problem.L_min), float(problem.L_max)
    if n_L == 1:
        return np.array([0.5 * (lo + hi)])
    return np.linspace(lo, hi, n_L)


def _cell_points(problem: Problem, grid: np.ndarray, n_p: int, seed: int) -> Iterator[np.ndarray]:
    """Each grid point's ``n_p`` feasible vectors as one ``(n_p, M)`` array, lazily in grid order.

    Grid point ``l_idx`` draws its cells' exponentials as one ``(n_p, M)``
    array from its salt-0 stream, so sweeps with the same seed see the same
    vectors whatever they evaluate, and a grid point's first cells are the
    same for any ``n_p``; each grid point's cells are one ``_sample_rows`` call.
    """
    m_total = sum(problem.block_lengths)
    for l_idx, L in enumerate(grid):
        q = _grid_rng(seed, l_idx, 0).exponential(size=(n_p, m_total))
        yield _sample_rows(problem, float(L), q)


def _report(
    grid: np.ndarray, n_p: int, scores: Iterable[np.ndarray], method: Method
) -> CoverageReport:
    """Mean cell value per grid point, their average and the minimum over all cells.

    ``scores`` yields one array of ``n_p`` cell values per grid point.  Each
    mean divides the left-to-right running sum of its cells, which
    ``np.add.accumulate`` computes as adding the cells one by one would.
    """
    per_L = np.empty(grid.size)
    minimum = 1.0
    for l_idx, cells in enumerate(scores):
        per_L[l_idx] = np.add.accumulate(cells)[-1] / n_p
        minimum = min(minimum, float(cells.min()))
    return CoverageReport(
        L_grid=grid,
        coverage=per_L,
        avg_coverage=float(per_L.mean()),
        conf_coeff_estimate=minimum,
        method=method,
    )


def _cell_rows(
    problem: Problem, grid: np.ndarray, n_p: int, seed: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every grid point's cells as pmf rows and targets, lazily by full kernel batch.

    Whole grid points are taken from ``_cell_points`` until they fill a
    kernel batch (``_fft_batch_rows``); ``_pmf_batches`` evaluates the full
    batches, also splitting a grid point larger than one, and the rows left
    over wait for the next grid point, so only the last batch is short.
    Each row reads the same in any batch.  A target is its row's dot
    product with the weights, as ``SimplexPoint.dot_weights`` computes it.
    """
    size, w = _fft_batch_rows(problem), problem.w_float()
    pending, held = [], 0
    for l_idx, points in enumerate(_cell_points(problem, grid, n_p, seed)):
        pending.append(points)
        held += n_p
        last = l_idx == grid.size - 1
        if held >= size or last:
            ready = np.concatenate(pending)
            cut = held if last else held - held % size
            for rows, probs in _pmf_batches(problem, ready[:cut]):
                yield probs, np.matmul(rows[:, None, :], w)[:, 0]
            pending, held = [ready[cut:]], held - cut


def _exact_report(
    grid: np.ndarray, n_p: int, cells: Iterable[tuple[np.ndarray, np.ndarray]],
    table: IntervalTable,
) -> CoverageReport:
    """Exact coverage report of ``table`` over the batches of ``_cell_rows``."""
    scores = np.concatenate([_scores(probs, targets, table) for probs, targets in cells])
    return _report(grid, n_p, scores.reshape(grid.size, n_p), "exact")


def _table_coverage(
    problem: Problem, n_L: int, n_p: int, seed: int
) -> Callable[[IntervalTable], CoverageReport]:
    """Exact coverage report of any table of ``problem`` over one set of cells.

    The batches of ``_cell_rows`` are kept while the cells' pmf rows fit in
    ``CELL_STORE_BYTES``, so many tables are scored against cells drawn
    once; above that every call reruns the stream.
    """
    grid = _L_grid(problem, n_L, n_p)
    if grid.size * n_p * y_lattice(problem).count * 8 <= CELL_STORE_BYTES:
        kept = list(_cell_rows(problem, grid, n_p, seed))
        return lambda table: _exact_report(grid, n_p, kept, table)
    return lambda table: _exact_report(grid, n_p, _cell_rows(problem, grid, n_p, seed), table)


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
    seed = _check_seed(seed)
    grid = _L_grid(problem, n_L, n_p)
    if table is None:
        table = build_interval_table(problem, alpha, cfg)
    elif alpha != table.alpha:
        raise InputError(f"alpha {alpha!r} differs from the table's level {table.alpha!r}")
    _check_table(problem, table)
    return _exact_report(grid, n_p, _cell_rows(problem, grid, n_p, seed), table)


def _chi2_critical(alpha: float, df: int) -> float:
    """The chi-square quantile at 1 - alpha with ``df`` degrees of freedom.

    2·gammaincinv(df/2, 1 - alpha) is the expression scipy's chi-square
    ``ppf`` evaluates, so the two agree bit for bit, inf included when
    1 - alpha rounds to 1.
    """
    return float(2.0 * gammaincinv(df / 2, 1.0 - alpha))


def _large_sample_halfwidth(
    problem: Problem,
    counts_blocks: Iterable[np.ndarray],
    alpha: float,
    df: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate and half-width per count vector, flat in row order.

    Each experiment's counts are an array whose last axis is its categories;
    they are read one experiment at a time, so a generator holds one alive.
    The critical value is the chi-square quantile at 1 - alpha with ``df``
    degrees of freedom, computed as 2·gammaincinv(df/2, 1 - alpha)
    (``_chi2_critical``).
    """
    y_hat = var = 0.0
    for e, wb, xb in zip(problem.experiments, problem.w_blocks_float(), counts_blocks):
        phat = xb.reshape(-1, e.m) / e.n
        mean_w = phat @ wb
        y_hat += mean_w
        var += (phat @ (wb**2) - mean_w**2) / e.n
    crit = _chi2_critical(alpha, df)
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
    rng = np.random.default_rng(np.random.SeedSequence(_check_seed(seed)))
    row = _checked(problem, p).concat()
    return float(_mc_coverage(problem, row[None], _validate_alpha(alpha), n_draws, method, rng)[0])


def _mc_coverage(
    problem: Problem,
    rows: np.ndarray,
    alpha: float,
    n_draws: int,
    method: Method,
    rng: np.random.Generator,
) -> np.ndarray:
    """Monte Carlo coverage of a comparator interval at each row of the ``(B, M)`` vectors.

    Each experiment's counts are one ``(n_draws, B)`` multinomial draw from
    ``rng``, in experiment order; a target is its row's dot product with the
    weights, as ``SimplexPoint.dot_weights`` computes it.
    """
    _check_sizes(n_draws=n_draws)
    L = np.matmul(rows[:, None, :], problem.w_float())[:, 0]
    counts = (
        rng.multinomial(e.n, rows[:, s], size=(n_draws, len(rows)))
        for e, s in zip(problem.experiments, problem.block_slices())
    )
    y_hat, half = _large_sample_halfwidth(
        problem, counts, alpha, _comparator_df(problem, method)
    )
    lo = np.maximum(y_hat - half, float(problem.L_min)).reshape(n_draws, len(rows))
    hi = np.minimum(y_hat + half, float(problem.L_max)).reshape(n_draws, len(rows))
    tol = _inclusion_tol(L)
    return np.mean((lo - tol <= L) & (L <= hi + tol), axis=0)


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

    Uses the same probability vectors as the exact sweep with the same seed,
    so the two curves are directly comparable; each grid point's counts come
    from its salt-1 stream.
    """
    alpha, seed = _validate_alpha(alpha), _check_seed(seed)
    grid = _L_grid(problem, n_L, n_p)
    values = (
        _mc_coverage(problem, points, alpha, n_draws, method, _grid_rng(seed, l_idx, 1))
        for l_idx, points in enumerate(_cell_points(problem, grid, n_p, seed))
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
