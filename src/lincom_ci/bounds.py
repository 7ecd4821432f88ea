"""Interval bounds by inverting the tail functionals with a bracketed solver.

The lower bound is the weighted-sum value at which the upper-tail functional
of the observed statistic drops to alpha/2; the upper bound mirrors it with
the lower-tail functional.  Both functionals are evaluated by the stochastic
optimizer, so each solve fixes the optimizer seed from the observed value
only (not from the trial target), making the solved function deterministic
and effectively monotone during the bracketing.

Each solve brackets the root between the pinned end and the observed value
and closes in by Illinois false position on the log of the tail, with
bisection steps as a guard (``_bracket_solve``).  It accepts a point only
when the tail lies within ``tol_f`` below alpha/2, the side that widens
the interval; if the bracket runs out first it returns the bracket's end on
that side.  So every endpoint errs wide, never narrow.

Each endpoint solve is a generator that yields a tail request whenever it
needs a tail value it has not memoised.  One loop, ``_run_solves``, runs
every endpoint of an interval or a table in lockstep: each round it sends
the pending request of every unfinished solve to one batched tail search
(``optimizer._search_batch``).  Each solve takes the same steps, in the
same order and with the same arithmetic, as it would alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Generator, Optional, Union

import numpy as np

from .errors import InputError, NumericalError
from .model import (
    ObservedCounts,
    Problem,
    attainable_mask,
    check_counts,
    check_target,
    estimate_L,
    y_lattice,
)
# The solves search through ``_search_batch``; ``sup_cdf``/``inf_cdf`` stay
# bound here because ``perfbench/tracing.py`` wraps them by name.
from .optimizer import OptimizerConfig, SeedDraws, _search_batch, inf_cdf, sup_cdf  # noqa: F401

_LOWER, _UPPER, _QUANT_LB, _QUANT_UB = 0, 1, 2, 3

#: Iteration cap of one bracketed root solve.
MAX_ITER = 100
#: A root solve stops once its bracket is this fraction of the attainable span.
BRACKET_TOL = 1e-6
#: ``adjust_alpha`` accepts a level whose average coverage is this close to 1 - alpha.
COVERAGE_TOL = 0.005
#: ``adjust_alpha`` stops bisecting once the level bracket is this narrow.
ALPHA_TOL = 1e-3

#: Tail values by ``(side, y index, attempt)`` and then target L.  A solve's
#: seed depends on that key and the optimizer seed but not on alpha, so one
#: memo serves every table of one problem and one ``SolverConfig``.
TailMemo = dict[tuple[int, int, int], dict[float, float]]
#: One tail value a solve needs: (upper tail, CDF grid index, target L, optimizer seed).
_Request = tuple[bool, int, float, int]


@dataclass(frozen=True)
class SolverConfig:
    """Root-solve precision and the optimizer settings behind each evaluation.

    ``tol_f`` is how close the tail functional must come to alpha/2; it
    must be positive and finite.
    """

    tol_f: float = 1e-4
    optimizer: OptimizerConfig = OptimizerConfig()

    def __post_init__(self):
        if not (math.isfinite(self.tol_f) and self.tol_f > 0):
            raise InputError(f"solver tolerance must be positive and finite, got {self.tol_f!r}")


def _tol_L(problem: Problem) -> float:
    """Bracket width at which a root solve stops: ``BRACKET_TOL`` of the attainable span."""
    span = float(problem.L_max - problem.L_min)
    return BRACKET_TOL * (span if span > 0 else 1.0)


@dataclass(frozen=True)
class FiducialBounds:
    """Interval endpoints with solve diagnostics.

    ``lb_pinned``/``ub_pinned`` mark endpoints forced to the attainable
    extremes (observed value at a lattice end); ``residuals`` are the
    distances of the tail functionals from alpha/2 at the returned endpoints.
    """

    lower: float
    upper: float
    alpha: float
    y_hat: Fraction
    lb_pinned: bool
    ub_pinned: bool
    residuals: tuple[float, float]


@dataclass(frozen=True)
class _BoundResult:
    value: float
    pinned: bool
    residual: float


def _derived_seed(base_seed: int, side: int, y_index: int, attempt: int) -> int:
    ss = np.random.SeedSequence((int(base_seed), side, y_index, attempt))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _log_tail(fx: float, target: float) -> float:
    """``log(tail / target)`` for ``fx = tail - target``; minus infinity where the tail is 0."""
    return math.log1p(fx / target) if fx > -target else -math.inf


def _bracket_solve(
    f: Callable[[float], Generator],
    lo: float,
    hi: float,
    f_lo: float,
    f_hi: float,
    target: float,
    tol_f: float,
    tol_L: float,
) -> Generator[_Request, float, tuple[float, float]]:
    """Illinois false position on the log tail, within a bracketing interval.

    ``f`` is a solve's tail function, tail minus ``target`` (see ``_solve``),
    and requires opposite signs at the ends.  The tail is sigmoid in L, 0 at
    the pinned end and about 1/2 at y, and on its way up from the pinned end
    its log is close to a line; so each step interpolates
    ``log(tail / target)`` linearly between the ends.  An end kept twice in
    a row has its log value halved for the next interpolation (Illinois,
    Dowell & Jarratt 1971).  A step bisects instead when an end's tail is
    exactly 0, when the interpolated point is not strictly inside the
    bracket, or when the last three steps have not halved the bracket.

    Returns (x, |f(x)|) for the first x with ``-tol_f <= f(x) <= 0``: that
    side widens the interval, so both bound directions err conservatively.
    If the bracket collapses first, returns its f <= 0 end.
    """
    a, fa, b, fb = lo, f_lo, hi, f_hi
    if fa == 0.0:
        return a, 0.0
    if fb == 0.0:
        return b, 0.0
    if (fa > 0) == (fb > 0):
        raise NumericalError(
            f"root bracket [{lo:g}, {hi:g}] has same-sign values ({fa:g}, {fb:g})"
        )
    ga, gb = _log_tail(fa, target), _log_tail(fb, target)
    kept = None  # the end the last step kept: "a", "b" or None
    # Bracket widths before the last three steps: an Illinois correction
    # takes three (two steps that keep one end, then the halved step).
    widths = [math.inf] * 3
    for _ in range(MAX_ITER):
        width = abs(b - a)
        if width <= tol_L:
            break
        x = 0.5 * (a + b)
        if math.isfinite(ga) and math.isfinite(gb) and width <= 0.5 * widths[0]:
            x_fp = b - gb * (b - a) / (gb - ga)
            if min(a, b) < x_fp < max(a, b):
                x = x_fp
        widths = widths[1:] + [width]
        fx = yield from f(x)
        if -tol_f <= fx <= 0:
            return x, abs(fx)
        gx = _log_tail(fx, target)
        if (fx > 0) == (fb > 0):
            b, fb, gb = x, fx, gx
            if kept == "a":
                ga *= 0.5
            kept = "a"
        else:
            a, fa, ga = x, fx, gx
            if kept == "b":
                gb *= 0.5
            kept = "b"
    # Bracket exhausted: report the f <= 0 endpoint (conservative side).
    if fa <= 0:
        return a, abs(fa)
    return b, abs(fb)


def _expand_until_sign(
    f: Callable[[float], Generator],
    start: float,
    limit: float,
    f_start: float,
    steps: int = 8,
) -> Generator[_Request, float, tuple[float, float]]:
    """Walk from start toward limit until f turns positive (or fail)."""
    x, fx = start, f_start
    for i in range(1, steps + 1):
        if fx > 0:
            return x, fx
        x = start + (limit - start) * i / steps
        fx = yield from f(x)
    if fx >= 0:
        return x, fx
    raise NumericalError(
        f"could not bracket the tail-functional root by expanding toward {limit:g}"
    )


def _tail_values(
    problem: Problem, requests: list[_Request], cfg: SolverConfig, draws: SeedDraws
) -> list[float]:
    """The tail functional of each request, from one batched search.

    A request carries the grid index of the CDF it reads.  Upper tail
    P(Y >= y | L): one minus the infimum CDF at the index below y.  Lower
    tail P(Y <= y | L): the supremum CDF at y's index.
    """
    cdfs, _ = _search_batch(
        problem, [(idx, L, not upper, seed) for upper, idx, L, seed in requests],
        cfg.optimizer, draws,
    )
    return [1.0 - c if r[0] else c for r, c in zip(requests, cdfs.tolist())]


def _solve(
    problem: Problem,
    y_idx: int,
    alpha: float,
    cfg: SolverConfig,
    side: int,
    tails: Optional[TailMemo] = None,
) -> Generator[_Request, float, _BoundResult]:
    """One interval endpoint: invert a tail functional at alpha/2.

    The lower bound (``side == _LOWER``) inverts the upper-tail functional
    with its end pinned at ``L_min``; the upper bound mirrors it with the
    lower-tail functional and ``L_max``.  The bracket runs from the pinned
    end to y, expanding toward the far end if needed.  A solve whose
    residual misses ``tol_f`` is retried once with a derived seed, and the
    wider of the two endpoints is kept.  Tail values are looked up in, and
    added to, ``tails`` when one is given.  ``y_idx`` must be attainable:
    the callers pass an observed value or a table's ``present`` indices,
    and ``_solve_lower``/``_solve_upper`` check any other value.

    A generator: for each tail value it lacks it yields a request
    ``(upper tail, CDF grid index, L, seed)`` and is sent the value back;
    it returns the endpoint.  ``_run_solves`` drives it.
    """
    lattice = y_lattice(problem)
    lower = side == _LOWER
    pinned, far = float(problem.L_min), float(problem.L_max)
    if not lower:
        pinned, far = far, pinned
    if y_idx == (0 if lower else lattice.count - 1):
        return _BoundResult(pinned, True, 0.0)
    target = alpha / 2.0
    tol_L = _tol_L(problem)
    # The lower bound's upper tail at y is one minus the CDF one grid point below.
    cdf_idx = y_idx - 1 if lower else y_idx

    candidates: list[_BoundResult] = []
    for attempt in range(2):
        seed = _derived_seed(cfg.optimizer.seed, side, y_idx, attempt)
        known = {} if tails is None else tails.setdefault((side, y_idx, attempt), {})

        def f(L: float) -> Generator[_Request, float, float]:
            if L not in known:
                known[L] = yield (lower, cdf_idx, L, seed)
            return known[L] - target

        f_pin = yield from f(pinned)
        if f_pin > 0:
            return _BoundResult(pinned, True, 0.0)
        x = float(lattice.value(y_idx))
        f_x = yield from f(x)
        if f_x < 0:
            x, f_x = yield from _expand_until_sign(f, x, far, f_x)
        ends = [(pinned, f_pin), (x, f_x)]
        (lo, f_lo), (hi, f_hi) = ends if lower else ends[::-1]
        root, residual = yield from _bracket_solve(
            f, lo, hi, f_lo, f_hi, target, cfg.tol_f, tol_L
        )
        candidates.append(_BoundResult(root, False, residual))
        if residual <= cfg.tol_f:
            break
    # The wider interval wins.
    return (min if lower else max)(candidates, key=lambda r: r.value)


def _run_solves(
    problem: Problem,
    solves: list[Generator],
    cfg: SolverConfig,
    draws: Optional[SeedDraws] = None,
) -> list[_BoundResult]:
    """Run ``_solve`` generators in lockstep; returns their endpoints in order.

    Each round sends one request per unfinished solve to one batched search.
    Each seed's draws are made once for the whole run, or looked up in and
    added to ``draws`` when one is given (for this problem and ``cfg``).
    """
    results: list[Optional[_BoundResult]] = [None] * len(solves)
    requests: dict[int, _Request] = {}

    def advance(i: int, value: Optional[float]) -> None:
        try:
            requests[i] = solves[i].send(value)
        except StopIteration as done:
            results[i] = done.value

    for i in range(len(solves)):
        advance(i, None)
    if draws is None:
        draws = {}
    while requests:
        pending = list(requests.items())
        requests.clear()
        values = _tail_values(problem, [r for _, r in pending], cfg, draws)
        for (i, _), value in zip(pending, values):
            advance(i, value)
    return results


def _attainable_index(problem: Problem, y: Union[Fraction, int, float]) -> int:
    """The grid index of ``y``, which must be attainable by some outcome."""
    lattice = y_lattice(problem)
    idx = lattice.index_of(y)
    if not attainable_mask(problem)[idx]:
        raise InputError(f"observed value {lattice.value(idx)} is not attainable by any outcome")
    return idx


# One endpoint solve each, at any grid value; perfbench/tracing.py counts
# solves through these names, which only outside callers now reach.
def _solve_lower(problem, y, alpha, cfg, tails=None) -> _BoundResult:
    idx = _attainable_index(problem, y)
    return _run_solves(problem, [_solve(problem, idx, alpha, cfg, _LOWER, tails)], cfg)[0]


def _solve_upper(problem, y, alpha, cfg, tails=None) -> _BoundResult:
    idx = _attainable_index(problem, y)
    return _run_solves(problem, [_solve(problem, idx, alpha, cfg, _UPPER, tails)], cfg)[0]


def _validate_alpha(alpha: float) -> float:
    if not isinstance(alpha, (int, float)) or not 0 < alpha < 1:
        raise InputError(f"alpha must lie in (0, 1), got {alpha!r}")
    return float(alpha)


def fiducial_interval(
    problem: Problem,
    counts: ObservedCounts,
    alpha: float,
    cfg: SolverConfig = SolverConfig(),
) -> FiducialBounds:
    """Exact interval for the weighted sum given observed counts."""
    alpha = _validate_alpha(alpha)
    check_counts(problem, counts)
    y_hat = estimate_L(problem, counts)
    idx = y_lattice(problem).index_of(y_hat)
    lo, up = _run_solves(
        problem, [_solve(problem, idx, alpha, cfg, side) for side in (_LOWER, _UPPER)], cfg
    )
    lower = min(lo.value, float(y_hat))
    upper = max(up.value, float(y_hat))
    return FiducialBounds(
        lower=lower,
        upper=upper,
        alpha=alpha,
        y_hat=y_hat,
        lb_pinned=lo.pinned,
        ub_pinned=up.pinned,
        residuals=(lo.residual, up.residual),
    )


def _y_quantile(
    problem: Problem, L: float, alpha: float, cfg: SolverConfig, upper: bool
) -> Optional[Fraction]:
    """First grid value, scanning inward from the tail's edge, whose tail at L is <= alpha."""
    check_target(problem, L)
    lattice = y_lattice(problem)
    salt = _QUANT_LB if upper else _QUANT_UB
    order = range(lattice.count) if upper else range(lattice.count - 1, -1, -1)
    for idx in order:
        if idx == order[0]:
            value = 1.0  # the tail at its edge holds every outcome
        else:
            seed = _derived_seed(cfg.optimizer.seed, salt, idx, 0)
            request = (upper, idx - 1 if upper else idx, float(L), seed)
            value = _tail_values(problem, [request], cfg, {})[0]
        if value <= alpha:
            return lattice.value(idx)
    return None


def y_quantile_lb(
    problem: Problem,
    L: float,
    alpha: float,
    cfg: SolverConfig = SolverConfig(),
) -> Optional[Fraction]:
    """Smallest grid value whose upper-tail functional at L is <= alpha.

    Returns None when no grid value qualifies.  Exposed mainly so the
    monotonicity-in-L properties of the tail quantiles can be tested.
    """
    return _y_quantile(problem, L, alpha, cfg, upper=True)


def y_quantile_ub(
    problem: Problem,
    L: float,
    alpha: float,
    cfg: SolverConfig = SolverConfig(),
) -> Optional[Fraction]:
    """Largest grid value whose lower-tail functional at L is <= alpha."""
    return _y_quantile(problem, L, alpha, cfg, upper=False)


@dataclass(frozen=True)
class IntervalTable:
    """Interval endpoints for every attainable observed value, index-aligned."""

    problem: Problem
    alpha: float
    lower: np.ndarray
    upper: np.ndarray
    present: np.ndarray

    def __post_init__(self):
        count = y_lattice(self.problem).count
        for name in ("lower", "upper", "present"):
            if np.shape(getattr(self, name)) != (count,):
                raise InputError(f"table {name} must have one entry per lattice point ({count})")

    def entry(self, y: Union[Fraction, int, float]) -> tuple[float, float]:
        idx = y_lattice(self.problem).index_of(y)
        if not self.present[idx]:
            raise InputError(f"no interval entry for unattainable value {y!r}")
        return float(self.lower[idx]), float(self.upper[idx])


def build_interval_table(
    problem: Problem,
    alpha: float,
    cfg: SolverConfig = SolverConfig(),
    *,
    tails: Optional[TailMemo] = None,
    draws: Optional[SeedDraws] = None,
) -> IntervalTable:
    """Solve both endpoints for every attainable observed value.

    Endpoints at the lattice extremes are pinned without a solve; all other
    endpoints are solved in lockstep (``_run_solves``).  Tables of one
    problem and ``cfg`` at several levels may share a ``tails`` memo and the
    optimizer's seed ``draws``; every endpoint is the same as without them.
    """
    alpha = _validate_alpha(alpha)
    lattice = y_lattice(problem)
    mask = attainable_mask(problem)
    present = np.flatnonzero(mask).tolist()
    solves = [_solve(problem, idx, alpha, cfg, side, tails)
              for idx in present for side in (_LOWER, _UPPER)]
    results = [r.value for r in _run_solves(problem, solves, cfg, draws)]
    lower = np.full(lattice.count, np.nan)
    upper = np.full(lattice.count, np.nan)
    lower[present] = results[0::2]
    upper[present] = results[1::2]
    lower.setflags(write=False)
    upper.setflags(write=False)
    return IntervalTable(problem=problem, alpha=alpha, lower=lower, upper=upper, present=mask)


def adjust_alpha(
    problem: Problem,
    alpha: float,
    L_grid_size: int,
    cfg: SolverConfig = SolverConfig(),
) -> float:
    """Inflated significance level whose average coverage hits 1 - alpha.

    Average coverage is evaluated over a uniform grid of target values (flat
    weighting), sampling ``L_grid_size`` feasible probability vectors per grid
    point with common random numbers across candidate levels, so the coverage curve
    is a deterministic, monotone function of the candidate level and can be
    bisected.  Returns ``alpha`` unchanged when adjustment has no effect
    (degenerate problems), and the largest allowed level when even that
    cannot pull average coverage down to the target.

    The level-free work is done once per call: the coverage cells are drawn
    once while their pmf rows fit in ``coverage.CELL_STORE_BYTES``, and tail
    values and the optimizer's seed draws are shared across the candidate
    tables, which stay exactly the tables ``build_interval_table`` gives at
    each level.
    """
    from .coverage import _check_sizes, _table_coverage  # deferred: coverage imports bounds

    alpha = _validate_alpha(alpha)
    _check_sizes(L_grid_size=L_grid_size)
    target = 1.0 - alpha
    coverage = _table_coverage(problem, L_grid_size, L_grid_size, cfg.optimizer.seed)
    tails: TailMemo = {}
    draws: SeedDraws = {}
    cache: dict[float, float] = {}

    def C(alpha_prime: float) -> float:
        if alpha_prime not in cache:
            table = build_interval_table(problem, alpha_prime, cfg, tails=tails, draws=draws)
            cache[alpha_prime] = coverage(table).avg_coverage
        return cache[alpha_prime]

    lo, hi = alpha, min(1.0 - 1e-9, 10.0 * alpha)
    c_lo = C(lo)
    if c_lo < target:
        raise NumericalError(
            f"average coverage {c_lo:.4f} at the nominal level is already below {target:.4f}"
        )
    if abs(c_lo - target) <= COVERAGE_TOL:
        return lo
    c_hi = C(hi)
    if c_hi >= target:
        # Adjustment cannot reach the target; a flat curve means it has no effect.
        return lo if math.isclose(c_hi, c_lo, abs_tol=1e-12) else hi
    while hi - lo > ALPHA_TOL:
        mid = 0.5 * (lo + hi)
        if C(mid) > target:
            lo = mid
        else:
            hi = mid
    # Report the side whose coverage stays at or above the target.
    if abs(C(lo) - target) > COVERAGE_TOL and abs(C(hi) - target) > COVERAGE_TOL:
        raise NumericalError(
            f"average coverage jumps across the target near level {lo:.4f} "
            f"({C(lo):.4f} vs {C(hi):.4f}); no level meets the {COVERAGE_TOL:g} tolerance"
        )
    return lo if abs(C(lo) - target) <= abs(C(hi) - target) else hi
