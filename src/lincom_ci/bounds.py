"""Interval bounds by inverting the tail functionals with a bracketed solver.

The lower bound is the weighted-sum value at which the upper-tail functional
of the observed statistic drops to alpha/2; the upper bound mirrors it with
the lower-tail functional.  Both functionals are evaluated by the stochastic
optimizer, so each solve fixes the optimizer seed from the observed value
only (not from the trial target), making the solved function deterministic
and effectively monotone during the bracketing.

The tail is exactly 0 at a solve's pinned end and 1 at its far end (there
every feasible vector puts Y at that end of its lattice), so those values
are never searched.  Each solve brackets the root between the observed
value and the pinned end, or the far end when the tail at the observed
value is already below alpha/2, and closes in by a bracket-safeguarded
secant on the probit of the tail, aimed at the middle of the accepted tail
band, with Illinois false position and bisection as its fallbacks
(``_bracket_solve``).  It accepts a point only when the tail lies within
``tol_f`` below alpha/2, the side that widens the interval; if the bracket
runs out first it returns the bracket's end on that side.  So every
endpoint errs wide, never narrow.

Each endpoint solve is a generator that yields a tail request whenever it
needs a tail value it has not memoised.  One loop, ``_run_solves``, runs
every endpoint of an interval or a table in lockstep: each round it sends
the pending request of every unfinished solve to one batched tail search
(``optimizer._search_batch``).  Each solve takes the same steps, in the
same order and with the same arithmetic, as it would alone.  What the solves
memoise does not depend on alpha, so they keep it in one ``_SolveMemo`` per
call, which ``adjust_alpha`` shares across its candidate tables.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Generator, Optional, Union

import numpy as np
from scipy.special import ndtri

from .errors import InputError, NumericalError
from .model import (
    ObservedCounts,
    Problem,
    attainable_mask,
    check_counts,
    check_target,
    estimate_L,
    per_problem,
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

#: One tail value a solve needs: (upper tail, CDF grid index, target L, optimizer seed).
_Request = tuple[bool, int, float, int]


@dataclass(frozen=True)
class SolverConfig:
    """Root-solve precision and the optimizer settings behind each evaluation.

    ``tol_f`` is how close the tail functional must come to alpha/2; it
    must be a positive and finite real number (not a bool).
    """

    tol_f: float = 1e-4
    optimizer: OptimizerConfig = OptimizerConfig()

    def __post_init__(self):
        if isinstance(self.tol_f, bool) or not isinstance(self.tol_f, numbers.Real):
            raise InputError(f"solver tolerance must be a real number, got {self.tol_f!r}")
        if not isinstance(self.optimizer, OptimizerConfig):
            raise InputError(f"optimizer must be an OptimizerConfig, got {self.optimizer!r}")
        if not (math.isfinite(self.tol_f) and self.tol_f > 0):
            raise InputError(f"solver tolerance must be positive and finite, got {self.tol_f!r}")


@per_problem
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


class _SolveMemo:
    """What the solves of one problem and one ``SolverConfig`` memoise, for one call.

    ``attempts`` holds, by ``(side, y index, attempt)``, the attempt's
    derived seed, y's value and its tail values by target L; ``draws`` holds
    each optimizer seed's draws (``optimizer._search_batch``).  None of it
    depends on alpha, so tables at several levels may share one memo, each
    the same table as with a fresh one.
    """

    def __init__(self) -> None:
        self.attempts: dict[tuple[int, int, int], tuple[int, float, dict[float, float]]] = {}
        self.draws: SeedDraws = {}


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
    """Safeguarded secant on the probit of the tail, aimed at the middle of the accepted band.

    ``f`` is a solve's tail function, tail minus ``target`` (see ``_solve``),
    and requires opposite signs at the ends.  The tail is sigmoid in L, 0 at
    the pinned end and about 1/2 at y, and to first order a normal tail
    Phi((L - y) / sigma), so its probit is close to a line in L; each step
    interpolates ``g = ndtri(tail) - ndtri(mid)`` linearly, where ``mid`` is
    the middle of the accepted tail band ``[max(target - tol_f, 0), target]``.
    Aiming there rather than at ``target`` lands a step inside the band when
    g is close to a line, instead of one step short of or past its edge.  A
    tail of 0 or less has g minus infinity, and one of 1 or more plus
    infinity.

    A step goes to the secant through the two most recently evaluated
    points with finite g if that lies strictly inside the bracket, else to
    the Illinois false-position point of the bracket's ends, else to the
    bracket's middle (Dekker 1969; Brent 1973, ch. 4).  For the Illinois
    point an end kept twice in a row has its g halved (Dowell & Jarratt
    1971), and it needs both ends' g finite.  A step bisects outright when
    the last two steps have not halved the bracket.

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
    z_mid = float(ndtri(target - 0.5 * min(tol_f, target)))

    def probit(fx: float) -> float:
        # infinite where the tail is 0 or 1 (or a rounded read past either)
        tail = fx + target
        if tail <= 0.0:
            return -math.inf
        if tail >= 1.0:
            return math.inf
        return float(ndtri(tail)) - z_mid

    ga, gb = probit(fa), probit(fb)
    # The last two evaluated points with finite g, oldest first.
    recent = [(x, g) for x, g in ((a, ga), (b, gb)) if math.isfinite(g)]
    kept = None  # the end the last step kept: "a", "b" or None
    # Bracket widths before the last two steps: a step bisects when two
    # steps have not halved the bracket.
    widths = [math.inf] * 2
    for _ in range(MAX_ITER):
        width = abs(b - a)
        if width <= tol_L:
            break
        x = 0.5 * (a + b)
        if width <= 0.5 * widths[0]:
            steps = []
            if len(recent) == 2 and recent[0][1] != recent[1][1]:
                (x0, g0), (x1, g1) = recent
                steps.append(x1 - g1 * (x1 - x0) / (g1 - g0))
            if math.isfinite(ga) and math.isfinite(gb) and ga != gb:
                steps.append(b - gb * (b - a) / (gb - ga))
            x = next((s for s in steps if min(a, b) < s < max(a, b)), x)
        widths = widths[1:] + [width]
        fx = yield from f(x)
        if -tol_f <= fx <= 0:
            return x, abs(fx)
        gx = probit(fx)
        if math.isfinite(gx):
            recent = [*recent[-1:], (x, gx)]
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
    memo: _SolveMemo,
) -> Generator[_Request, float, _BoundResult]:
    """One interval endpoint: invert a tail functional at alpha/2.

    The lower bound (``side == _LOWER``) inverts the upper-tail functional
    with its end pinned at ``L_min``; the upper bound mirrors it with the
    lower-tail functional and ``L_max``.  At either end of the range every
    feasible vector puts all its mass on extreme-weight categories, so Y sits
    at that end of its lattice and the tail is known without a search: 0 at
    the pinned end and 1 at the far end, which y itself may be.  Otherwise
    only y's value is searched; the bracket runs from it to the pinned end,
    or to the far end if the tail at y is already below alpha/2.  A solve
    whose residual misses ``tol_f`` is retried once with a derived seed, and
    the wider of the two endpoints is kept.  Each attempt's seed, y's value
    and tail values are looked up in, and added to, ``memo``.  ``y_idx``
    must be attainable: the callers pass an observed value or a table's
    ``present`` indices, and ``_solve_one`` checks any other value.

    A generator: for each tail value it lacks it yields a request
    ``(upper tail, CDF grid index, L, seed)`` and is sent the value back;
    it returns the endpoint.  ``_run_solves`` drives it.
    """
    lower = side == _LOWER
    pinned, far = problem.L_range_float()[:: 1 if lower else -1]
    if y_idx == (0 if lower else y_lattice(problem).count - 1):
        return _BoundResult(pinned, True, 0.0)
    target = alpha / 2.0
    # The lower bound's upper tail at y is one minus the CDF one grid point below.
    cdf_idx = y_idx - 1 if lower else y_idx

    candidates: list[_BoundResult] = []
    for attempt in range(2):
        key = (side, y_idx, attempt)
        if key not in memo.attempts:
            seed = _derived_seed(cfg.optimizer.seed, *key)
            memo.attempts[key] = seed, float(y_lattice(problem).value(y_idx)), {}
        seed, x, known = memo.attempts[key]

        def f(L: float) -> Generator[_Request, float, float]:
            if L in (pinned, far):
                return float(L == far) - target
            if L not in known:
                known[L] = yield (lower, cdf_idx, L, seed)
            return known[L] - target

        f_x = yield from f(x)
        end = pinned if f_x >= 0 else far
        f_end = yield from f(end)
        (lo, f_lo), (hi, f_hi) = sorted([(end, f_end), (x, f_x)])
        root, residual = yield from _bracket_solve(
            f, lo, hi, f_lo, f_hi, target, cfg.tol_f, _tol_L(problem)
        )
        candidates.append(_BoundResult(root, False, residual))
        if residual <= cfg.tol_f:
            break
    # The wider interval wins.
    return (min if lower else max)(candidates, key=lambda r: r.value)


def _run_solves(
    problem: Problem, solves: list[Generator], cfg: SolverConfig, memo: _SolveMemo
) -> list[_BoundResult]:
    """Run ``_solve`` generators in lockstep; returns their endpoints in order.

    Each round sends one request per unfinished solve to one batched search,
    which looks each seed's draws up in, or adds them to, ``memo``: the memo
    the solves were made with.
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
    while requests:
        pending = list(requests.items())
        requests.clear()
        values = _tail_values(problem, [r for _, r in pending], cfg, memo.draws)
        for (i, _), value in zip(pending, values):
            advance(i, value)
    return results


def _solve_one(problem, y, alpha, cfg, memo=None, *, side: int) -> _BoundResult:
    """One endpoint solve on ``side`` at any grid value ``y``, which must be attainable."""
    lattice = y_lattice(problem)
    idx = lattice.index_of(y)
    if not attainable_mask(problem)[idx]:
        raise InputError(f"observed value {lattice.value(idx)} is not attainable by any outcome")
    memo = _SolveMemo() if memo is None else memo
    return _run_solves(problem, [_solve(problem, idx, alpha, cfg, side, memo)], cfg, memo)[0]


# perfbench/tracing.py counts solves through these names, which only
# outside callers now reach.
_solve_lower = functools.partial(_solve_one, side=_LOWER)
_solve_upper = functools.partial(_solve_one, side=_UPPER)


def _validate_alpha(alpha: numbers.Real, one_ok: bool = False) -> float:
    """``alpha`` as a float; ``InputError`` unless it is a real number (not a bool) in (0, 1).

    With ``one_ok`` 1 is in range too, as for a one-sided tail level.
    """
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real):
        raise InputError(f"alpha must be a real number, got {alpha!r}")
    value = float(alpha)
    if not (0 < value <= 1 if one_ok else 0 < value < 1):
        raise InputError(f"alpha must lie in (0, 1{']' if one_ok else ')'}, got {alpha!r}")
    return value


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
    memo = _SolveMemo()
    lo, up = _run_solves(
        problem, [_solve(problem, idx, alpha, cfg, side, memo) for side in (_LOWER, _UPPER)],
        cfg, memo,
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
    """First grid value, scanning inward from the tail's edge, whose tail at L is <= alpha.

    At either float end of the range Y sits at that end of its lattice (see
    ``_solve``), so every tail there is exactly 0 or 1 and none is searched.
    """
    alpha = _validate_alpha(alpha, one_ok=True)
    check_target(problem, L)
    lattice = y_lattice(problem)
    salt = _QUANT_LB if upper else _QUANT_UB
    order = range(lattice.count) if upper else range(lattice.count - 1, -1, -1)
    # The grid index Y sits at when L is an end of the range.
    L_lo, L_hi = problem.L_range_float()
    at = {L_lo: 0, L_hi: lattice.count - 1}.get(float(L))
    for idx in order:
        if idx == order[0]:
            value = 1.0  # the tail at its edge holds every outcome
        elif at is not None:
            value = float(idx <= at if upper else idx >= at)
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

    ``alpha`` is a one-sided level in (0, 1]; anything else raises
    ``InputError``.  Returns None when no grid value qualifies.  Exposed
    mainly so the monotonicity-in-L properties of the tail quantiles can be
    tested.
    """
    return _y_quantile(problem, L, alpha, cfg, upper=True)


def y_quantile_ub(
    problem: Problem,
    L: float,
    alpha: float,
    cfg: SolverConfig = SolverConfig(),
) -> Optional[Fraction]:
    """Largest grid value whose lower-tail functional at L is <= alpha, in (0, 1]."""
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
    problem: Problem, alpha: float, cfg: SolverConfig = SolverConfig()
) -> IntervalTable:
    """Solve both endpoints for every attainable observed value.

    Endpoints at the lattice extremes are pinned without a solve; all other
    endpoints are solved in lockstep (``_run_solves``).
    """
    return _build_table(problem, alpha, cfg, _SolveMemo())


def _build_table(
    problem: Problem, alpha: float, cfg: SolverConfig, memo: _SolveMemo
) -> IntervalTable:
    """``build_interval_table`` with the solves' memo (see ``_SolveMemo``) passed in."""
    alpha = _validate_alpha(alpha)
    lattice = y_lattice(problem)
    mask = attainable_mask(problem)
    present = np.flatnonzero(mask).tolist()
    solves = [_solve(problem, idx, alpha, cfg, side, memo)
              for idx in present for side in (_LOWER, _UPPER)]
    results = [r.value for r in _run_solves(problem, solves, cfg, memo)]
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
    and evaluated once while their pmf rows fit in
    ``coverage.CELL_STORE_BYTES``, and the candidate tables share one
    ``_SolveMemo``, so each solve's seed, y's value and tail values are made
    once per ``(side, y, attempt)`` and each seed's draws once.  The tables
    stay exactly the tables ``build_interval_table`` gives at each level.
    """
    from .coverage import _check_sizes, _table_coverage  # deferred: coverage imports bounds

    alpha = _validate_alpha(alpha)
    _check_sizes(L_grid_size=L_grid_size)
    target = 1.0 - alpha
    coverage = _table_coverage(problem, L_grid_size, L_grid_size, cfg.optimizer.seed)
    memo = _SolveMemo()
    cache: dict[float, float] = {}

    def C(alpha_prime: float) -> float:
        if alpha_prime not in cache:
            table = _build_table(problem, alpha_prime, cfg, memo)
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
