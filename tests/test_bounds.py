"""Interval inversion against closed-form and grid-inversion oracles."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import beta, binom

from lincom_ci import (
    InputError,
    NumericalError,
    ObservedCounts,
    OptimizerConfig,
    SolverConfig,
    adjust_alpha,
    build_problem,
    experiment,
    fiducial_interval,
    y_quantile_lb,
    y_quantile_ub,
)
from lincom_ci import bayescost, bounds, coverage, optimizer, pmf
from lincom_ci.bounds import _solve_lower, _solve_upper, build_interval_table
from lincom_ci.coverage import ScenarioSpec
from lincom_ci.model import attainable_mask, y_lattice

from conftest import fail_one_bracket
import sequential_reference as ref

#: Default solver settings for single endpoint solves.
CFG = SolverConfig()


def cp_bounds(x: int, n: int, alpha: float) -> tuple[float, float]:
    """Clopper-Pearson interval via beta quantiles (independent oracle)."""
    lo = 0.0 if x == 0 else float(beta.ppf(alpha / 2, x, n - x + 1))
    hi = 1.0 if x == n else float(beta.ppf(1 - alpha / 2, x + 1, n - x))
    return lo, hi


def contrast_tail_cdf(y_times_n: int, p1: np.ndarray, p2: np.ndarray, n: int = 5):
    """P(X1 - X2 <= y*n) for two independent binomials (oracle route)."""
    total = np.zeros_like(p1, dtype=float)
    for a in range(n + 1):
        thresh = a - y_times_n  # need X2 >= thresh
        tail = 1.0 if thresh <= 0 else 1.0 - binom.cdf(thresh - 1, n, p2)
        total += binom.pmf(a, n, p1) * tail
    return total


def contrast_feasible(L: float, n_points: int = 2000):
    p1 = np.linspace(max(0.0, L), min(1.0, 1.0 + L), n_points)
    return p1, p1 - L


def oracle_lower_bound(y_times_n: int, alpha: float, n_L: int = 800) -> float:
    """Grid inversion of the upper-tail functional for the n=5 contrast."""
    y = y_times_n / 5.0
    Ls = np.linspace(-1.0, y, n_L)
    vals = np.empty(n_L)
    for i, L in enumerate(Ls):
        p1, p2 = contrast_feasible(L)
        vals[i] = 1.0 - contrast_tail_cdf(y_times_n - 1, p1, p2).min()
    target = alpha / 2
    above = np.flatnonzero(vals >= target)
    if above.size == 0:
        return float(Ls[-1])
    j = above[0]
    if j == 0:
        return float(Ls[0])
    # linear interpolation between the bracketing grid points
    f0, f1 = vals[j - 1], vals[j]
    return float(Ls[j - 1] + (target - f0) / (f1 - f0) * (Ls[j] - Ls[j - 1]))


def oracle_upper_bound(y_times_n: int, alpha: float, n_L: int = 800) -> float:
    y = y_times_n / 5.0
    Ls = np.linspace(y, 1.0, n_L)
    vals = np.empty(n_L)
    for i, L in enumerate(Ls):
        p1, p2 = contrast_feasible(L)
        vals[i] = contrast_tail_cdf(y_times_n, p1, p2).max()
    target = alpha / 2
    below = np.flatnonzero(vals < target)
    if below.size == 0:
        return float(Ls[-1])
    j = below[0]
    f0, f1 = vals[j - 1], vals[j]
    return float(Ls[j - 1] + (target - f0) / (f1 - f0) * (Ls[j] - Ls[j - 1]))


class TestBinomialBounds:
    def test_lower_pinned_at_zero(self, binomial10):
        assert _solve_lower(binomial10, 0, 0.05, CFG).value == 0.0

    def test_lower_all_successes(self, binomial10):
        lo = _solve_lower(binomial10, 1, 0.05, CFG).value
        assert lo == pytest.approx(0.025 ** 0.1, abs=1e-3)

    def test_upper_at_zero(self, binomial10):
        hi = _solve_upper(binomial10, 0, 0.05, CFG).value
        assert hi == pytest.approx(1 - 0.025 ** 0.1, abs=1e-3)

    def test_upper_pinned_at_top(self, binomial10):
        assert _solve_upper(binomial10, 1, 0.05, CFG).value == 1.0

    def test_interval_matches_clopper_pearson(self, binomial10):
        res = fiducial_interval(binomial10, ObservedCounts(blocks=((2, 8),)), 0.05)
        lo, hi = cp_bounds(2, 10, 0.05)
        assert res.lower == pytest.approx(lo, abs=1e-3)
        assert res.upper == pytest.approx(hi, abs=1e-3)
        assert not res.lb_pinned and not res.ub_pinned
        assert max(res.residuals) <= SolverConfig().tol_f

    @pytest.mark.parametrize("n", [3, 12, 25])
    def test_reduction_sweep(self, n):
        prob = build_problem([experiment(n, (1, 0))])
        for x in range(n + 1):
            res = fiducial_interval(prob, ObservedCounts(blocks=((x, n - x),)), 0.05)
            lo, hi = cp_bounds(x, n, 0.05)
            assert res.lower == pytest.approx(lo, abs=1e-3)
            assert res.upper == pytest.approx(hi, abs=1e-3)


class TestContrastBounds:
    def test_lower_matches_grid_inversion(self, scenario_c5):
        ours = _solve_lower(scenario_c5, Fraction(2, 5), 0.05, CFG).value
        assert ours == pytest.approx(oracle_lower_bound(2, 0.05), abs=0.01)

    def test_upper_matches_grid_inversion(self, scenario_c5):
        ours = _solve_upper(scenario_c5, Fraction(2, 5), 0.05, CFG).value
        assert ours == pytest.approx(oracle_upper_bound(2, 0.05), abs=0.01)


#: Synthetic tails on [0, SPAN], pinned at 0: each rises to about 1/2 at SPAN.
SPAN = 4.0
SYNTHETIC_TAILS = {
    "logistic": lambda L: 1.0 / (1.0 + math.exp(-2.0 * (L - SPAN))),
    "steep logistic": lambda L: 1.0 / (1.0 + math.exp(-8.0 * (L - SPAN))),
    "normal": lambda L: 0.5 * math.erfc((SPAN - L) / (1.1 * math.sqrt(2.0))),
    "zero stretch": lambda L: 0.0 if L < 1.5 else 0.5 * ((L - 1.5) / (SPAN - 1.5)) ** 3,
    "step": lambda L: 0.0 if L < 2.2 else 0.5,
    "plateau": lambda L: 0.024 + 1e-4 * L if L < 3.9 else 0.5,
    "wiggle": lambda L: max(0.0, 0.004 * math.sin(25 * L) + 1 / (1 + math.exp(1.5 * (SPAN - L)))),
}
SMOOTH_TAILS = ("logistic", "steep logistic", "normal", "zero stretch")
#: Tails that jump across the tolerance band, so the bracket runs out.
JUMPING_TAILS = ("step", "plateau")
TARGET, TOL_F, TOL_L = 0.025, 1e-4, 4e-6


def synthetic_solve(name, mirrored, hybrid=False):
    """Bracket-solve a synthetic tail at TARGET on [0, SPAN].

    ``mirrored`` reads the tail at SPAN - L, as an upper bound does, so the
    bracket's f > 0 end is at 0.  Returns (x, residual, f(x), evaluations,
    the tail function).
    """
    tail = SYNTHETIC_TAILS[name]
    if mirrored:
        tail = lambda L, rise=tail: rise(SPAN - L)  # noqa: E731
    calls = []

    def f(L):
        calls.append(L)
        return tail(L) - TARGET
        yield  # a generator that never needs a search

    args = (f, 0.0, SPAN, tail(0.0) - TARGET, tail(SPAN) - TARGET)
    solve = (ref.hybrid_bracket_solve(*args, TOL_F, TOL_L) if hybrid
             else bounds._bracket_solve(*args, TARGET, TOL_F, TOL_L))
    with pytest.raises(StopIteration) as done:
        next(solve)
    x, residual = done.value.value
    return x, residual, tail(x) - TARGET, len(calls), tail


class TestBracketSolve:
    """The Illinois solve on synthetic tails, against the hybrid solve it replaced."""

    @pytest.mark.parametrize("mirrored", [False, True])
    @pytest.mark.parametrize("name", list(SYNTHETIC_TAILS))
    def test_returns_the_wide_side(self, name, mirrored):
        x, _, fx, _, tail = synthetic_solve(name, mirrored)
        assert fx <= 0
        if fx < -TOL_F:
            # Only an exhausted bracket may miss: its f > 0 end is within tol_L.
            assert name in JUMPING_TAILS
            assert tail(x + (-TOL_L if mirrored else TOL_L)) > TARGET

    @pytest.mark.parametrize("mirrored", [False, True])
    @pytest.mark.parametrize("name", list(SYNTHETIC_TAILS))
    def test_residual_is_the_true_distance(self, name, mirrored):
        _, residual, fx, _, _ = synthetic_solve(name, mirrored)
        assert residual == abs(fx)

    @pytest.mark.parametrize("mirrored", [False, True])
    @pytest.mark.parametrize("name", SMOOTH_TAILS)
    def test_no_more_evaluations_than_the_hybrid(self, name, mirrored):
        assert synthetic_solve(name, mirrored)[3] <= synthetic_solve(name, mirrored, True)[3]

    @pytest.mark.parametrize("mirrored", [False, True])
    def test_bisection_guard_bounds_a_plateau(self, mirrored):
        # False position crawls along a plateau just below the target, even
        # with Illinois halving: 63 evaluations without the guard.  Bisection
        # alone collapses the bracket in 20 steps.
        assert synthetic_solve("plateau", mirrored)[3] <= 50

    def test_same_sign_bracket_raises(self):
        def f(L):
            return 1.0
            yield

        with pytest.raises(NumericalError, match="same-sign"):
            next(bounds._bracket_solve(f, 0.0, 1.0, 0.1, 0.2, TARGET, TOL_F, TOL_L))


class TestFiducialInterval:
    def test_degenerate_equal_weights(self):
        prob = build_problem([experiment(4, (3, 3))])
        res = fiducial_interval(prob, ObservedCounts(blocks=((1, 3),)), 0.05)
        assert (res.lower, res.upper) == (3.0, 3.0)
        assert res.lb_pinned and res.ub_pinned

    def test_brackets_estimate_scenario_a(self):
        prob = build_problem(
            [experiment(10, (0, 1, 1)), experiment(10, (2, 0, 3)), experiment(10, (5, 3, 0))]
        )
        counts = ObservedCounts(blocks=((0, 5, 5), (2, 0, 8), (5, 5, 0)))
        res = fiducial_interval(prob, counts, 0.05)
        assert res.lower <= float(res.y_hat) <= res.upper
        assert float(prob.L_min) <= res.lower and res.upper <= float(prob.L_max)

    def test_alpha_validation(self, binomial10):
        with pytest.raises(InputError, match="alpha"):
            fiducial_interval(binomial10, ObservedCounts(blocks=((2, 8),)), 1.5)

    def test_unattainable_y_rejected(self):
        prob = build_problem([experiment(2, (3, 1))])
        with pytest.raises(InputError, match="attainable"):
            _solve_lower(prob, Fraction(3, 2), 0.05, CFG)  # grid point with no outcome

    def test_float_observed_value_snaps_to_grid(self, scenario_c5):
        exact = _solve_lower(scenario_c5, Fraction(2, 5), 0.05, CFG).value
        assert _solve_lower(scenario_c5, 0.4, 0.05, CFG).value == exact
        with pytest.raises(InputError, match="lattice"):
            _solve_lower(scenario_c5, 0.41, 0.05, CFG)

    def test_nesting_across_alpha(self, scenario_c5):
        lat = y_lattice(scenario_c5)
        mask = attainable_mask(scenario_c5)
        cfg = SolverConfig()
        for idx in np.flatnonzero(mask):
            y = lat.value(int(idx))
            lo_wide = _solve_lower(scenario_c5, y, 0.01, cfg).value
            hi_wide = _solve_upper(scenario_c5, y, 0.01, cfg).value
            lo_narrow = _solve_lower(scenario_c5, y, 0.10, cfg).value
            hi_narrow = _solve_upper(scenario_c5, y, 0.10, cfg).value
            assert lo_wide <= lo_narrow + 1e-9
            assert hi_narrow <= hi_wide + 1e-9


class TestBoundsBelowTheirFloats:
    """A weight of 1/3: ``float(L_min)`` lies below ``L_min``, yet the solver
    pins and probes the lower end at that float."""

    @staticmethod
    def third_problem():
        return build_problem([experiment(3, ("1/3", 1))])

    @pytest.mark.parametrize("x", range(4))
    def test_interval_is_the_mapped_clopper_pearson_interval(self, x):
        # The statistic is 1/3 + 2/3 of the binomial proportion of the second cell.
        prob = self.third_problem()
        res = fiducial_interval(prob, ObservedCounts(blocks=((3 - x, x),)), 0.05)
        lo, hi = cp_bounds(x, 3, 0.05)
        assert res.lower == pytest.approx(1 / 3 + 2 / 3 * lo, abs=1e-3)
        assert res.upper == pytest.approx(1 / 3 + 2 / 3 * hi, abs=1e-3)
        if x == 0:
            assert res.lb_pinned and res.lower == float(prob.L_min)

    def test_quantiles_at_the_float_ends(self):
        # At either end the statistic sits at that end, so the tail quantile
        # is the next grid value inward and the other side has none.
        prob = self.third_problem()
        lat = y_lattice(prob)
        L_lo, L_hi = float(prob.L_min), float(prob.L_max)
        assert y_quantile_lb(prob, L_lo, 0.05) == lat.value(1)
        assert y_quantile_ub(prob, L_lo, 0.05) is None
        assert y_quantile_lb(prob, L_hi, 0.05) is None
        assert y_quantile_ub(prob, L_hi, 0.05) == lat.value(lat.count - 2)


class TestQuantileSets:
    def test_binomial_lb(self, binomial10):
        got = y_quantile_lb(binomial10, 0.5, 0.025)
        assert got == Fraction(9, 10)

    def test_binomial_ub(self, binomial10):
        got = y_quantile_ub(binomial10, 0.5, 0.025)
        assert got == Fraction(1, 10)

    def test_alpha_one_hits_extremes(self, binomial10):
        lat = y_lattice(binomial10)
        assert y_quantile_lb(binomial10, 0.5, 1.0) == lat.origin
        assert y_quantile_ub(binomial10, 0.5, 1.0) == lat.top

    def test_degenerate_vertex_lb(self, scenario_c5):
        # At the lowest attainable target the statistic is pinned at -1.
        got = y_quantile_lb(scenario_c5, -1.0, 0.025)
        assert got == Fraction(-4, 5)  # P(Y >= y) = 0 for any y above -1

    def test_degenerate_vertex_ub(self, scenario_c5):
        got = y_quantile_ub(scenario_c5, 1.0, 0.025)
        assert got == Fraction(4, 5)

    def test_monotone_in_target_small(self, scenario_c5):
        cfg = SolverConfig()
        grid = np.linspace(-1.0, 1.0, 9)
        lbs = [y_quantile_lb(scenario_c5, float(L), 0.025, cfg) for L in grid]
        ubs = [y_quantile_ub(scenario_c5, float(L), 0.025, cfg) for L in grid]
        for a, b in zip(lbs, lbs[1:]):
            assert a is None or b is None or a <= b
        for a, b in zip(ubs, ubs[1:]):
            assert a is None or b is None or a <= b


class TestAdjustAlpha:
    def test_binomial_matches_exhaustive_oracle(self, binomial10):
        def cp_avg_coverage(alpha, n=10, grid=1001):
            ps = np.linspace(0, 1, grid)
            xs = np.arange(n + 1)
            los = np.array([cp_bounds(x, n, alpha)[0] for x in xs])
            his = np.array([cp_bounds(x, n, alpha)[1] for x in xs])
            cover = np.zeros(grid)
            for x in xs:
                cover += ((ps >= los[x]) & (ps <= his[x])) * binom.pmf(x, n, ps)
            return cover.mean()

        lo_a, hi_a = 0.05, 0.5
        for _ in range(20):
            mid = 0.5 * (lo_a + hi_a)
            if cp_avg_coverage(mid) > 0.95:
                lo_a = mid
            else:
                hi_a = mid
        oracle = 0.5 * (lo_a + hi_a)
        ours = adjust_alpha(binomial10, 0.05, 50)
        assert ours == pytest.approx(oracle, abs=0.01)

    def test_degenerate_returns_nominal(self):
        prob = build_problem([experiment(4, (2, 2))])
        assert adjust_alpha(prob, 0.05, 10) == 0.05

    @pytest.mark.parametrize("size", [2.5, True, 0])
    def test_grid_size_must_be_a_positive_integer(self, size):
        # 2.5 used to end in a bare TypeError and True to run as grid 1.
        with pytest.raises(InputError, match="L_grid_size must be"):
            adjust_alpha(ScenarioSpec(id="C", n=3).problem(), 0.05, size)

    def test_table_reuse_is_cached(self, binomial10):
        # Bisection revisits levels through the cache; just assert it runs fast
        # at a coarse grid and returns within the bracket.
        got = adjust_alpha(binomial10, 0.10, 20)
        assert 0.10 <= got <= 1.0

    def test_repeat_calls_agree(self, scenario_c5):
        cfg = SolverConfig(optimizer=OptimizerConfig(n_r=8, n_s=8))
        first = adjust_alpha(scenario_c5, 0.05, 10, cfg)
        assert adjust_alpha(scenario_c5, 0.05, 10, cfg) == first

    def test_redrawn_cells_give_the_same_level(self, scenario_c5, monkeypatch):
        cfg = SolverConfig(optimizer=OptimizerConfig(n_r=8, n_s=8))
        stored = adjust_alpha(scenario_c5, 0.05, 10, cfg)
        monkeypatch.setattr(coverage, "CELL_STORE_BYTES", 0)
        assert adjust_alpha(scenario_c5, 0.05, 10, cfg) == stored

    def test_leaves_no_state_on_the_problem(self):
        # The tail memo lives for one call: tables built on the calibrated
        # problem afterwards match those of a fresh, equal problem.
        cfg = SolverConfig(optimizer=OptimizerConfig(n_r=10, n_s=10, seed=1))
        prob = ScenarioSpec(id="A", n=3).problem()
        level = adjust_alpha(prob, 0.1, 4, cfg)
        after = build_interval_table(prob, level, cfg)
        fresh = build_interval_table(ScenarioSpec(id="A", n=3).problem(), level, cfg)
        assert after.lower.tobytes() == fresh.lower.tobytes()
        assert after.upper.tobytes() == fresh.upper.tobytes()


# Levels in the order a bisection from [0.05, 0.5] visits them.
BISECTION_LEVELS = (0.05, 0.5, 0.275, 0.1625, 0.10625, 0.134375)


@pytest.mark.slow
@pytest.mark.parametrize("scenario", ["C5", "A3", "B3", "D3"])
def test_shared_tail_memo_is_exact(scenario):
    # Tables sharing one tail memo and one set of seed draws, as
    # ``adjust_alpha``'s do, must equal fresh builds bit for bit.  The tail
    # search is only roughly monotone in L, so starting brackets from
    # memoised values (warm starts) would move endpoints and fail here.
    prob = ScenarioSpec(id=scenario[0], n=int(scenario[1:])).problem()
    cfg = SolverConfig(optimizer=OptimizerConfig(seed=1))
    tails: dict = {}
    draws: dict = {}
    for alpha in BISECTION_LEVELS:
        shared = build_interval_table(prob, alpha, cfg, tails=tails, draws=draws)
        fresh = build_interval_table(prob, alpha, cfg)
        assert shared.lower.tobytes() == fresh.lower.tobytes(), alpha
        assert shared.upper.tobytes() == fresh.upper.tobytes(), alpha
    assert tails and draws


@pytest.mark.parametrize("scenario", ["A3", "B3", "C5", "D3"])
@pytest.mark.parametrize("shared", [False, True])
def test_lockstep_table_equals_solve_loop(scenario, shared):
    # The table's lockstep solves against one solve at a time, at two levels;
    # with ``shared`` each side keeps one memo across both levels.
    prob = ScenarioSpec(id=scenario[0], n=int(scenario[1:])).problem()
    cfg = SolverConfig(optimizer=OptimizerConfig(seed=3))
    lattice = y_lattice(prob)
    table_tails, loop_tails = ({}, {}) if shared else (None, None)
    for alpha in (0.05, 0.1625):
        table = build_interval_table(prob, alpha, cfg, tails=table_tails)
        for idx in np.flatnonzero(attainable_mask(prob)):
            y = lattice.value(int(idx))
            lo = _solve_lower(prob, y, alpha, cfg, loop_tails).value
            up = _solve_upper(prob, y, alpha, cfg, loop_tails).value
            assert (table.lower[idx].hex(), table.upper[idx].hex()) == (lo.hex(), up.hex())
    assert table_tails == loop_tails


@pytest.mark.parametrize("scenario", ["A3", "C5"])
def test_table_endpoints_err_wide(scenario):
    # Every solved endpoint's tail, read back from the memo, lies at most
    # tol_f below alpha/2 and never above it.
    prob = ScenarioSpec(id=scenario[0], n=int(scenario[1:])).problem()
    tails: dict = {}
    table = build_interval_table(prob, 0.05, CFG, tails=tails)
    lattice = y_lattice(prob)
    solved = 0
    for idx in np.flatnonzero(attainable_mask(prob)).tolist():
        for side, ends in ((bounds._LOWER, table.lower), (bounds._UPPER, table.upper)):
            if idx == (0 if side == bounds._LOWER else lattice.count - 1):
                continue
            L = float(ends[idx])
            (tail,) = [tails[key][L] for key in tails if key[:2] == (side, idx) and L in tails[key]]
            assert -CFG.tol_f <= tail - 0.025 <= 0, (side, idx, L, tail)
            solved += 1
    assert solved == 2 * attainable_mask(prob).sum() - 2


def test_adjust_alpha_draws_each_seed_once(monkeypatch, scenario_c5):
    made = []
    real = optimizer._seed_draws
    monkeypatch.setattr(optimizer, "_seed_draws",
                        lambda problem, seed, cfg: made.append(seed) or real(problem, seed, cfg))
    adjust_alpha(scenario_c5, 0.05, 10)
    assert made and len(made) == len(set(made))


def test_failing_solve_stops_the_table(monkeypatch, scenario_c5):
    fail_one_bracket(monkeypatch, 5)
    with pytest.raises(NumericalError, match="synthetic bracket failure"):
        build_interval_table(scenario_c5, 0.05)


def test_failing_solve_stops_the_interval(monkeypatch, scenario_c5):
    fail_one_bracket(monkeypatch, 2)
    counts = ObservedCounts(blocks=((3, 2), (1, 4)))
    with pytest.raises(NumericalError, match="synthetic bracket failure"):
        fiducial_interval(scenario_c5, counts, 0.05)


def paper_interval_problem():
    """The paper's first diagnostic table, whole-number weights: a 19,153-point lattice."""
    weights = bayescost.bc_weights(
        bayescost.CostMatrix(c=((0, 4, 4), (25, 0, 4), (45, 14, 0))),
        bayescost.PrevalenceVector(pr=("0.50", "0.28", "0.22")), "nearest-integer",
    )
    table = bayescost.ContingencyTable(rows=((26, 1, 5), (5, 9, 4), (1, 2, 11)))
    return bayescost.bc_problem(table, weights)


def test_paper_interval_needs_fewer_searches(monkeypatch):
    # The hybrid false-position/bisection solve asked for 26 tail values here.
    prob, counts = paper_interval_problem()
    asked = []
    real = bounds._tail_values
    monkeypatch.setattr(bounds, "_tail_values",
                        lambda problem, requests, cfg, draws: asked.extend(requests)
                        or real(problem, requests, cfg, draws))
    fiducial_interval(prob, counts, 0.05)
    assert len(asked) < 26


def test_lockstep_interval_holds_one_kernel_batch():
    # On the 19,153-point lattice the search reads CDFs by enumeration,
    # ``_batch_rows`` rows per batch.  The lockstep solves of one interval
    # may hold the batch being read, but no earlier one and none of the
    # exploration rows' reads.
    prob, counts = paper_interval_problem()
    count = y_lattice(prob).count
    assert pmf._enumeration(prob) is not None and count == 19_153
    mid = 0.5 * float(prob.L_min + prob.L_max)
    rows = optimizer._sample_rows(
        prob, mid, np.ones((pmf._batch_rows(prob), sum(prob.block_lengths)))
    )
    pmf.cdf_values(prob, rows, count // 2)  # warm the per-problem state
    optimizer._null_space_basis(prob)
    attainable_mask(prob)
    tracemalloc.start()
    try:
        pmf.cdf_values(prob, rows, count // 2)
        batch_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        fiducial_interval(prob, counts, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < batch_peak + 8 * count, (peak, batch_peak)


def test_enumerated_interval_builds_no_phase_matrices():
    prob, counts = paper_interval_problem()
    fiducial_interval(prob, counts, 0.05)
    assert pmf._enumeration in prob._memo and pmf._phase_matrices not in prob._memo


def test_interval_builds_no_attainable_mask():
    # An observed value is some outcome's, so only the solve shims that
    # take an arbitrary value check it against the mask.
    prob, counts = paper_interval_problem()
    fiducial_interval(prob, counts, 0.05)
    assert attainable_mask not in prob._memo
    _solve_lower(prob, y_lattice(prob).value(0), 0.05, CFG)
    assert attainable_mask in prob._memo


def test_paper_interval_reads_fewer_rows_than_its_searches_evaluate(monkeypatch):
    # Repeated draws and steps truncated to length 0 are not read, so the
    # interval reads fewer rows than the step-by-step searches evaluate.
    prob, counts = paper_interval_problem()
    read, requests = [], []
    real_read = pmf._enumerated_cdfs
    monkeypatch.setattr(pmf, "_enumerated_cdfs",
                        lambda plan, rows, idx: read.append(len(rows))
                        or real_read(plan, rows, idx))
    real_search = bounds._search_batch
    monkeypatch.setattr(bounds, "_search_batch",
                        lambda problem, reqs, cfg, draws: requests.extend(reqs)
                        or real_search(problem, reqs, cfg, draws))
    fiducial_interval(prob, counts, 0.05)
    rows = sum(read)
    evaluations = optimizer._tail_searches(prob, requests, CFG.optimizer, {})
    assert 0 < rows < sum(r.evaluations for r in evaluations)


class TestIntervalTable:
    def test_covers_all_attainable(self, scenario_c5):
        table = build_interval_table(scenario_c5, 0.05)
        mask = attainable_mask(scenario_c5)
        assert np.all(np.isfinite(table.lower[mask]))
        assert np.all(np.isfinite(table.upper[mask]))
        assert np.all(np.isnan(table.lower[~mask]))

    def test_pinned_extremes(self, scenario_c5):
        table = build_interval_table(scenario_c5, 0.05)
        assert table.entry(-1)[0] == -1.0
        assert table.entry(1)[1] == 1.0


class TestSolverConfig:
    def test_bad_tolerance(self):
        with pytest.raises(InputError):
            SolverConfig(tol_f=0.0)

    @pytest.mark.parametrize("tol_f", [math.inf, math.nan, -math.inf])
    def test_non_finite_tolerance(self, tol_f):
        with pytest.raises(InputError, match="positive and finite"):
            SolverConfig(tol_f=tol_f)

    def test_default_bracket_tolerance_scales_with_span(self, scenario_c5):
        assert bounds._tol_L(scenario_c5) == pytest.approx(2e-6)

    def test_custom_optimizer_passes_through(self, binomial10):
        cfg = SolverConfig(optimizer=OptimizerConfig(n_r=5, n_s=5, seed=9))
        res = fiducial_interval(binomial10, ObservedCounts(blocks=((2, 8),)), 0.05, cfg)
        lo, hi = cp_bounds(2, 10, 0.05)
        assert res.lower == pytest.approx(lo, abs=1e-3)
        assert res.upper == pytest.approx(hi, abs=1e-3)
