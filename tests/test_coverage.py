"""Exact coverage accounting, comparator intervals, scenario sweeps."""

import tracemalloc

import numpy as np
import pytest
from scipy.stats import beta, binom, chi2

from lincom_ci import (
    InputError,
    ObservedCounts,
    OptimizerConfig,
    SolverConfig,
    build_problem,
    coverage_at_p,
    coverage_curve,
    experiment,
    gold_interval,
    goodman_interval,
    mc_coverage_large_sample,
    run_scenario,
    simplex_point,
    y_lattice,
)
from lincom_ci import coverage, pmf
from lincom_ci.bounds import IntervalTable, build_interval_table
from lincom_ci.coverage import Budget, ScenarioSpec, average_coverage, comparator_curve
from lincom_ci.model import enumerate_outcomes, estimate_L
from lincom_ci.optimizer import _sample_rows

import sequential_reference as ref
from conftest import diagnostic_problem


def cp_table(problem, n: int, alpha: float) -> IntervalTable:
    """Clopper-Pearson interval table for a single binomial experiment."""
    lat = y_lattice(problem)
    lower = np.empty(lat.count)
    upper = np.empty(lat.count)
    for x in range(n + 1):
        lower[x] = 0.0 if x == 0 else beta.ppf(alpha / 2, x, n - x + 1)
        upper[x] = 1.0 if x == n else beta.ppf(1 - alpha / 2, x + 1, n - x)
    return IntervalTable(
        problem=problem,
        alpha=alpha,
        lower=lower,
        upper=upper,
        present=np.ones(lat.count, dtype=bool),
    )


class TestCoverageAtP:
    def test_degenerate_point_mass_covered(self):
        prob = build_problem([experiment(4, (2, 2))])
        table = build_interval_table(prob, 0.05)
        p = simplex_point(prob, [(0.3, 0.7)])
        assert coverage_at_p(prob, p, table) == pytest.approx(1.0, abs=1e-12)

    def test_binomial_cp_oracle_value(self, binomial10):
        # Exhaustive arithmetic: x in {2..8} cover 0.5, so 1 - 2*P(X<=1).
        table = cp_table(binomial10, 10, 0.05)
        p = simplex_point(binomial10, [(0.5, 0.5)])
        got = coverage_at_p(binomial10, p, table)
        assert got == pytest.approx(1 - 2 * (11 / 1024), abs=1e-12)
        assert got == pytest.approx(0.9785, abs=1e-4)

    def test_scenario_c_center_exceeds_nominal(self, scenario_c5):
        table = build_interval_table(scenario_c5, 0.05)
        p = simplex_point(scenario_c5, [(0.5, 0.5), (0.5, 0.5)])
        assert coverage_at_p(scenario_c5, p, table) >= 0.95

    def test_equals_direct_enumeration(self, scenario_c5):
        table = build_interval_table(scenario_c5, 0.05)
        rng = np.random.default_rng(21)
        p = simplex_point(
            scenario_c5, [rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2))]
        )
        L = p.dot_weights(scenario_c5)
        direct = 0.0
        from math import comb, prod

        for x in enumerate_outcomes(scenario_c5):
            lo, hi = table.entry(estimate_L(scenario_c5, x))
            if lo <= L <= hi:
                mass = 1.0
                for block, pb, e in zip(x.blocks, p.blocks, scenario_c5.experiments):
                    mass *= comb(e.n, block[0]) * prod(
                        float(q) ** c for q, c in zip(pb, block)
                    )
                direct += mass
        assert coverage_at_p(scenario_c5, p, table) == pytest.approx(direct, abs=1e-10)

    def test_missing_entry_with_mass_errors(self, binomial10):
        table = cp_table(binomial10, 10, 0.05)
        holed = IntervalTable(
            problem=binomial10,
            alpha=0.05,
            lower=table.lower,
            upper=table.upper,
            present=np.array([True] * 5 + [False] + [True] * 5),
        )
        p = simplex_point(binomial10, [(0.5, 0.5)])
        with pytest.raises(InputError, match="table"):
            coverage_at_p(binomial10, p, holed)


class TestLargeSampleIntervals:
    def test_zero_variance_degenerate(self):
        prob = build_problem([experiment(6, (5, 5))])
        got = gold_interval(prob, ObservedCounts(blocks=((2, 4),)), 0.05)
        assert got == (5.0, 5.0)

    def test_binomial_hand_formula(self, binomial10):
        counts = ObservedCounts(blocks=((5, 5),))
        lo, hi = gold_interval(binomial10, counts, 0.05)
        half = np.sqrt(chi2.ppf(0.95, 1) * 0.25 / 10)
        assert lo == pytest.approx(0.5 - half, abs=1e-12)
        assert hi == pytest.approx(0.5 + half, abs=1e-12)

    def test_scenario_c_spreadsheet_values(self, scenario_c5):
        counts = ObservedCounts(blocks=((3, 2), (1, 4)))
        # independent arithmetic: se^2 = (.6*.4)/5 + (.2*.8)/5 = 0.08
        se = np.sqrt(0.08)
        gold_half = np.sqrt(chi2.ppf(0.95, 2)) * se
        good_half = np.sqrt(chi2.ppf(0.95, 1)) * se
        lo_g, hi_g = gold_interval(scenario_c5, counts, 0.05)
        assert lo_g == pytest.approx(0.4 - gold_half, abs=1e-12)
        assert hi_g == pytest.approx(min(1.0, 0.4 + gold_half), abs=1e-12)
        lo_m, hi_m = goodman_interval(scenario_c5, counts, 0.05)
        assert lo_m == pytest.approx(0.4 - good_half, abs=1e-12)
        assert hi_m == pytest.approx(0.4 + good_half, abs=1e-12)

    def test_symmetric_before_truncation(self, scenario_c5):
        rng = np.random.default_rng(22)
        for _ in range(20):
            a, b = rng.multinomial(5, (0.5, 0.5)), rng.multinomial(5, (0.4, 0.6))
            counts = ObservedCounts(blocks=(tuple(a), tuple(b)))
            y_hat = float(estimate_L(scenario_c5, counts))
            lo, hi = goodman_interval(scenario_c5, counts, 0.05)
            if lo > -1.0 and hi < 1.0:  # not truncated
                assert hi - y_hat == pytest.approx(y_hat - lo, abs=1e-12)


class TestChi2Critical:
    @pytest.mark.parametrize("df", range(1, 13))
    def test_equals_scipy_chi2_quantile_bit_for_bit(self, df):
        for alpha in (0.05, 0.01, 0.1, 0.5, 1e-6, 1e-17, 1 - 1e-16):
            assert coverage._chi2_critical(alpha, df).hex() == float(chi2.ppf(1 - alpha, df)).hex()

    def test_level_rounding_to_one_is_infinite(self):
        assert coverage._chi2_critical(1e-17, 3) == np.inf


class TestAlphaValidation:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
    def test_comparators_reject_levels_outside_unit_interval(self, alpha):
        prob = ScenarioSpec(id="A", n=3).problem()
        counts = ObservedCounts(blocks=((1, 1, 1), (0, 2, 1), (2, 0, 1)))
        p = simplex_point(prob, [(0.2, 0.3, 0.5)] * 3)
        with pytest.raises(InputError, match="alpha"):
            gold_interval(prob, counts, alpha)
        with pytest.raises(InputError, match="alpha"):
            goodman_interval(prob, counts, alpha)
        with pytest.raises(InputError, match="alpha"):
            mc_coverage_large_sample(prob, p, alpha, 20, "gold")
        with pytest.raises(InputError, match="alpha"):
            comparator_curve(prob, alpha, 2, 2, 20, "gold")


class TestMcCoverage:
    def test_degenerate_equal_weights_always_covered(self):
        prob = build_problem([experiment(6, (5, 5))])
        p = simplex_point(prob, [(0.2, 0.8)])
        got = mc_coverage_large_sample(prob, p, 0.05, 50, "gold", seed=5)
        assert got == 1.0

    def test_binomial_gold_undercovers(self, binomial10):
        # Exhaustive coverage of the large-sample interval at p = 0.5.
        half = np.sqrt(chi2.ppf(0.95, 1) / 10)
        exhaustive = 0.0
        for x in range(11):
            phat = x / 10
            h = half * np.sqrt(phat * (1 - phat))
            if phat - h <= 0.5 <= phat + h:
                exhaustive += binom.pmf(x, 10, 0.5)
        assert exhaustive < 0.95
        p = simplex_point(binomial10, [(0.5, 0.5)])
        got = mc_coverage_large_sample(binomial10, p, 0.05, 500, "gold", seed=6)
        assert got == pytest.approx(exhaustive, abs=0.035)

    def test_point_of_another_layout_rejected(self):
        # Same total length, blocks swapped: each block must match its experiment.
        prob = build_problem([experiment(4, (1, 0)), experiment(4, (0, 1, 2))])
        p = simplex_point(build_problem([experiment(4, (0, 1, 2)), experiment(4, (1, 0))]),
                          [(0.2, 0.3, 0.5), (0.4, 0.6)])
        with pytest.raises(InputError, match="block"):
            mc_coverage_large_sample(prob, p, 0.05, 20, "gold")

    def test_scenario_c_goodman_dips_below_nominal(self, scenario_c5):
        p = simplex_point(scenario_c5, [(0.97, 0.03), (0.5, 0.5)])
        got = mc_coverage_large_sample(scenario_c5, p, 0.05, 500, "goodman", seed=7)
        assert got < 0.95


REFERENCE_PROBLEMS = {
    "C5": ("C", 5), "A3": ("A", 3), "B3": ("B", 3), "D3": ("D", 3), "binomial": None,
}


def reference_problem(name):
    if REFERENCE_PROBLEMS[name] is None:
        return build_problem([experiment(6, (1, 0))])
    return ScenarioSpec(*REFERENCE_PROBLEMS[name]).problem()


SEEDS = [0, 7, 2**32 - 1, 2**32, 2**64 - 1, 2**100 + 3]

# (scenario, block probabilities, alpha, draws, method, seed) and the coverage,
# as a count of covered draws, that the per-cell comparator gave before the
# grid streams; a lone vector's draws must not move.
MC_PINS = [
    (("C", 5), [(0.97, 0.03), (0.5, 0.5)], 0.05, 500, "goodman", 7, 474),
    (("C", 5), [(0.3, 0.7), (0.6, 0.4)], 0.1, 200, "gold", 2**64 - 1, 179),
    (("A", 3), [(0.2, 0.3, 0.5), (0.1, 0.6, 0.3), (0.5, 0.25, 0.25)], 0.05, 300, "gold", 0, 283),
    (("A", 3), [(0.2, 0.3, 0.5), (0.1, 0.6, 0.3), (0.5, 0.25, 0.25)], 0.2, 300, "goodman",
     2**100 + 3, 191),
    (("B", 4), [(0.1, 0.2, 0.3, 0.4), (0.7, 0.1, 0.1, 0.1)], 0.05, 250, "gold", 11, 233),
    (("D", 2), [(0.6, 0.2, 0.2), (0.25, 0.25, 0.25, 0.25)], 0.1, 7, "goodman", 2**32, 3),
]


class TestCellStreams:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("salt", [0, 1])
    def test_bulk_streams_equal_numpy_seeding(self, seed, salt):
        # A grid point's stream, drawn in bulk, is numpy's own seeding of
        # (seed, l_idx, salt), for grid indices of one and two words.
        for l_idx in (0, 3, 2**32 + 1):
            got = coverage._grid_rng(seed, l_idx, salt)
            want = np.random.default_rng(np.random.SeedSequence((seed, l_idx, salt)))
            assert got.bit_generator.state == want.bit_generator.state
            assert got.exponential(size=(3, 4)).tobytes() == want.exponential(size=12).tobytes()

    @pytest.mark.parametrize("seed", [7, 2**100 + 3])
    @pytest.mark.parametrize("n_L,n_p", [(1, 1), (1, 5), (4, 1), (3, 4)])
    def test_cell_points_equal_per_cell_draws(self, scenario_c5, seed, n_L, n_p):
        # One (n_p, M) draw per grid point equals one sampler call per cell
        # from the grid point's shared stream.
        grid = coverage._L_grid(scenario_c5, n_L, n_p)
        got = list(coverage._cell_points(scenario_c5, grid, n_p, seed))
        assert len(got) == n_L
        for l_idx, (L, points) in enumerate(zip(grid, got)):
            want = [p.concat() for p in ref.cell_points(scenario_c5, float(L), n_p, seed, l_idx)]
            assert points.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("name", ["C5", "A3"])
    def test_first_cells_do_not_depend_on_n_p(self, name):
        prob = reference_problem(name)
        grid = coverage._L_grid(prob, 3, 1)
        full = list(coverage._cell_points(prob, grid, 9, 38))
        for n_p in (1, 4, 9):
            for points, whole in zip(coverage._cell_points(prob, grid, n_p, 38), full):
                assert points.tobytes() == whole[:n_p].tobytes()

    @pytest.mark.parametrize("name", list(REFERENCE_PROBLEMS))
    @pytest.mark.parametrize("method", ["gold", "goodman"])
    def test_comparator_equals_per_draw_reference(self, name, method):
        prob = reference_problem(name)
        for seed in (3, 2**64 - 1):
            for n_L, n_p, n_draws in ((4, 3, 40), (1, 5, 7), (3, 1, 25)):
                got = comparator_curve(prob, 0.1, n_L, n_p, n_draws, method, seed=seed)
                per_L, avg, minimum = ref.comparator_sweep(
                    prob, 0.1, n_L, n_p, n_draws, method, seed)
                assert got.coverage.tobytes() == per_L.tobytes(), name
                assert got.avg_coverage == avg, name
                assert got.conf_coeff_estimate == minimum, name

    @pytest.mark.parametrize("case", MC_PINS, ids=[str(i) for i in range(len(MC_PINS))])
    def test_mc_coverage_pinned(self, case):
        (scenario_id, n), blocks, alpha, n_draws, method, seed, covered = case
        prob = ScenarioSpec(scenario_id, n).problem()
        got = mc_coverage_large_sample(prob, simplex_point(prob, blocks), alpha, n_draws,
                                       method, seed=seed)
        assert got == covered / n_draws

    def test_numpy_integer_seed_accepted(self, scenario_c5):
        table = build_interval_table(scenario_c5, 0.05)
        got = coverage_curve(scenario_c5, 0.05, 3, 2, seed=np.uint64(2**64 - 1), table=table)
        want = coverage_curve(scenario_c5, 0.05, 3, 2, seed=2**64 - 1, table=table)
        assert got.coverage.tobytes() == want.coverage.tobytes()


class TestSeedValidation:
    @pytest.mark.parametrize("seed", [-1, 2.5, True, "3", None])
    def test_bad_sweep_seeds_rejected_before_any_table(self, scenario_c5, seed, monkeypatch):
        table = window_table(scenario_c5, 0.3)
        p = simplex_point(scenario_c5, [(0.5, 0.5), (0.5, 0.5)])

        def no_table(*args, **kwargs):
            raise AssertionError("a table was built before the seed was checked")

        monkeypatch.setattr(coverage, "build_interval_table", no_table)
        calls = [
            lambda: coverage_curve(scenario_c5, 0.05, 3, 2, seed=seed),
            lambda: coverage_curve(scenario_c5, 0.1, 3, 2, seed=seed, table=table),
            lambda: average_coverage(scenario_c5, table, 3, 2, seed),
            lambda: comparator_curve(scenario_c5, 0.05, 3, 2, 10, "goodman", seed=seed),
            lambda: run_scenario(ScenarioSpec(id="C", n=5), 0.05,
                                 Budget(n_L=3, n_p=2, n_draws=10), seed=seed),
            lambda: mc_coverage_large_sample(scenario_c5, p, 0.05, 10, "goodman", seed=seed),
        ]
        for call in calls:
            with pytest.raises(InputError, match="seed must be a non-negative integer"):
                call()

    def test_seeds_of_more_than_64_bits_accepted(self, scenario_c5):
        p = simplex_point(scenario_c5, [(0.5, 0.5), (0.5, 0.5)])
        report = comparator_curve(scenario_c5, 0.05, 3, 2, 10, "goodman", seed=2**100 + 3)
        assert np.all((report.coverage >= 0) & (report.coverage <= 1))
        assert 0 <= mc_coverage_large_sample(scenario_c5, p, 0.05, 10, "goodman", seed=2**64) <= 1


class TestCurves:
    def test_min_not_above_average(self, scenario_c5):
        rep = coverage_curve(scenario_c5, 0.05, 6, 8, SolverConfig(), seed=30)
        assert rep.conf_coeff_estimate <= rep.coverage.min() + 1e-12
        assert rep.conf_coeff_estimate <= rep.avg_coverage

    def test_exactness_on_small_sweep(self, scenario_c5):
        rep = coverage_curve(scenario_c5, 0.05, 6, 8, SolverConfig(), seed=30)
        assert rep.conf_coeff_estimate >= 0.949

    def test_average_coverage_helper_agrees(self, scenario_c5):
        table = build_interval_table(scenario_c5, 0.05)
        rep = coverage_curve(scenario_c5, 0.05, 5, 4, SolverConfig(), seed=31, table=table)
        avg = average_coverage(scenario_c5, table, 5, 4, 31)
        assert avg == pytest.approx(rep.avg_coverage, abs=1e-12)

    def test_average_coverage_is_the_curve_average(self, scenario_c5):
        table = build_interval_table(scenario_c5, 0.1)
        rep = coverage_curve(scenario_c5, 0.1, 4, 3, seed=35, table=table)
        assert average_coverage(scenario_c5, table, 4, 3, 35) == rep.avg_coverage
        assert rep.method == "exact"

    def test_table_at_another_level_rejected(self, scenario_c5):
        table = build_interval_table(scenario_c5, 0.1)
        with pytest.raises(InputError, match="alpha"):
            coverage_curve(scenario_c5, 0.05, 4, 3, seed=35, table=table)

    def test_comparator_rejects_zero_draws(self, scenario_c5):
        with pytest.raises(InputError):
            comparator_curve(scenario_c5, 0.05, 3, 2, 0, "goodman")

    @pytest.mark.parametrize("n_L,n_p", [(0, 2), (3, 0)])
    def test_empty_sweeps_rejected(self, scenario_c5, n_L, n_p, monkeypatch):
        with pytest.raises(InputError):
            comparator_curve(scenario_c5, 0.05, n_L, n_p, 10, "goodman")
        table = build_interval_table(scenario_c5, 0.05)
        with pytest.raises(InputError):
            coverage_curve(scenario_c5, 0.05, n_L, n_p, table=table)

        def no_table(*args, **kwargs):
            raise AssertionError("a table was built before the sizes were checked")

        monkeypatch.setattr(coverage, "build_interval_table", no_table)
        with pytest.raises(InputError, match="must be >= 1"):
            coverage_curve(scenario_c5, 0.05, n_L, n_p)

    def test_budget_rejects_zero_sizes(self):
        with pytest.raises(InputError):
            Budget(n_L=5, n_p=5, n_draws=0)

    @pytest.mark.parametrize("size", [2.5, True, "3", None])
    def test_non_integer_sizes_rejected(self, scenario_c5, size):
        table = build_interval_table(scenario_c5, 0.05)
        with pytest.raises(InputError, match="must be an integer"):
            Budget(n_L=size, n_p=5, n_draws=5)
        with pytest.raises(InputError, match="n_draws must be an integer"):
            Budget(n_L=5, n_p=5, n_draws=size)
        with pytest.raises(InputError, match="n_L must be an integer"):
            average_coverage(scenario_c5, table, size, 4, 31)
        with pytest.raises(InputError, match="n_p must be an integer"):
            coverage_curve(scenario_c5, 0.05, 4, size, table=table)
        with pytest.raises(InputError, match="n_draws must be an integer"):
            comparator_curve(scenario_c5, 0.05, 3, 2, size, "goodman")

    def test_numpy_integer_sizes_accepted(self, scenario_c5):
        assert Budget(n_L=np.int64(5), n_p=np.int32(5), n_draws=np.uint8(5)).n_L == 5

    def test_comparator_same_draws(self, scenario_c5):
        exact = coverage_curve(scenario_c5, 0.05, 4, 3, SolverConfig(), seed=32)
        comp = comparator_curve(scenario_c5, 0.05, 4, 3, 100, "goodman", seed=32)
        assert np.array_equal(exact.L_grid, comp.L_grid)
        assert comp.method == "goodman"


def window_table(problem, half: float) -> IntervalTable:
    """Every observed value's interval is the value plus or minus ``half``."""
    lat = y_lattice(problem)
    values = np.array([float(lat.value(i)) for i in range(lat.count)])
    return IntervalTable(
        problem=problem,
        alpha=0.1,
        lower=values - half,
        upper=values + half,
        present=np.ones(lat.count, dtype=bool),
    )


class TestTableCoverage:
    @pytest.mark.parametrize("store_bytes", [coverage.CELL_STORE_BYTES, 0])
    def test_equals_average_coverage(self, monkeypatch, store_bytes):
        # Stored and redrawn cells both score exactly as the per-cell sweep,
        # for solver tables at two levels and a table not built by the solver,
        # in whole kernel batches and one row per batch, at a seed of one
        # word and one of two.
        monkeypatch.setattr(coverage, "CELL_STORE_BYTES", store_bytes)
        fast = SolverConfig(optimizer=OptimizerConfig(n_r=6, n_s=6))
        for name in REFERENCE_PROBLEMS:
            prob = reference_problem(name)
            tables = [build_interval_table(prob, a, fast) for a in (0.05, 0.2)]
            tables.append(window_table(prob, 0.3))
            for batch_entries, seed in ((pmf.BATCH_ENTRIES, 33), (1, 33), (1, 2**32 + 33)):
                monkeypatch.setattr(pmf, "BATCH_ENTRIES", batch_entries)
                report = coverage._table_coverage(prob, 5, 4, seed)
                for table in tables:
                    got = report(table)
                    per_L, avg, minimum = ref.coverage_sweep(prob, table, 5, 4, seed)
                    assert got.coverage.tobytes() == per_L.tobytes(), name
                    assert got.avg_coverage == avg, name
                    assert got.conf_coeff_estimate == minimum, name
                    assert average_coverage(prob, table, 5, 4, seed) == avg, name

    @pytest.mark.parametrize("name", list(REFERENCE_PROBLEMS))
    def test_scores_equal_each_cell_summed_alone(self, name):
        # 400 cells in one call, in grid order and shuffled: each run of rows
        # that share a covered mask is summed as one block, each row as it
        # sums alone.
        prob = reference_problem(name)
        grid = coverage._L_grid(prob, 20, 20)
        points = np.concatenate(list(coverage._cell_points(prob, grid, 20, 36)))
        probs = pmf._pmf_rows(prob, [points[:, s] for s in prob.block_slices()])
        targets = np.matmul(points[:, None, :], prob.w_float())[:, 0]
        fast = SolverConfig(optimizer=OptimizerConfig(n_r=6, n_s=6))
        shuffled = np.random.default_rng(37).permutation(len(probs))
        for table in (build_interval_table(prob, 0.05, fast), window_table(prob, 0.3)):
            want = [ref.covered_mass(row, L, table).hex() for row, L in zip(probs, targets)]
            got = coverage._scores(probs, targets, table)
            assert [v.hex() for v in got] == want, name
            got = coverage._scores(probs[shuffled], targets[shuffled], table)
            assert [v.hex() for v in got] == [want[i] for i in shuffled], name

    @staticmethod
    def counted_draws(monkeypatch) -> list:
        """Record the number of cells of each draw from now on."""
        rows = []

        def sample_rows(problem, L, q):
            rows.append(len(q))
            return _sample_rows(problem, L, q)

        monkeypatch.setattr(coverage, "_sample_rows", sample_rows)
        return rows

    def test_cells_drawn_once_when_stored(self, scenario_c5, monkeypatch):
        rows = self.counted_draws(monkeypatch)
        report = coverage._table_coverage(scenario_c5, 3, 2, 34)
        table = window_table(scenario_c5, 0.3)
        assert report(table).coverage.tobytes() == report(table).coverage.tobytes()
        assert rows == [2] * 3  # one draw of n_p cells per grid point

    def test_stored_cells_read_in_full_kernel_batches(self, scenario_c5, monkeypatch):
        # The 2,500 cells of a grid of 50 go through the kernel together, not
        # one grid point at a time: ceil(2,500 / batch rows) calls, not 50.
        calls = []
        real = pmf._pmf_rows
        monkeypatch.setattr(pmf, "_pmf_rows",
                            lambda problem, blocks: calls.append(1) or real(problem, blocks))
        coverage._table_coverage(scenario_c5, 50, 50, 7)
        assert len(calls) == -(-2500 // pmf._fft_batch_rows(scenario_c5)) == 2

    def test_cells_redrawn_per_table_above_the_store_limit(self, scenario_c5, monkeypatch):
        monkeypatch.setattr(coverage, "CELL_STORE_BYTES", 0)
        rows = self.counted_draws(monkeypatch)
        report = coverage._table_coverage(scenario_c5, 3, 2, 34)
        assert not rows
        report(window_table(scenario_c5, 0.3))
        report(window_table(scenario_c5, 0.3))
        assert sum(rows) == 2 * 3 * 2


def traced_peak(run):
    """``run()`` and the peak bytes ``tracemalloc`` saw allocated while it ran."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSingleTableStreams:
    def test_peak_memory_below_the_stored_rows(self):
        # 25 cells on the 19,153-point lattice: 3.8 MB of pmf rows if stored,
        # while the stream holds one kernel batch (one row here) at a time.
        prob = diagnostic_problem()
        table = window_table(prob, 3.0)
        coverage_curve(prob, 0.1, 1, 1, table=table)  # per-problem state built untraced
        stored_bytes = 5 * 5 * y_lattice(prob).count * 8
        assert stored_bytes <= coverage.CELL_STORE_BYTES
        report, peak = traced_peak(lambda: coverage_curve(prob, 0.1, 5, 5, seed=3, table=table))
        assert peak < stored_bytes / 2
        assert report.avg_coverage == coverage._table_coverage(prob, 5, 5, 3)(table).avg_coverage

    def test_peak_memory_below_one_grid_point_of_rows(self):
        # One grid point of 40 cells: 6.1 MB of pmf rows, which a grid point's
        # kernel batches would hold if they were listed rather than streamed.
        prob = diagnostic_problem()
        table = window_table(prob, 3.0)
        coverage_curve(prob, 0.1, 1, 1, table=table)  # per-problem state built untraced
        point_bytes = 40 * y_lattice(prob).count * 8
        _, peak = traced_peak(lambda: coverage_curve(prob, 0.1, 1, 40, seed=3, table=table))
        assert peak < point_bytes / 2


class TestBoundBelowItsFloat:
    def test_grid_starts_at_the_float_of_the_bound(self):
        # float(1/3) lies below 1/3; the first grid point sits there.
        prob = build_problem([experiment(3, ("1/3", 1))])
        report = coverage_curve(prob, 0.05, 3, 4, seed=5)
        assert report.L_grid[0] == float(prob.L_min) < prob.L_min
        assert report.coverage[0] == 1.0  # the statistic sits at its lower end
        assert report.conf_coeff_estimate >= 0.95


class TestTableProblem:
    def test_table_of_another_problem_rejected(self, scenario_c5, binomial10):
        # Both lattices have 11 points, so the arrays line up.
        table = window_table(scenario_c5, 0.3)
        p = simplex_point(binomial10, [(0.5, 0.5)])
        with pytest.raises(InputError, match="another problem"):
            average_coverage(binomial10, table, 3, 2, 1)
        with pytest.raises(InputError, match="another problem"):
            coverage_curve(binomial10, table.alpha, 3, 2, table=table)
        with pytest.raises(InputError, match="another problem"):
            coverage_at_p(binomial10, p, table)

    def test_table_of_a_larger_lattice_rejected(self, scenario_c5):
        table = window_table(scenario_c5, 0.3)
        with pytest.raises(InputError, match="another problem"):
            average_coverage(ScenarioSpec(id="A", n=3).problem(), table, 3, 2, 1)

    def test_equal_problem_accepted(self, scenario_c5):
        table = window_table(scenario_c5, 0.3)
        twin = ScenarioSpec(id="C", n=5).problem()
        assert average_coverage(twin, table, 3, 2, 1) == average_coverage(
            scenario_c5, table, 3, 2, 1
        )

    @pytest.mark.parametrize("field", ["lower", "upper", "present"])
    def test_arrays_must_match_the_lattice(self, scenario_c5, field):
        table = window_table(scenario_c5, 0.3)
        arrays = {"lower": table.lower, "upper": table.upper, "present": table.present}
        arrays[field] = arrays[field][:3]
        with pytest.raises(InputError, match=field):
            IntervalTable(problem=scenario_c5, alpha=0.1, **arrays)


class TestScenarios:
    def test_published_weight_layouts(self):
        assert ScenarioSpec(id="A", n=5).weights == ((0, 1, 1), (2, 0, 3), (5, 3, 0))
        assert ScenarioSpec(id="B", n=5).weights == ((1, 2, 3, 0), (1, 1, 2, 0))
        assert ScenarioSpec(id="C", n=5).weights == ((1, 0), (-1, 0))
        assert ScenarioSpec(id="D", n=10).weights == ((4, -2, -2), (4, -1, -1, -2))

    @pytest.mark.parametrize("n", [True, 0, 2.5, "3"])
    def test_sample_size_must_be_a_positive_integer(self, n):
        with pytest.raises(InputError, match="scenario sample size must be a positive integer"):
            ScenarioSpec(id="C", n=n)

    def test_comparator_assignment(self):
        assert ScenarioSpec(id="A", n=5).comparator == "gold"
        assert ScenarioSpec(id="B", n=5).comparator == "gold"
        assert ScenarioSpec(id="C", n=5).comparator == "goodman"
        assert ScenarioSpec(id="D", n=5).comparator is None

    def test_run_scenario_c_smoke(self):
        spec = ScenarioSpec(id="C", n=5)
        exact, comp, runtimes = run_scenario(
            spec, 0.05, Budget(n_L=5, n_p=5, n_draws=50), SolverConfig(), seed=33
        )
        assert comp is not None
        assert exact.L_grid.size == 5
        assert exact.conf_coeff_estimate >= 0.949
        assert comp.conf_coeff_estimate <= exact.conf_coeff_estimate
        assert runtimes["exact_s"] > 0

    def test_run_scenario_d_has_no_comparator(self):
        spec = ScenarioSpec(id="D", n=2)
        exact, comp, _ = run_scenario(
            spec, 0.05, Budget(n_L=3, n_p=3, n_draws=10), SolverConfig(), seed=34
        )
        assert comp is None
        assert exact.coverage.size == 3

    def test_bad_scenario_id(self):
        with pytest.raises(InputError):
            ScenarioSpec(id="E", n=5)
