"""Exact coverage accounting, comparator intervals, scenario sweeps."""

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
    def test_empty_sweeps_rejected(self, scenario_c5, n_L, n_p):
        with pytest.raises(InputError):
            comparator_curve(scenario_c5, 0.05, n_L, n_p, 10, "goodman")
        table = build_interval_table(scenario_c5, 0.05)
        with pytest.raises(InputError):
            coverage_curve(scenario_c5, 0.05, n_L, n_p, table=table)

    def test_budget_rejects_zero_sizes(self):
        with pytest.raises(InputError):
            Budget(n_L=5, n_p=5, n_draws=0)

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


REFERENCE_PROBLEMS = {
    "C5": ("C", 5), "A3": ("A", 3), "B3": ("B", 3), "D3": ("D", 3), "binomial": None,
}


def reference_problem(name):
    if REFERENCE_PROBLEMS[name] is None:
        return build_problem([experiment(6, (1, 0))])
    return ScenarioSpec(*REFERENCE_PROBLEMS[name]).problem()


class TestTableCoverage:
    @pytest.mark.parametrize("store_bytes", [coverage.CELL_STORE_BYTES, 0])
    def test_equals_average_coverage(self, monkeypatch, store_bytes):
        # Stored and redrawn cells both score exactly as the per-cell sweep,
        # for solver tables at two levels and a table not built by the solver,
        # in whole kernel batches and one row per batch.
        monkeypatch.setattr(coverage, "CELL_STORE_BYTES", store_bytes)
        fast = SolverConfig(optimizer=OptimizerConfig(n_r=6, n_s=6))
        for name in REFERENCE_PROBLEMS:
            prob = reference_problem(name)
            tables = [build_interval_table(prob, a, fast) for a in (0.05, 0.2)]
            tables.append(window_table(prob, 0.3))
            for batch_entries in (pmf.BATCH_ENTRIES, 1):
                monkeypatch.setattr(pmf, "BATCH_ENTRIES", batch_entries)
                report = coverage._table_coverage(prob, 5, 4, 33)
                for table in tables:
                    got = report(table)
                    per_L, avg, minimum = ref.coverage_sweep(prob, table, 5, 4, 33)
                    assert got.coverage.tobytes() == per_L.tobytes(), name
                    assert got.avg_coverage == avg, name
                    assert got.conf_coeff_estimate == minimum, name
                    assert average_coverage(prob, table, 5, 4, 33) == avg, name

    @staticmethod
    def counted_draws(monkeypatch) -> list:
        """Record one entry per cell drawn from now on."""
        calls = []

        def sample_rows(*args):
            calls.append(1)
            return _sample_rows(*args)

        monkeypatch.setattr(coverage, "_sample_rows", sample_rows)
        return calls

    def test_cells_drawn_once_when_stored(self, scenario_c5, monkeypatch):
        calls = self.counted_draws(monkeypatch)
        report = coverage._table_coverage(scenario_c5, 3, 2, 34)
        table = window_table(scenario_c5, 0.3)
        assert report(table).coverage.tobytes() == report(table).coverage.tobytes()
        assert len(calls) == 3 * 2

    def test_cells_redrawn_per_table_above_the_store_limit(self, scenario_c5, monkeypatch):
        monkeypatch.setattr(coverage, "CELL_STORE_BYTES", 0)
        calls = self.counted_draws(monkeypatch)
        report = coverage._table_coverage(scenario_c5, 3, 2, 34)
        assert not calls
        report(window_table(scenario_c5, 0.3))
        report(window_table(scenario_c5, 0.3))
        assert len(calls) == 2 * 3 * 2


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
