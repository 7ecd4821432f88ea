"""Constrained sampling, null-space perturbation, and tail-functional search."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom

from lincom_ci import (
    InputError,
    OptimizerConfig,
    build_problem,
    cdf_at,
    experiment,
    inf_cdf,
    perturb,
    pmf_fft,
    sample_constrained,
    simplex_point,
    sup_cdf,
)
from lincom_ci.optimizer import constraint_residual

from conftest import random_small_problem


def scenario_c_feasible_grid(problem, L, n_points=200):
    """All feasible points of the two-block contrast on a uniform 1-D grid."""
    lo, hi = max(0.0, L), min(1.0, 1.0 + L)
    for p11 in np.linspace(lo, hi, n_points):
        p21 = p11 - L
        yield simplex_point(problem, [(p11, 1 - p11), (p21, 1 - p21)])


class TestSampleConstrained:
    def test_unique_feasible_point(self, binomial10):
        rng = np.random.default_rng(0)
        p = sample_constrained(binomial10, 0.3, rng)
        assert p.blocks[0] == pytest.approx([0.3, 0.7], abs=1e-12)

    def test_boundary_vertex(self, scenario_c5):
        rng = np.random.default_rng(1)
        p = sample_constrained(scenario_c5, 1.0, rng)
        assert p.blocks[0] == pytest.approx([1.0, 0.0], abs=1e-12)
        assert p.blocks[1] == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_residuals_over_many_draws(self, scenario_c5):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            p = sample_constrained(scenario_c5, 0.0, rng)
            assert constraint_residual(scenario_c5, p, 0.0) <= 1e-9

    def test_out_of_range_rejected(self, scenario_c5):
        with pytest.raises(InputError):
            sample_constrained(scenario_c5, 1.5, np.random.default_rng(0))

    # float(1/3) and float(2/3) lie below their fractions, float(1/10) and
    # float(9/10) above, so each bound is probed on both rounding sides.
    @pytest.mark.parametrize("weights", [("1/3", "9/10"), ("1/10", "2/3")])
    def test_range_check_is_exact_at_float_bounds(self, weights):
        prob = build_problem([experiment(2, weights)])
        for bound in (prob.L_min, prob.L_max):
            near = float(bound)
            for L in (np.nextafter(near, -np.inf), near, np.nextafter(near, np.inf)):
                L = float(L)
                if prob.L_min <= Fraction(L) <= prob.L_max:
                    p = sample_constrained(prob, L, np.random.default_rng(0))
                    assert constraint_residual(prob, p, L) <= 1e-9
                else:
                    with pytest.raises(InputError, match="outside"):
                        sample_constrained(prob, L, np.random.default_rng(0))

    def test_range_check_is_exact_for_fractions(self):
        # Strictly between float(1/3) and 1/3: a float compare would accept it.
        prob = build_problem([experiment(2, ("1/3", "2/3"))])
        L = (Fraction(float(prob.L_min)) + prob.L_min) / 2
        assert float(prob.L_min) < L < prob.L_min
        with pytest.raises(InputError, match="outside"):
            sample_constrained(prob, L, np.random.default_rng(0))

    def test_blocks_are_simplex(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            prob = random_small_problem(rng)
            span = float(prob.L_max - prob.L_min)
            L = float(prob.L_min) + span * rng.uniform()
            p = sample_constrained(prob, L, rng)
            for b in p.blocks:
                assert b.min() >= 0
                assert b.sum() == pytest.approx(1.0, abs=1e-9)
            assert constraint_residual(prob, p, L) <= 1e-9 * max(1.0, abs(L))


class TestPerturb:
    def test_fully_constrained_returns_unchanged(self, binomial10):
        rng = np.random.default_rng(4)
        p = simplex_point(binomial10, [(0.3, 0.7)])
        q, moved = perturb(binomial10, p, 0.2, rng)
        assert not moved
        assert q is p

    def test_preserves_block_sums_and_constraint(self, scenario_c5):
        rng = np.random.default_rng(5)
        p = simplex_point(scenario_c5, [(0.5, 0.5), (0.5, 0.5)])
        L = p.dot_weights(scenario_c5)
        q, moved = perturb(scenario_c5, p, 0.1, rng)
        assert moved
        for b in q.blocks:
            assert b.sum() == pytest.approx(1.0, abs=1e-12)
        assert q.dot_weights(scenario_c5) == pytest.approx(L, abs=1e-12)

    def test_zero_scale_is_identity(self, scenario_c5):
        rng = np.random.default_rng(6)
        p = simplex_point(scenario_c5, [(0.4, 0.6), (0.4, 0.6)])
        q, moved = perturb(scenario_c5, p, 0.0, rng)
        assert not moved

    def test_stays_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            prob = random_small_problem(rng)
            span = float(prob.L_max - prob.L_min)
            L = float(prob.L_min) + span * rng.uniform()
            p = sample_constrained(prob, L, rng)
            q, _ = perturb(prob, p, 0.5, rng)
            assert min(b.min() for b in q.blocks) >= 0


class TestTailSearch:
    def test_sup_unique_feasible_is_exact_binomial(self, binomial10):
        res = sup_cdf(binomial10, 0.5, 0.3, OptimizerConfig(seed=10))
        assert res.value == pytest.approx(binom.cdf(5, 10, 0.3), abs=1e-12)

    def test_inf_unique_feasible_is_exact_binomial(self, binomial10):
        res = inf_cdf(binomial10, 0.4, 0.3, OptimizerConfig(seed=10))
        assert res.value == pytest.approx(binom.cdf(4, 10, 0.3), abs=1e-12)

    def test_top_of_lattice_is_one(self, scenario_c5):
        res = sup_cdf(scenario_c5, 1, 0.2, OptimizerConfig(seed=11))
        assert res.value == 1.0

    def test_sup_dominates_feasibility_grid(self, scenario_c5):
        res = sup_cdf(scenario_c5, 0.2, 0.2, OptimizerConfig(seed=12))
        grid_best = max(
            cdf_at(pmf_fft(scenario_c5, p), 0.2)
            for p in scenario_c_feasible_grid(scenario_c5, 0.2)
        )
        assert res.value >= grid_best - 1e-9

    def test_inf_dominated_by_feasibility_grid(self, scenario_c5):
        res = inf_cdf(scenario_c5, -0.2, 0.0, OptimizerConfig(seed=13))
        grid_best = min(
            cdf_at(pmf_fft(scenario_c5, p), -0.2)
            for p in scenario_c_feasible_grid(scenario_c5, 0.0)
        )
        assert res.value <= grid_best + 1e-9

    def test_witness_is_feasible(self, scenario_c5):
        res = sup_cdf(scenario_c5, 0.2, 0.37, OptimizerConfig(seed=14))
        assert constraint_residual(scenario_c5, res.witness, 0.37) <= 1e-9
        for b in res.witness.blocks:
            assert b.min() >= 0
            assert b.sum() == pytest.approx(1.0, abs=1e-9)

    def test_determinism(self, scenario_c5):
        cfg = OptimizerConfig(seed=15)
        a = sup_cdf(scenario_c5, 0.2, 0.1, cfg)
        b = sup_cdf(scenario_c5, 0.2, 0.1, cfg)
        assert a.value == b.value
        assert all(
            np.array_equal(x, y) for x, y in zip(a.witness.blocks, b.witness.blocks)
        )
        assert a.evaluations == b.evaluations

    def test_monotone_improvement_over_initial_draws(self, scenario_c5):
        # The first n_r draws consume the stream exactly like sample_constrained.
        cfg = OptimizerConfig(seed=16)
        res = sup_cdf(scenario_c5, 0.2, 0.1, cfg)
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
        for _ in range(cfg.n_r):
            p = sample_constrained(scenario_c5, 0.1, rng)
            assert res.value >= cdf_at(pmf_fft(scenario_c5, p), 0.2) - 1e-15

    def test_evaluation_count(self, scenario_c5):
        cfg = OptimizerConfig(n_r=7, n_s=5, seed=17)
        res = sup_cdf(scenario_c5, 0.2, 0.1, cfg)
        assert 7 <= res.evaluations <= 12


class TestConfigValidation:
    def test_bad_nr(self):
        with pytest.raises(InputError):
            OptimizerConfig(n_r=0)

    def test_bad_scale(self):
        with pytest.raises(InputError):
            OptimizerConfig(initial_scale=1.5)

    def test_bad_decay(self):
        with pytest.raises(InputError):
            OptimizerConfig(decay=1.0)
