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
    y_lattice,
)
from lincom_ci import pmf
from lincom_ci.coverage import ScenarioSpec
from lincom_ci.optimizer import _sample_rows, _tail_search, constraint_residual
from lincom_ci.pmf import _phase_matrices

import sequential_reference as ref
from conftest import random_small_problem

SEARCH_PROBLEMS = {
    **{f"{i}{n}": (i, n) for i, n in [
        ("C", 5), ("A", 3), ("B", 3), ("D", 3), ("A", 10), ("C", 20), ("D", 20),
    ]},
    "binomial": None,  # one two-category experiment: empty null space
}


def search_problem(name):
    spec = SEARCH_PROBLEMS[name]
    if spec is None:
        return build_problem([experiment(6, (1, 0))])
    return ScenarioSpec(id=spec[0], n=spec[1]).problem()


def same_point(a, b) -> bool:
    return len(a.blocks) == len(b.blocks) and all(
        x.tobytes() == y.tobytes() for x, y in zip(a.blocks, b.blocks)
    )


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


class TestBatchedSampler:
    @pytest.mark.parametrize("name", ["C5", "A3", "B3", "D3", "A10", "D20", "binomial"])
    def test_rows_equal_sequential_draws(self, name):
        prob = search_problem(name)
        third = prob.L_min + (prob.L_max - prob.L_min) / 3
        for k, L in enumerate([prob.L_min, third, float(third * 2 - prob.L_min), prob.L_max]):
            rng = np.random.default_rng(k)
            rows = _sample_rows(prob, L, rng, 9)
            seq = np.random.default_rng(k)
            for row in rows:
                want = ref.sample_constrained(prob, L, seq)
                assert row.tobytes() == want.concat().tobytes()
            assert rng.bit_generator.state == seq.bit_generator.state

    def test_single_draw_is_a_batch_of_one(self, scenario_a5):
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(20):
            assert same_point(sample_constrained(scenario_a5, 1.5, a),
                              ref.sample_constrained(scenario_a5, 1.5, b))
        assert a.bit_generator.state == b.bit_generator.state

    def test_draw_on_target_is_kept(self):
        # The first draw's weighted sum is within 1e-15 of L but not equal, so
        # blending toward a vertex would move it in the last bits.
        prob = build_problem([experiment(4, (0, 1, "1/2"))])
        e = np.random.default_rng(8).exponential(size=3)
        q = e / e.sum()
        L = float(q @ prob.w_float()) + 4e-16
        assert 0 < abs(float(q @ prob.w_float()) - L) <= 1e-15
        rows = _sample_rows(prob, L, np.random.default_rng(8), 4)
        assert rows[0].tobytes() == q.tobytes()
        seq = np.random.default_rng(8)
        for row in rows:
            assert row.tobytes() == ref.sample_constrained(prob, L, seq).concat().tobytes()

    def test_fraction_target(self, scenario_c5):
        L = Fraction(1, 3)
        rows = _sample_rows(scenario_c5, L, np.random.default_rng(4), 5)
        seq = np.random.default_rng(4)
        for row in rows:
            assert row.tobytes() == ref.sample_constrained(scenario_c5, L, seq).concat().tobytes()
        with pytest.raises(InputError, match="outside"):
            _sample_rows(scenario_c5, Fraction(3, 2), np.random.default_rng(4), 5)


class TestBatchedSearch:
    """The batched, speculative search equals the step-by-step search bit for bit."""

    @pytest.mark.parametrize("name", list(SEARCH_PROBLEMS))
    def test_matches_sequential_search(self, name):
        prob = search_problem(name)
        lat = y_lattice(prob)
        ys = [lat.value(0), lat.value(lat.count // 2), lat.value(lat.count - 1)]
        Ls = [prob.L_min, float(prob.L_min + (prob.L_max - prob.L_min) * Fraction(2, 7)),
              prob.L_max]
        for seed in (1, 2, 29):
            for n_s in (0, 20):
                cfg = OptimizerConfig(seed=seed, n_s=n_s)
                for L in Ls:
                    for y in ys:
                        for maximize in (True, False):
                            got = _tail_search(prob, y, L, cfg, maximize)
                            want = ref.tail_search(prob, y, L, cfg, maximize)
                            assert got.value.hex() == want.value.hex()
                            assert same_point(got.witness, want.witness)
                            assert got.evaluations == want.evaluations

    def test_matches_sequential_search_with_small_batches(self, monkeypatch, scenario_d3):
        # Three rows per kernel batch, so steps are taken inside later batches too.
        monkeypatch.setattr(pmf, "BATCH_ENTRIES", 3 * (_phase_matrices(scenario_d3)[0] // 2 + 1))
        lat = y_lattice(scenario_d3)
        for seed in range(6):
            cfg = OptimizerConfig(seed=seed)
            for y in (lat.value(lat.count // 3), lat.value(lat.count // 2)):
                got = sup_cdf(scenario_d3, y, 0.8, cfg)
                want = ref.tail_search(scenario_d3, y, 0.8, cfg, True)
                assert got.value == want.value and same_point(got.witness, want.witness)


class TestConfigValidation:
    def test_bad_nr(self):
        with pytest.raises(InputError):
            OptimizerConfig(n_r=0)
