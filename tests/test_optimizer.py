"""Constrained sampling, null-space perturbation, and tail-functional search."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import binom

from lincom_ci import (
    InputError,
    NumericalError,
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
from lincom_ci import optimizer, pmf
from lincom_ci.coverage import ScenarioSpec
from lincom_ci.optimizer import (
    DECAY, INITIAL_SCALE, _draw_steps, _null_space_basis, _sample_rows, _tail_searches,
)
from lincom_ci.pmf import _phase_matrices, cdf_index

import sequential_reference as ref
from conftest import diagnostic_problem, exact_weight_problem, random_small_problem

SEARCH_PROBLEMS = {
    **{f"{i}{n}": (i, n) for i, n in [
        ("C", 5), ("A", 3), ("B", 3), ("D", 3), ("A", 10), ("C", 20), ("D", 20),
    ]},
    "binomial": None,  # one two-category experiment: empty null space
}


def third_problem():
    """One experiment with weights (1/3, 1): ``float(L_min)`` lies below ``L_min``."""
    return build_problem([experiment(3, ("1/3", 1))])


def search_problem(name):
    if name == "third":
        return third_problem()
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
            assert abs(p.dot_weights(scenario_c5)) <= 1e-9

    def test_out_of_range_rejected(self, scenario_c5):
        with pytest.raises(InputError):
            sample_constrained(scenario_c5, 1.5, np.random.default_rng(0))

    # float(1/3) and float(2/3) lie below their fractions, float(1/10) and
    # float(9/10) above, so each bound is probed on both rounding sides: a
    # float is in range between the floats of the bounds, ends included.
    @pytest.mark.parametrize("weights", [("1/3", "9/10"), ("1/10", "2/3")])
    def test_float_range_closes_at_the_float_bounds(self, weights):
        prob = build_problem([experiment(2, weights)])
        lo, hi = float(prob.L_min), float(prob.L_max)
        for near in (lo, hi):
            for L in (np.nextafter(near, -np.inf), near, np.nextafter(near, np.inf)):
                L = float(L)
                if lo <= L <= hi:
                    p = sample_constrained(prob, L, np.random.default_rng(0))
                    assert abs(p.dot_weights(prob) - L) <= 1e-9
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
            assert abs(p.dot_weights(prob) - L) <= 1e-9 * max(1.0, abs(L))


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

    @pytest.mark.parametrize("scale", [float("nan"), np.float32("nan"), "0.1", True, None])
    def test_bad_scale_rejected_before_any_draw(self, scenario_c5, scale):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        p = simplex_point(scenario_c5, [(0.4, 0.6), (0.4, 0.6)])
        with pytest.raises(InputError, match="scale"):
            perturb(scenario_c5, p, scale, rng)
        assert rng.bit_generator.state == state

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
        assert abs(res.witness.dot_weights(scenario_c5) - 0.37) <= 1e-9
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


def draw_rows(problem, L, rng, rows):
    """``rows`` draws of ``_sample_rows`` from one ``rng.exponential`` call."""
    return _sample_rows(problem, L, rng.exponential(size=(rows, sum(problem.block_lengths))))


class TestBatchedSampler:
    @pytest.mark.parametrize("name", ["C5", "A3", "B3", "D3", "A10", "D20", "binomial"])
    def test_rows_equal_sequential_draws(self, name):
        prob = search_problem(name)
        third = prob.L_min + (prob.L_max - prob.L_min) / 3
        for k, L in enumerate([prob.L_min, third, float(third * 2 - prob.L_min), prob.L_max]):
            rng = np.random.default_rng(k)
            rows = draw_rows(prob, L, rng, 9)
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
        rows = draw_rows(prob, L, np.random.default_rng(8), 4)
        assert rows[0].tobytes() == q.tobytes()
        seq = np.random.default_rng(8)
        for row in rows:
            assert row.tobytes() == ref.sample_constrained(prob, L, seq).concat().tobytes()

    def test_fraction_target(self, scenario_c5):
        L = Fraction(1, 3)
        rows = draw_rows(scenario_c5, L, np.random.default_rng(4), 5)
        seq = np.random.default_rng(4)
        for row in rows:
            assert row.tobytes() == ref.sample_constrained(scenario_c5, L, seq).concat().tobytes()
        with pytest.raises(InputError, match="outside"):
            draw_rows(scenario_c5, Fraction(3, 2), np.random.default_rng(4), 5)


def sequential_steps(basis, scales, rng):
    """Steps drawn one at a time: a direction, then a length only if the step can move."""
    directions, lengths = [], []
    for scale in scales:
        direction = basis @ rng.standard_normal(basis.shape[1])
        norm = np.linalg.norm(direction)
        if norm >= 1e-300 and scale > 0:
            directions.append(direction / norm)
            lengths.append(scale * abs(rng.standard_normal()))
    return np.array(directions), np.array(lengths)


def search_scales(n_s):
    """The search's step scales, each the previous one times DECAY in Python floats."""
    scales = [INITIAL_SCALE]
    while len(scales) < n_s:
        scales.append(scales[-1] * DECAY)
    return scales[:n_s]


def constraint_matrix(problem):
    """Block-sum rows, one per experiment, then the weight row."""
    lengths = problem.block_lengths
    return np.vstack([np.repeat(np.eye(len(lengths)), lengths, axis=1), problem.w_float()])


NULL_SPACE_PROBLEMS = {
    **{f"{i}{n}": lambda i=i, n=n: ScenarioSpec(id=i, n=n).problem()
       for i in "ABCD" for n in (2, 3, 5, 10, 20)},
    "diagnostic": diagnostic_problem,
    "exact_weights": exact_weight_problem,
    "tied": lambda: build_problem([experiment(4, (3, 3))]),
    "binomial": lambda: search_problem("binomial"),
}


class TestNullSpaceBasis:
    @pytest.mark.parametrize("name", list(NULL_SPACE_PROBLEMS))
    def test_equals_scipy_null_space(self, name):
        # Values and strides both: the steps' matmul rounds by layout.
        prob = NULL_SPACE_PROBLEMS[name]()
        got, want = _null_space_basis(prob), scipy.linalg.null_space(constraint_matrix(prob))
        assert got.shape == want.shape
        assert got.strides == want.strides
        assert got.tobytes() == want.tobytes()

    def test_dimensions(self):
        assert _null_space_basis(NULL_SPACE_PROBLEMS["tied"]()).shape == (2, 1)
        assert _null_space_basis(NULL_SPACE_PROBLEMS["binomial"]()).shape == (2, 0)


class ZeroFirstDirection:
    """A generator whose first step's direction normals all come out 0.0."""

    def __init__(self, seed, k):
        self.rng, self.k = np.random.default_rng(seed), k

    def standard_normal(self, size):
        out = self.rng.standard_normal(size)
        out[:self.k] = 0.0
        return out


class TestBatchedSteps:
    @pytest.mark.parametrize("name,n_s", [
        *[(name, 20) for name in ["C5", "A3", "B3", "D3", "A10", "D20"]], ("C5", 5_400),
    ])
    def test_equal_sequential_draws(self, name, n_s):
        basis = _null_space_basis(search_problem(name))
        scales = search_scales(n_s)
        for seed in (3, 11):
            rng, seq = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _draw_steps(basis, np.array(scales), rng)
            want = sequential_steps(basis, scales, seq)
            for a, b in zip(got, want, strict=True):
                assert a.tobytes() == b.tobytes()
            assert rng.bit_generator.state == seq.bit_generator.state

    def test_search_scales_are_rounded_step_by_step(self, monkeypatch):
        # Past about 5,300 steps the scale is subnormal; from step 5,351 on it
        # stays at 3 * 2**-1074, which DECAY rounds back to itself.
        scales = search_scales(5_400)
        assert scales[5_350:] == [3 * 2.0**-1074] * 50
        seen = []
        draw = optimizer._draw_steps
        monkeypatch.setattr(optimizer, "_draw_steps",
                            lambda basis, s, rng: seen.append(s) or draw(basis, s, rng))
        sup_cdf(search_problem("C5"), 0.2, 0.1, OptimizerConfig(n_r=2, n_s=5_400))
        assert seen[0].tolist() == scales

    def test_zero_scales_draw_directions_only(self):
        basis = _null_space_basis(search_problem("D3"))
        scales = [0.5, 0.25, 0.0, 0.0]
        rng, seq = np.random.default_rng(8), np.random.default_rng(8)
        got = _draw_steps(basis, np.array(scales), rng)
        want = sequential_steps(basis, scales, seq)
        assert len(got[0]) == 2
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()
        assert rng.bit_generator.state == seq.bit_generator.state

    def test_empty_null_space_draws_nothing(self, binomial10):
        rng = np.random.default_rng(2)
        state = rng.bit_generator.state
        directions, lengths = _draw_steps(_null_space_basis(binomial10), np.ones(5), rng)
        assert directions.shape == (0, 2) and lengths.shape == (0,)
        assert rng.bit_generator.state == state

    def test_zero_direction_uses_up_its_length_draw(self):
        prob = search_problem("A3")
        basis = _null_space_basis(prob)
        k = basis.shape[1]
        scales = np.full(4, 0.5)
        directions, lengths = _draw_steps(basis, scales, ZeroFirstDirection(5, k))
        assert len(directions) == len(lengths) == 3
        # The other steps are the ones drawn from the same 4 * (k + 1) normals.
        g = np.random.default_rng(5).standard_normal(4 * (k + 1)).reshape(4, k + 1)[1:]
        want = [basis @ row[:k] for row in g]
        assert directions.tobytes() == np.array([d / np.linalg.norm(d) for d in want]).tobytes()
        assert lengths.tobytes() == (0.5 * np.abs(g[:, k])).tobytes()

    def test_perturb_with_zero_direction_does_not_move(self):
        prob = search_problem("A3")
        k = _null_space_basis(prob).shape[1]
        rng = ZeroFirstDirection(6, k)
        p = sample_constrained(prob, 2.0, np.random.default_rng(0))
        q, moved = perturb(prob, p, 0.3, rng)
        assert not moved and q is p
        seq = np.random.default_rng(6)
        seq.standard_normal(k + 1)
        assert rng.rng.bit_generator.state == seq.bit_generator.state

    @pytest.mark.parametrize("name", ["C5", "A3", "D3"])
    def test_perturb_equals_one_sequential_step(self, name):
        prob = search_problem(name)
        p = sample_constrained(prob, float((prob.L_min + prob.L_max) / 3), np.random.default_rng(1))
        for scale in (0.25, 1e-3, 0.0, -1.0, float("inf")):
            rng, seq = np.random.default_rng(9), np.random.default_rng(9)
            got, moved = perturb(prob, p, scale, rng)
            want, want_moved = ref.perturb(prob, p, scale, seq)
            assert moved == want_moved and same_point(got, want)
            assert rng.bit_generator.state == seq.bit_generator.state


class TestStackedWeightedSums:
    @pytest.mark.parametrize("name", ["C5", "A3", "B3", "D3", "A10", "D20", "binomial"])
    def test_equal_per_row_sums(self, name):
        prob = search_problem(name)
        q = np.random.default_rng(4).exponential(size=(50, sum(prob.block_lengths)))
        q_blocks = [q[:, s] for s in prob.block_slices()]
        for b in q_blocks:
            b /= b.sum(axis=1, keepdims=True)
        w_blocks = prob.w_blocks_float()
        stacked = np.zeros(len(q))
        for b, wb in zip(q_blocks, w_blocks):
            stacked += np.matmul(b[:, None, :], wb)[:, 0]
        per_row = [float(sum(b[i] @ wb for b, wb in zip(q_blocks, w_blocks)))
                   for i in range(len(q))]
        assert stacked.tobytes() == np.array(per_row).tobytes()


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
                            request = (cdf_index(lat, y), L, maximize, seed)
                            got = _tail_searches(prob, [request], cfg, {})[0]
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


def mixed_requests(prob):
    """Requests at CDF indices -1, 0, mid and ``count - 1``, L from ``L_min`` to ``L_max``.

    Seeds repeat across targets, so later requests reuse earlier draws.
    Each comes with the grid value the step-by-step search reads it from.
    """
    lat = y_lattice(prob)
    ys = {-1: lat.origin - lat.step, 0: lat.value(0), lat.count // 2: lat.value(lat.count // 2),
          lat.count - 1: lat.value(lat.count - 1)}
    Ls = [prob.L_min, float(prob.L_min + (prob.L_max - prob.L_min) * Fraction(3, 5)),
          float(prob.L_max)]
    requests = []
    for k, (idx, y) in enumerate(ys.items()):
        for j, L in enumerate(Ls):
            requests.append(((idx, L, (k + j) % 2 == 0, (3, 11)[j % 2]), y))
    return requests


def assert_equal_to_sequential(prob, requests, **cfg):
    got = _tail_searches(prob, [r for r, _ in requests], OptimizerConfig(**cfg), {})
    assert len(got) == len(requests)
    for ((idx, L, maximize, seed), y), res in zip(requests, got):
        assert cdf_index(y_lattice(prob), y) == idx
        want = ref.tail_search(prob, y, L, OptimizerConfig(seed=seed, **cfg), maximize)
        assert res.value.hex() == want.value.hex()
        assert same_point(res.witness, want.witness)
        assert res.evaluations == want.evaluations


class TestLockstepSearches:
    """R requests searched together equal R step-by-step searches bit for bit."""

    @pytest.mark.parametrize("name", ["C5", "A3", "B3", "D3", "A10", "binomial"])
    @pytest.mark.parametrize("n_s", [0, 20])
    def test_mixed_requests_match_sequential_searches(self, name, n_s):
        prob = search_problem(name)
        assert_equal_to_sequential(prob, mixed_requests(prob), n_s=n_s)

    @pytest.mark.parametrize("rows", [1, 3, 25])
    def test_lists_split_across_batches(self, monkeypatch, rows):
        # At 1 and 3 rows per batch each round reads one step per search; at
        # 25 rows a round reads more steps per search as searches finish.
        prob = search_problem("D3")
        monkeypatch.setattr(pmf, "BATCH_ENTRIES", rows * (_phase_matrices(prob)[0] // 2 + 1))
        assert_equal_to_sequential(prob, mixed_requests(prob))

    @pytest.mark.parametrize("rows", [None, 1, 8])
    def test_enumerated_partial_lists_match_single_searches(self, monkeypatch, rows):
        # The diagnostic lattice is read by enumeration, 5 rows per batch by
        # default: the rounds submit only part of each search's steps.
        prob = diagnostic_problem()
        plan = pmf._enumeration(prob)
        if rows is not None:
            monkeypatch.setattr(pmf, "BATCH_ENTRIES", (rows * plan.entries + 1) // 2)
        assert pmf._batch_rows(prob) == (5 if rows is None else rows)
        requests = [r for r, _ in mixed_requests(prob)]
        got = _tail_searches(prob, requests, OptimizerConfig(), {})
        for request, res in zip(requests, got):
            want = _tail_searches(prob, [request], OptimizerConfig(), {})[0]
            assert res.value.hex() == want.value.hex()
            assert same_point(res.witness, want.witness)
            assert res.evaluations == want.evaluations

    @pytest.mark.parametrize("rows", [1, 3, 25])
    def test_evaluates_the_rows_of_single_searches(self, monkeypatch, rows):
        # Rounds submit at most one batch of steps, so the searches together
        # read no more rows than alone and may read fewer.
        prob = search_problem("D3")
        monkeypatch.setattr(pmf, "BATCH_ENTRIES", rows * (_phase_matrices(prob)[0] // 2 + 1))
        evaluated = []
        kernel = pmf._pmf_rows
        monkeypatch.setattr(pmf, "_pmf_rows",
                            lambda problem, blocks: evaluated.append(len(blocks[0]))
                            or kernel(problem, blocks))
        requests = [r for r, _ in mixed_requests(prob)]
        _tail_searches(prob, requests, OptimizerConfig(), {})
        together, largest = sum(evaluated), max(evaluated)
        evaluated.clear()
        for request in requests:
            _tail_searches(prob, [request], OptimizerConfig(), {})
        assert together <= sum(evaluated) and largest <= rows

    def test_draws_are_made_once_per_seed(self, monkeypatch, scenario_c5):
        made = []
        real = optimizer._seed_draws
        monkeypatch.setattr(optimizer, "_seed_draws",
                            lambda problem, seed, cfg: made.append(seed) or real(problem, seed, cfg))
        draws = {}
        requests = [(3, L, True, seed) for L in (-0.5, 0.0, 0.5) for seed in (5, 6)]
        first = _tail_searches(scenario_c5, requests, OptimizerConfig(), draws)
        again = _tail_searches(scenario_c5, requests[::-1], OptimizerConfig(), draws)
        assert made == [5, 6]
        assert [r.value for r in first] == [r.value for r in again[::-1]]

    def test_every_target_is_checked(self, scenario_c5):
        requests = [(3, 0.0, True, 1), (3, 1.5, True, 2)]
        with pytest.raises(InputError, match="outside attainable range"):
            _tail_searches(scenario_c5, requests, OptimizerConfig(), {})


def rows_read(monkeypatch) -> list[int]:
    """The row count of every ``cdf_values`` call the search makes, as it makes them."""
    read = []
    real = optimizer.cdf_values
    monkeypatch.setattr(optimizer, "cdf_values",
                        lambda problem, points, idx: read.append(len(points))
                        or real(problem, points, idx))
    return read


def boundary_requests(prob):
    """Requests at and near both ends of the range, whose searches run into the boundary.

    Each comes with the grid value the step-by-step search reads it from.
    """
    lat = y_lattice(prob)
    span = prob.L_max - prob.L_min
    requests = []
    for j, at in enumerate((Fraction(0), Fraction(1, 50), Fraction(49, 50), Fraction(1))):
        for idx in (lat.count // 4, lat.count // 2):
            for maximize in (True, False):
                request = (idx, float(prob.L_min + span * at), maximize, 7 + j)
                requests.append((request, lat.value(idx)))
    return requests


class TestLiveSteps:
    """Rounds skip dead steps, and still equal the step-by-step search."""

    @pytest.mark.parametrize("rows", [1, None, 25])
    def test_boundary_searches_match_sequential_searches(self, monkeypatch, rows):
        prob = search_problem("D3")
        if rows is not None:
            monkeypatch.setattr(pmf, "BATCH_ENTRIES", rows * (_phase_matrices(prob)[0] // 2 + 1))
        requests = boundary_requests(prob)
        read = rows_read(monkeypatch)
        got = _tail_searches(prob, [r for r, _ in requests], OptimizerConfig(), {})
        if rows == 1:
            # One row per round reads nothing speculatively: every skipped
            # step is one the step-by-step search evaluates.
            assert sum(read) < sum(r.evaluations for r in got)
        assert_equal_to_sequential(prob, requests)

    @pytest.mark.parametrize("name", ["C5", "A3", "D3", "A10", "third"])
    @pytest.mark.parametrize("end", ["L_min", "L_max"])
    def test_pinned_end_searches_read_one_row_each(self, name, end):
        # At an end of the range every draw is the one extreme vertex and
        # every step truncates to length 0.  The CDF there jumps from 0 to 1
        # at the vertex's grid point, so neighbouring searches differ.  On
        # "third" the float end lies outside the exact range.
        prob = search_problem(name)
        lat = y_lattice(prob)
        L = float(getattr(prob, end))
        edge = 0 if end == "L_min" else lat.count - 1
        requests = [((idx, L, maximize, 5), lat.origin + lat.step * idx)
                    for idx in (edge - 1, edge) for maximize in (True, False)]
        assert_equal_to_sequential(prob, requests)

    @pytest.mark.parametrize("name", ["C5", "A3", "D3", "A10", "third", "exact-weight"])
    @pytest.mark.parametrize("end", ["L_min", "L_max"])
    def test_end_searches_give_the_exact_cdf(self, name, end):
        # The root solves never search an end of the range: they take the
        # tail there as exactly 0 or 1.  At a float end every feasible draw
        # is the extreme vertex, whose statistic sits at that end's grid
        # point, so the CDF is exactly 0.0 below that index and 1.0 from it.
        # The step-by-step reference cannot check the exact-weight lattice:
        # its FFT read leaves noise near 1e-14 where the enumerated read
        # gives exactly 0.
        prob = exact_weight_problem() if name == "exact-weight" else search_problem(name)
        count = y_lattice(prob).count
        edge = 0 if end == "L_min" else count - 1
        L = float(getattr(prob, end))
        indices = sorted({-1, 0, edge - 1, edge, count // 2, count - 1})
        requests = [(idx, L, maximize, 5) for idx in indices for maximize in (True, False)]
        values, _ = optimizer._search_batch(prob, requests, OptimizerConfig(), {})
        assert values.tolist() == [float(idx >= edge) for idx, *_ in requests]

    def test_search_with_all_draws_nan_raises(self, monkeypatch, scenario_c5):
        real = optimizer._sample_rows

        def first_search_nan(problem, L, q):
            points = real(problem, L, q)
            points[:OptimizerConfig().n_r] = np.nan
            return points

        monkeypatch.setattr(optimizer, "_sample_rows", first_search_nan)
        with pytest.raises(NumericalError, match="no feasible draw"):
            _tail_searches(scenario_c5, [(3, 0.0, True, 1), (3, 0.5, True, 2)],
                           OptimizerConfig(), {})


class TestConfigValidation:
    def test_bad_nr(self):
        with pytest.raises(InputError):
            OptimizerConfig(n_r=0)

    @pytest.mark.parametrize("field, value", [
        ("n_r", 2.5), ("n_s", 2.5), ("seed", 1.5), ("n_r", True), ("n_s", False), ("seed", True),
        ("seed", "7"),
    ])
    def test_non_integer_settings(self, field, value):
        with pytest.raises(InputError, match=f"{field} must be an integer"):
            OptimizerConfig(**{field: value})

    def test_numpy_integer_seed(self):
        assert OptimizerConfig(seed=np.uint64(2**64 - 1), n_r=np.int64(3)).n_r == 3
