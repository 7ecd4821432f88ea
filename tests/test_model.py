"""Problem construction, exact lattice geometry, and estimator behavior."""

import gc
import math
import pickle
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lincom_ci import (
    InputError,
    ObservedCounts,
    build_problem,
    estimate_L,
    experiment,
    simplex_point,
    y_lattice,
)
from lincom_ci.coverage import ScenarioSpec
from lincom_ci.model import (
    as_fraction,
    attainable_mask,
    check_counts,
    compositions,
    enumerate_outcomes,
    lattice_geometry,
    problem_from_dict,
    problem_from_json,
)
from lincom_ci.optimizer import perturb, sample_constrained
from lincom_ci.pmf import _phase_matrices, pmf_fft

from conftest import json_configs, json_values, random_small_problem


def scenario_c(n=5):
    return build_problem([experiment(n, (1, 0)), experiment(n, (-1, 0))])


class TestWeightParsing:
    def test_decimal_string_is_exact(self):
        assert as_fraction("0.28") == Fraction(28, 100)

    def test_float_goes_through_decimal_repr(self):
        assert as_fraction(0.1) == Fraction(1, 10)

    def test_fraction_string(self):
        assert as_fraction("1/3") == Fraction(1, 3)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), "abc", None])
    def test_rejects_garbage(self, bad):
        with pytest.raises(InputError):
            as_fraction(bad)


class TestBuildProblem:
    def test_scenario_c_range(self):
        prob = scenario_c(5)
        assert (prob.L_min, prob.L_max) == (-1, 1)

    def test_single_binomial_range(self):
        prob = build_problem([experiment(10, (1, 0))])
        assert (prob.L_min, prob.L_max) == (0, 1)

    def test_scenario_d_range(self):
        prob = build_problem([experiment(10, (4, -2, -2)), experiment(10, (4, -1, -1, -2))])
        assert (prob.L_min, prob.L_max) == (-4, 8)

    def test_empty_list_rejected(self):
        with pytest.raises(InputError):
            build_problem([])

    def test_one_category_rejected(self):
        with pytest.raises(InputError):
            experiment(5, (1,))

    def test_zero_trials_rejected(self):
        with pytest.raises(InputError):
            experiment(0, (1, 0))


class TestYLattice:
    def test_scenario_c(self):
        lat = y_lattice(scenario_c(5))
        assert (lat.origin, lat.step, lat.count) == (-1, Fraction(1, 5), 11)

    def test_binomial_quarters(self):
        lat = y_lattice(build_problem([experiment(4, (1, 0))]))
        assert (lat.origin, lat.step, lat.count) == (0, Fraction(1, 4), 5)

    def test_scenario_a_against_enumeration(self):
        prob = build_problem(
            [experiment(5, (0, 1, 1)), experiment(5, (2, 0, 3)), experiment(5, (5, 3, 0))]
        )
        lat = y_lattice(prob)
        assert (lat.origin, lat.step, lat.count) == (0, Fraction(1, 5), 46)
        observed = {estimate_L(prob, x) for x in enumerate_outcomes(prob)}
        assert min(observed) == lat.origin
        assert max(observed) == lat.top
        for y in observed:
            assert lat.index_of(y) >= 0

    def test_grid_may_be_finer_than_attainable_set(self):
        # With weights (3, 1) over 2 trials only whole numbers occur, but the
        # shared-divisor grid has half-integer steps carrying zero mass.
        prob = build_problem([experiment(2, (3, 1))])
        lat = y_lattice(prob)
        assert (lat.origin, lat.step, lat.count) == (1, Fraction(1, 2), 5)
        mask = attainable_mask(prob)
        attained = {lat.value(i) for i in np.flatnonzero(mask)}
        assert attained == {1, 2, 3}

    def test_degenerate_all_zero_weights(self):
        prob = build_problem([experiment(3, (0, 0))])
        lat = y_lattice(prob)
        assert lat.count == 1 and lat.origin == 0

    def test_infeasible_lattice_fails_fast(self):
        # Coprime trial counts: the step is 1/(997*991*983), giving 2.9e9 points.
        prob = build_problem([experiment(n, (1, 0)) for n in (997, 991, 983)])
        with pytest.raises(InputError, match="2913691624 points.*LCM of the trial counts"):
            lattice_geometry(prob)

    def test_exact_diagnostic_lattice_under_cap(self):
        prob = build_problem([
            experiment(32, (0, 2, 2)), experiment(18, (7, 0, "1.12")),
            experiment(14, ("9.9", "3.08", 0)),
        ])
        assert y_lattice(prob).count == 476281

    def test_attainable_mask_matches_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            prob = random_small_problem(rng)
            lat = y_lattice(prob)
            mask = attainable_mask(prob)
            attained = {estimate_L(prob, x) for x in enumerate_outcomes(prob)}
            from_mask = {lat.value(i) for i in np.flatnonzero(mask)}
            assert attained == from_mask


class TestEstimate:
    def test_scenario_c_example(self):
        prob = scenario_c(5)
        counts = ObservedCounts(blocks=((3, 2), (1, 4)))
        assert estimate_L(prob, counts) == Fraction(2, 5)

    def test_zero_weight_categories(self):
        prob = scenario_c(5)
        counts = ObservedCounts(blocks=((0, 5), (0, 5)))
        assert estimate_L(prob, counts) == 0

    def test_scenario_a_hand_value(self):
        prob = build_problem(
            [experiment(5, (0, 1, 1)), experiment(5, (2, 0, 3)), experiment(5, (5, 3, 0))]
        )
        counts = ObservedCounts(blocks=((0, 5, 0), (0, 5, 0), (0, 0, 5)))
        assert estimate_L(prob, counts) == 1

    def test_bad_block_sum_rejected(self):
        prob = scenario_c(5)
        with pytest.raises(InputError):
            check_counts(prob, ObservedCounts(blocks=((3, 3), (1, 4))))

    def test_every_outcome_lands_on_lattice(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            prob = random_small_problem(rng)
            lat = y_lattice(prob)
            for x in enumerate_outcomes(prob):
                lat.index_of(estimate_L(prob, x))  # raises if off-grid

    @given(st.permutations(range(3)))
    def test_permutation_invariance(self, order):
        specs = [
            experiment(5, (0, 1, 1)),
            experiment(4, (2, 0, 3)),
            experiment(3, (5, 3, 0)),
        ]
        blocks = ((2, 2, 1), (0, 4, 0), (1, 1, 1))
        base = estimate_L(build_problem(specs), ObservedCounts(blocks=blocks))
        permuted = estimate_L(
            build_problem([specs[i] for i in order]),
            ObservedCounts(blocks=tuple(blocks[i] for i in order)),
        )
        assert base == permuted


class TestObservedCounts:
    def test_numeric_strings_are_counts(self):
        assert ObservedCounts(blocks=(("3", " 2"),)).blocks == ((3, 2),)

    @pytest.mark.parametrize("bad", ["x", None, 2.5, "1/2"])
    def test_non_integer_cell_is_an_input_error(self, bad):
        with pytest.raises(InputError, match="count block 0 has a non-integer cell"):
            ObservedCounts(blocks=((bad, 1),))


class TestPerProblemState:
    def test_derived_state_is_freed_with_the_problem(self):
        prob = ScenarioSpec(id="D", n=20).problem()
        rng = np.random.default_rng(3)
        point = sample_constrained(prob, 0.5 * float(prob.L_min + prob.L_max), rng)
        pmf_fft(prob, point)
        perturb(prob, point, 0.1, rng)
        prob_ref = weakref.ref(prob)
        mat_ref = weakref.ref(_phase_matrices(prob)[1][0])
        del prob
        gc.collect()
        assert prob_ref() is None
        assert mat_ref() is None

    def test_equal_problems_compare_and_hash_equal(self):
        a, b = scenario_c(5), scenario_c(5)
        lattice_geometry(a)  # derived state on one side only
        assert a == b and hash(a) == hash(b)
        assert a != scenario_c(6)
        assert "_memo" not in repr(a)
        assert pickle.loads(pickle.dumps(a)) == a

    def test_state_is_built_once_and_read_only(self):
        prob = scenario_c(5)
        assert lattice_geometry(prob) is lattice_geometry(prob)
        assert prob.w_float() is prob.w_float()
        assert prob.w_float().tolist() == [1.0, 0.0, -1.0, 0.0]
        for arr in (prob.w_float(), *prob.w_blocks_float(), attainable_mask(prob)):
            assert not arr.flags.writeable


class TestRangeCheck:
    @given(st.lists(st.floats(0, 1), min_size=2, max_size=4))
    def test_all_simplex_targets_in_range(self, raw):
        prob = build_problem([experiment(6, tuple(range(len(raw))))])
        total = sum(raw)
        if total == 0:
            raw = [1.0] * len(raw)
            total = float(len(raw))
        p = simplex_point(prob, [np.array(raw) / total])
        L = p.dot_weights(prob)
        assert float(prob.L_min) - 1e-9 <= L <= float(prob.L_max) + 1e-9


class TestConfigSchema:
    def test_round_trip(self):
        text = '{"experiments": [{"n": 5, "weights": [1, 0]}, {"n": 5, "weights": ["-1", "0"]}], "alpha": 0.05}'
        prob, alpha = problem_from_json(text)
        assert alpha == 0.05
        assert (prob.L_min, prob.L_max) == (-1, 1)

    def test_missing_experiments(self):
        with pytest.raises(InputError, match="experiments"):
            problem_from_json('{"alpha": 0.05}')

    def test_bad_alpha(self):
        with pytest.raises(InputError, match="alpha"):
            problem_from_json('{"experiments": [{"n": 2, "weights": [1, 0]}], "alpha": 1.5}')

    def test_invalid_json(self):
        with pytest.raises(InputError, match="JSON"):
            problem_from_json("{not json")

    @pytest.mark.parametrize("weights", [None, 5, "10", {"1": 0}, True])
    def test_weights_must_be_a_list(self, weights):
        cfg = {"experiments": [{"n": 5, "weights": weights}]}
        with pytest.raises(InputError, match=r"experiments\[0\]\.weights must be a list"):
            problem_from_dict(cfg)

    @given(json_configs(
        st.integers(1, 9) | json_values, st.integers() | st.fractions().map(str) | json_values
    ))
    def test_arbitrary_input_builds_or_raises_input_error(self, cfg):
        try:
            problem, alpha = problem_from_dict(cfg)
        except InputError:
            return
        assert problem.L_min <= problem.L_max
        assert alpha is None or 0 < alpha < 1


class TestSimplexPoint:
    def test_renormalizes_rounding_noise(self):
        prob = scenario_c(5)
        p = simplex_point(prob, [(0.3, 0.7 + 1e-13), (0.5, 0.5)])
        assert math.isclose(p.blocks[0].sum(), 1.0, abs_tol=0)

    def test_rejects_negative(self):
        prob = scenario_c(5)
        with pytest.raises(InputError):
            simplex_point(prob, [(-0.1, 1.1), (0.5, 0.5)])

    def test_rejects_bad_sum(self):
        prob = scenario_c(5)
        with pytest.raises(InputError):
            simplex_point(prob, [(0.3, 0.3), (0.5, 0.5)])

    def test_rejects_wrong_block_count(self):
        prob = scenario_c(5)
        with pytest.raises(InputError):
            simplex_point(prob, [(0.5, 0.5)])


class TestCompositions:
    @pytest.mark.parametrize("total,parts", [(0, 3), (4, 1), (5, 2), (4, 3), (3, 4)])
    def test_every_composition_once_in_lexicographic_order(self, total, parts):
        comps = compositions(total, parts)
        assert comps.shape == (math.comb(total + parts - 1, parts - 1), parts)
        assert np.all(comps >= 0) and np.all(comps.sum(axis=1) == total)
        rows = [tuple(r) for r in comps.tolist()]
        assert rows == sorted(set(rows))

    def test_outcomes_are_the_product_of_block_compositions(self):
        prob = build_problem([experiment(2, (1, 0, 2)), experiment(3, (0, 1))])
        outcomes = [x.blocks for x in enumerate_outcomes(prob)]
        assert len(outcomes) == 6 * 4
        assert outcomes[0] == ((0, 0, 2), (0, 3))
        assert outcomes[1] == ((0, 0, 2), (1, 2))
        assert outcomes[-1] == ((2, 0, 0), (3, 0))
