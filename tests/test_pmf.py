"""Transform pmf vs brute-force oracle and CDF behavior."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.fft

from lincom_ci import (
    InputError,
    NumericalError,
    build_problem,
    cdf_at,
    experiment,
    pmf_bruteforce,
    pmf_fft,
    simplex_point,
    y_lattice,
)
from lincom_ci.model import (
    SimplexPoint, attainable_mask, compositions, enumerate_outcomes, estimate_L,
    lattice_geometry,
)
from lincom_ci.coverage import ScenarioSpec
from lincom_ci.optimizer import sample_constrained
from lincom_ci import pmf
from lincom_ci.optimizer import _sample_rows
from lincom_ci.pmf import _phase_matrices, _pmf_rows, _power_inplace, cdf_from_index, cdf_values

import sequential_reference as ref
from conftest import diagnostic_problem, exact_weight_problem, random_small_problem


KERNEL_PROBLEMS = {
    "C5": lambda: ScenarioSpec(id="C", n=5).problem(),
    "A3": lambda: ScenarioSpec(id="A", n=3).problem(),
    "B3": lambda: ScenarioSpec(id="B", n=3).problem(),
    "D3": lambda: ScenarioSpec(id="D", n=3).problem(),
    "A10": lambda: ScenarioSpec(id="A", n=10).problem(),
    "D20": lambda: ScenarioSpec(id="D", n=20).problem(),
    "diagnostic": diagnostic_problem,
}


def feasible_rows(problem, rows, seed=0):
    mid = float((problem.L_min + problem.L_max) / 2)
    q = np.random.default_rng(seed).exponential(size=(rows, sum(problem.block_lengths)))
    return _sample_rows(problem, mid, q)


def split_rows(problem, points):
    return np.split(points, np.cumsum(problem.block_lengths)[:-1], axis=1)


def as_point(problem, row):
    """The row as a point as is (``simplex_point`` would renormalise it)."""
    return SimplexPoint._wrap(tuple(b[0] for b in split_rows(problem, row[None])))


def count_batches(monkeypatch) -> list[int]:
    """Record the row count of every kernel batch."""
    batches = []
    kernel = pmf._pmf_rows

    def counted(problem, blocks):
        batches.append(len(blocks[0]))
        return kernel(problem, blocks)

    monkeypatch.setattr(pmf, "_pmf_rows", counted)
    return batches


def flat_cdfs(problem, points, idx) -> list[float]:
    """The values of ``cdf_values`` as a list."""
    return cdf_values(problem, points, idx).tolist()


def random_point(problem, rng):
    return simplex_point(
        problem, [rng.dirichlet(np.ones(e.m)) for e in problem.experiments]
    )


class TestPmfFft:
    def test_symmetric_binomial(self):
        prob = build_problem([experiment(2, (1, 0))])
        dist = pmf_fft(prob, simplex_point(prob, [(0.5, 0.5)]))
        assert dist.lattice.values_float() == pytest.approx([0.0, 0.5, 1.0])
        assert dist.probs == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)

    def test_degenerate_point_mass(self, scenario_c5):
        p = simplex_point(scenario_c5, [(1.0, 0.0), (0.0, 1.0)])
        dist = pmf_fft(scenario_c5, p)
        lat = y_lattice(scenario_c5)
        expected = np.zeros(lat.count)
        expected[lat.index_of(1)] = 1.0  # all mass on +1 and on the 0-weight class
        assert dist.probs == pytest.approx(expected, abs=1e-12)

    def test_matches_bruteforce_scenario_c(self, scenario_c5):
        p = simplex_point(scenario_c5, [(0.3, 0.7), (0.6, 0.4)])
        a = pmf_fft(scenario_c5, p)
        b = pmf_bruteforce(scenario_c5, p)
        assert np.abs(a.probs - b.probs).max() <= 1e-10

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(20)
        for _ in range(4):
            prob = random_small_problem(rng)
            for _ in range(5):
                p = random_point(prob, rng)
                a, b = pmf_fft(prob, p), pmf_bruteforce(prob, p)
                assert np.abs(a.probs - b.probs).max() <= 1e-10

    def test_unattainable_grid_points_carry_no_mass(self):
        prob = build_problem([experiment(2, (3, 1))])
        p = simplex_point(prob, [(0.4, 0.6)])
        dist = pmf_fft(prob, p)
        mask = attainable_mask(prob)
        assert np.all(dist.probs[~mask] <= 1e-10)

    def test_wrong_block_shape_rejected(self, scenario_c5):
        prob2 = build_problem([experiment(2, (1, 0, 2))])
        p = simplex_point(prob2, [(0.2, 0.3, 0.5)])
        with pytest.raises(InputError):
            pmf_fft(scenario_c5, p)


def max_cdf_error(problem, p):
    fft = np.cumsum(pmf_fft(problem, p).probs)
    brute = np.cumsum(pmf_bruteforce(problem, p, cap=10**8).probs)
    return np.abs(fft - brute).max()


class TestHalfSpectrum:
    def test_oracle_at_paper_scale(self):
        # Diagnostic test set with whole-number cost weights: rows 32/18/14,
        # a 19,153-point lattice.  The full spectrum with unreduced phase
        # indices was off by 1.7e-12 here; the reduced half spectrum by ~3e-15.
        prob = diagnostic_problem()
        assert y_lattice(prob).count == 19153
        rng = np.random.default_rng(0)
        lo, hi = float(prob.L_min), float(prob.L_max)
        for frac in (0.2, 0.4, 0.6, 0.8):
            p = sample_constrained(prob, lo + frac * (hi - lo), rng)
            assert max_cdf_error(prob, p) <= 1e-13

    @pytest.mark.parametrize(
        "scenario, n, n_fft",
        [("C", 20, 45), ("D", 20, 243), ("A", 10, 96), ("C", 5, 12)],
    )
    def test_odd_and_even_transform_lengths(self, scenario, n, n_fft):
        prob = ScenarioSpec(id=scenario, n=n).problem()
        assert _phase_matrices(prob)[0] == n_fft
        rng = np.random.default_rng(n_fft)
        for _ in range(3):
            assert max_cdf_error(prob, random_point(prob, rng)) <= 1e-13

    def test_phase_depends_only_on_reduced_index(self, scenario_a5):
        # Each entry is the root of unity for (offset * t) mod n_fft, computed
        # from the reduced index, so equal residues give bit-identical entries.
        n_fft, mats = _phase_matrices(scenario_a5)
        roots = np.exp((-2j * np.pi / n_fft) * np.arange(n_fft))
        t = np.arange(n_fft // 2 + 1)
        for offs, m in zip(lattice_geometry(scenario_a5).offsets, mats):
            assert m.shape == (len(offs), t.size)
            assert np.array_equal(m, roots[np.outer(offs, t) % n_fft])

    def test_two_point_lattice(self):
        prob = build_problem([experiment(1, (1, 0))])
        dist = pmf_fft(prob, simplex_point(prob, [(0.3, 0.7)]))
        assert dist.probs == pytest.approx([0.7, 0.3], abs=1e-15)

    def test_power_matches_repeated_multiplication(self):
        rng = np.random.default_rng(5)
        z = np.exp(1j * rng.uniform(0, 2 * np.pi, 16)) * rng.uniform(0.5, 1.0, 16)
        for n in range(1, 65):
            expected = np.ones_like(z)
            for _ in range(n):
                expected = expected * z
            got = _power_inplace(z.copy(), n)
            assert np.abs(got - expected).max() <= 1e-14 * n

    def test_cached_phase_matrices_untouched(self, scenario_d3):
        _, mats = _phase_matrices(scenario_d3)
        before = [m.copy() for m in mats]
        rng = np.random.default_rng(11)
        for _ in range(5):
            pmf_fft(scenario_d3, random_point(scenario_d3, rng))
        assert _phase_matrices(scenario_d3)[1] is mats
        for m, ref in zip(mats, before):
            assert not m.flags.writeable
            assert np.array_equal(m, ref)


class TestBatchedKernel:
    @pytest.mark.parametrize("layout,n", [
        *[(layout, n) for layout in "ABCD" for n in (3, 5, 10, 20)], ("diagnostic", None),
    ])
    def test_stacked_product_equals_one_row_products(self, layout, n):
        # The kernel's per-block product on strided block views of a batch.
        prob = diagnostic_problem() if n is None else ScenarioSpec(id=layout, n=n).problem()
        points = feasible_rows(prob, 6, seed=n or 0)
        for s, mat in zip(prob.block_slices(), _phase_matrices(prob)[1]):
            block = points[:, s]
            stacked = np.matmul(block[:, None, :], mat)[:, 0, :]
            for q, row in zip(block, stacked):
                assert row.tobytes() == np.matmul(q, mat).tobytes()

    @pytest.mark.parametrize("name", list(KERNEL_PROBLEMS))
    def test_rows_equal_one_vector_pmfs(self, name):
        prob = KERNEL_PROBLEMS[name]()
        points = feasible_rows(prob, 5)
        rows = _pmf_rows(prob, split_rows(prob, points))
        assert rows.shape == (5, y_lattice(prob).count)
        for row, point in zip(rows, points):
            p = as_point(prob, point)
            assert row.tobytes() == ref.pmf_probs(prob, p.blocks).tobytes()
            assert row.tobytes() == pmf_fft(prob, p).probs.tobytes()

    @pytest.mark.parametrize("name", ["C5", "D3", "diagnostic"])
    def test_cdf_values_equal_one_vector_cdfs(self, name):
        # C5 and D3 sum the FFT kernel's pmf rows, bit for bit as one vector's
        # pmf.  The diagnostic lattice is read by enumeration: within 1e-14 of
        # the exact oracle, which the FFT read misses by about 1e-12 there.
        prob = KERNEL_PROBLEMS[name]()
        count = y_lattice(prob).count
        points = feasible_rows(prob, 7, seed=1)
        for idx in (-1, 0, count // 3, count - 2, count - 1):
            got = flat_cdfs(prob, points, idx)
            if name == "diagnostic":
                want = [ref.exact_cdf(prob, as_point(prob, pt).blocks, idx) for pt in points]
                assert np.abs(np.subtract(got, want)).max() <= 1e-14
                continue
            want = [cdf_from_index(pmf_fft(prob, as_point(prob, pt)), idx) for pt in points]
            assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("rows_per_batch", [1, 3, None])
    def test_fft_read_of_mixed_indices_equals_one_vector_cdfs(
        self, monkeypatch, scenario_d3, rows_per_batch
    ):
        # Per-row indices below, inside and at or past the top of the lattice,
        # in one batch and across batches.
        count = y_lattice(scenario_d3).count
        if rows_per_batch is not None:
            half = _phase_matrices(scenario_d3)[0] // 2 + 1
            monkeypatch.setattr(pmf, "BATCH_ENTRIES", rows_per_batch * half)
        points = feasible_rows(scenario_d3, 8, seed=2)
        idx = np.array([-2, -1, 0, 3, 3, count - 2, count - 1, count + 5])
        want = [cdf_from_index(pmf_fft(scenario_d3, as_point(scenario_d3, pt)), int(k))
                for pt, k in zip(points, idx)]
        got = cdf_values(scenario_d3, points, idx)
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_multi_chunk_batches(self, monkeypatch, scenario_d3):
        half = _phase_matrices(scenario_d3)[0] // 2 + 1
        monkeypatch.setattr(pmf, "BATCH_ENTRIES", 3 * half)  # three rows per batch
        batches = count_batches(monkeypatch)
        points = feasible_rows(scenario_d3, 8, seed=2)
        idx = y_lattice(scenario_d3).count // 2
        values = flat_cdfs(scenario_d3, points, idx)
        assert batches == [3, 3, 2]
        whole = np.array([ref.pmf_probs(scenario_d3, as_point(scenario_d3, pt).blocks)
                          for pt in points])
        assert values == whole[:, :idx + 1].sum(axis=1).tolist()

    def test_large_lattice_runs_one_row_per_batch(self, monkeypatch):
        prob = diagnostic_problem()
        batches = count_batches(monkeypatch)
        list(pmf._pmf_batches(prob, feasible_rows(prob, 3)))
        assert batches == [1, 1, 1]

    def test_single_point_lattice(self):
        prob = build_problem([experiment(3, (2, 2)), experiment(2, (0, 0, 0))])
        assert y_lattice(prob).count == 1
        points = feasible_rows(prob, 4)
        assert np.array_equal(_pmf_rows(prob, split_rows(prob, points)), np.ones((4, 1)))
        assert flat_cdfs(prob, points, 0) == [1.0] * 4

    def test_drifting_row_raises(self, monkeypatch, scenario_d3):
        def drift_second_row(z, n):
            out = _power_inplace(z, n)
            out[1] *= 1.01
            return out

        monkeypatch.setattr(pmf, "_power_inplace", drift_second_row)
        points = feasible_rows(scenario_d3, 3)
        with pytest.raises(NumericalError, match="normalization drift"):
            cdf_values(scenario_d3, points, 3)


def diagnostic_rows(*rows):
    """Diagnostic weights on experiments of ``rows`` trials: small lattices of the same shape."""
    weights = ((0, 2, 2), (7, 0, 1), (10, 3, 0))
    return build_problem([experiment(n, w) for n, w in zip(rows, weights)])


ROUTES = {
    "binomial6": (lambda: build_problem([experiment(6, (1, 0))]), "fft"),
    **{f"{i}{n}": (lambda i=i, n=n: ScenarioSpec(id=i, n=n).problem(), "fft") for i, n in [
        ("C", 5), ("A", 2), ("A", 3), ("A", 5), ("A", 10), ("B", 3), ("B", 5), ("C", 20),
        ("D", 2), ("D", 3), ("D", 5),
    ]},
    "diagnostic": (diagnostic_problem, "enumerated"),
    "exact-weight": (exact_weight_problem, "enumerated"),
    # Few outcomes, but R = 10**8 joint offsets: rejected before they are built.
    "nine-binomials": (lambda: build_problem([experiment(9, (0, 2**k)) for k in range(9)]), "fft"),
    # Few outcomes on 5.5 million points, but C(1100, 550) has no float.
    "wide-binomial": (
        lambda: build_problem([experiment(1100, (0, 1)), experiment(1, (0, 5000))]), "fft",
    ),
}


#: Problems whose categories share grid offsets within an experiment.
TIED = {
    # Every category of experiment 0 on one offset: one merged category.
    "all-tied": lambda: build_problem([experiment(5, (1, 1, 1)), experiment(4, (0, 2, 3))]),
    # K = 1, with three categories on one offset: no other experiment to contract.
    "one-experiment": lambda: build_problem([experiment(7, (0, 2, 2, 5, 2))]),
    # K = 2: one other experiment to contract.
    "two-experiments": lambda: build_problem([
        experiment(6, (0, 2, 2)), experiment(5, (1, 0, 3, 3)),
    ]),
}


class TestEnumeratedRead:
    """The enumerated CDF read: its route, exactness, batch invariance and checks."""

    @pytest.mark.parametrize("name", list(ROUTES))
    def test_route_follows_from_sizes(self, name):
        build, route = ROUTES[name]
        prob = build()
        plan = pmf._enumeration(prob)
        assert ("fft" if plan is None else "enumerated") == route
        if plan is not None:
            assert plan.entries < pmf._n_fft(prob)
            assert pmf._batch_rows(prob) == max(1, 2 * pmf.BATCH_ENTRIES // plan.entries)
        assert pmf._phase_matrices not in prob._memo

    @pytest.mark.parametrize("rows, count", [((5, 2, 2), 191), ((6, 5, 4), 1141)])
    def test_within_exact_oracle(self, rows, count):
        prob = diagnostic_rows(*rows)
        assert y_lattice(prob).count == count
        plan = pmf._enumeration_plan(prob)  # built whichever read the route picks
        points = feasible_rows(prob, 6, seed=3)
        blocks = split_rows(prob, points)
        for idx in np.unique(np.linspace(0, count - 2, 30).astype(int)).tolist():
            got = pmf._enumerated_cdfs(plan, points, np.full(len(points), idx))
            want = [ref.exact_cdf(prob, [b[i] for b in blocks], idx) for i in range(len(points))]
            assert np.abs(got - want).max() <= 1e-14, idx

    @pytest.mark.parametrize("name", [
        "diagnostic", "exact-weight", "C5", "A3", "B3", "D3", "binomial6", *TIED,
    ])
    def test_equals_sequential_reference(self, name):
        # One power table and one gather table for all experiments (B3 and D3
        # pad their 3-category experiment), merged categories (a triple in
        # "one-experiment"), one position lookup per run of one index, and
        # K = 1 and 2: the same bits as the read one experiment at a time.
        prob = TIED[name]() if name in TIED else ROUTES[name][0]()
        count = y_lattice(prob).count
        plan = pmf._enumeration_plan(prob)
        points = feasible_rows(prob, 8, seed=6)
        points[5] = np.nan
        blocks = split_rows(prob, points)
        rng = np.random.default_rng(7)
        batches = [np.full(8, k) for k in (0, count // 2, count - 2)]
        batches += [np.repeat(rng.integers(0, count - 1, 3), [3, 1, 4]) for _ in range(3)]
        batches += [np.tile(rng.integers(0, count - 1, 2), 4), rng.integers(0, count - 1, 8)]
        for idx in batches:
            got = pmf._enumerated_cdfs(plan, points, idx)
            want = ref.enumerated_cdfs(prob, blocks, idx)
            assert [v.hex() for v in got] == [v.hex() for v in want], idx
            assert np.isnan(got[5]) and np.isfinite(np.delete(got, 5)).all()

    def test_diagnostic_plan_shape(self):
        # Experiment 0's weights (0, 2, 2) merge to two categories: 33 outcomes
        # where C(34, 2) = 561 were, and 996 power-table entries per row where
        # 2,613 were.  Route and batch size still count the unmerged outcomes.
        plan = pmf._enumeration(diagnostic_problem())
        assert plan.read == 1 and plan.own == slice(33, 33 + 190)
        assert np.diff([*plan.heads, plan.coef.size]).tolist() == [33, 190, 120]
        assert len(plan.first) == 8 and plan.gather.shape == (3, 33 + 190 + 120)
        assert [s.stop - s.start for s in plan.others] == [33, 105]
        assert len(plan.shift) == 33 * 105 == 3465
        assert plan.entries == (561 + 190 + 120) * 3 + 3465

    @pytest.mark.parametrize("name, merged, contracted", [
        ("all-tied", 4, 1), ("one-experiment", 3, 0), ("two-experiments", 5, 1),
    ])
    def test_tied_categories_within_exact_oracle(self, name, merged, contracted):
        prob = TIED[name]()
        count = y_lattice(prob).count
        plan = pmf._enumeration_plan(prob)
        assert len(plan.first) == merged and len(plan.others) == contracted
        points = feasible_rows(prob, 5, seed=2)
        points[3] = np.nan
        blocks = split_rows(prob, points)
        for idx in range(count - 1):
            got = pmf._enumerated_cdfs(plan, points, np.full(len(points), idx))
            assert np.isnan(got[3]) and np.isfinite(np.delete(got, 3)).all()
            want = [ref.exact_cdf(prob, [b[i] for b in blocks], idx) for i in (0, 1, 2, 4)]
            assert np.abs(np.delete(got, 3) - want).max() <= 1e-14, idx

    @pytest.mark.parametrize("zero", [1, 2])
    def test_zero_probability_inside_a_merged_pair(self, zero):
        # Categories 1 and 2 of experiment 0 share weight 2.
        prob = diagnostic_rows(5, 2, 2)
        count = y_lattice(prob).count
        plan = pmf._enumeration_plan(prob)
        points = feasible_rows(prob, 4, seed=5)
        points[:, 3 - zero] += points[:, zero]
        points[:, zero] = 0.0
        blocks = split_rows(prob, points)
        for idx in range(0, count - 1, 7):
            got = pmf._enumerated_cdfs(plan, points, np.full(len(points), idx))
            want = [ref.exact_cdf(prob, [b[i] for b in blocks], idx) for i in range(len(points))]
            assert np.abs(got - want).max() <= 1e-14, idx

    @pytest.mark.parametrize("n", [32, 18, 14, 40, 60])
    def test_coefficients_equal_the_big_integer_loop(self, n):
        # The diagnostic rows, then coefficients above 2**53 (n = 40) and
        # above int64 (n = 60): each exact, then rounded once.
        comps = compositions(n, 3)
        top = math.factorial(n)
        want = [float(top // math.prod(map(math.factorial, c))) for c in comps.tolist()]
        assert pmf._multinomials(n, comps).tolist() == want

    def test_coefficient_beyond_the_largest_float_has_no_plan(self):
        # C(1100, 550) is about 1e329.
        assert pmf._enumeration_plan(build_problem([experiment(1100, (0, 1))])) is None

    @pytest.mark.parametrize("drifting", [(0, 1), (1, 2), (0, 2), (2,)])
    def test_drift_names_the_first_drifting_experiment(self, drifting):
        prob = diagnostic_problem()
        plan = pmf._enumeration(prob)
        points = feasible_rows(prob, 3)
        for k, scale in zip(drifting, (1.001, 1.01)):
            points[1:, prob.block_slices()[k]] *= scale
        idx = np.full(3, 5)
        with pytest.raises(NumericalError, match="normalization drift") as got:
            pmf._enumerated_cdfs(plan, points, idx)
        with pytest.raises(NumericalError) as want:
            ref.enumerated_cdfs(prob, split_rows(prob, points), idx)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("rows_per_batch", [1, 3, 8])
    def test_batch_values_equal_one_row_values(self, monkeypatch, rows_per_batch):
        prob = diagnostic_problem()
        count = y_lattice(prob).count
        plan = pmf._enumeration(prob)
        monkeypatch.setattr(pmf, "BATCH_ENTRIES", (rows_per_batch * plan.entries + 1) // 2)
        points = feasible_rows(prob, 9, seed=4)
        idx = np.array([-1, 0, 7, count // 3, count // 3, count // 2, count - 2, count - 1, 11])
        got = [cdf_values(prob, pt[None], k)[0] for pt, k in zip(points, idx)]
        values = cdf_values(prob, points, idx)
        assert pmf._batch_rows(prob) == rows_per_batch
        assert [v.hex() for v in values] == [v.hex() for v in got]
        assert got[0] == 0.0 and got[7] == 1.0

    def test_drifting_row_raises_and_nan_row_stays_nan(self):
        prob = diagnostic_problem()
        count = y_lattice(prob).count
        points = feasible_rows(prob, 3)
        drifting = points.copy()
        drifting[1, prob.block_slices()[2]] *= 1.01
        with pytest.raises(NumericalError, match="normalization drift"):
            cdf_values(prob, drifting, 3)
        points[1] = np.nan
        assert flat_cdfs(prob, points, -1)[1] == 0.0
        assert flat_cdfs(prob, points, count - 1)[1] == 1.0
        values = flat_cdfs(prob, points, count // 2)
        assert np.isnan(values[1]) and np.isfinite(values[0]) and np.isfinite(values[2])


class TestNormalisation:
    """``_normalised`` equals the reference kernel's own normalisation.

    ``irfft`` is replaced so that both kernels normalise chosen raw rows.
    """

    ROWS = {
        "nan": [np.nan, 0.25, 0.25, 0.5],
        "negative zero": [-0.0, 0.25, 0.25, 0.5],
        "round-off": [1e-15, -1e-15, 0.5, 0.5],
        "small negative": [-1e-12, 0.5, 0.5, 1e-12],
        "plain": [0.125, 0.375, 0.375, 0.125],
    }

    @staticmethod
    def kernels(monkeypatch, raw):
        """Both kernels' rows for the raw rows ``raw`` on a 4-point lattice."""
        prob = build_problem([experiment(3, (1, 0))])
        assert _phase_matrices(prob)[0] == 4
        block = np.full((len(raw), 2), 0.5)
        monkeypatch.setattr(scipy.fft, "irfft", lambda x, n, axis=-1: np.array(raw, dtype=float))
        batched = _pmf_rows(prob, [block])
        alone = []
        for row in raw:
            monkeypatch.setattr(scipy.fft, "irfft", lambda x, n, row=row: np.array(row, dtype=float))
            alone.append(ref.pmf_probs(prob, [block[0]]))
        return batched, alone

    def test_equals_reference(self, monkeypatch):
        batched, alone = self.kernels(monkeypatch, list(self.ROWS.values()))
        for name, got, want in zip(self.ROWS, batched, alone):
            assert got.tobytes() == want.tobytes(), name
        assert np.isnan(batched[0]).all()
        assert np.signbit(batched[1]).sum() == 0  # -0.0 and round-off become +0.0

    @pytest.mark.parametrize("row, message", [
        ([-1e-6, 0.5, 0.5, 1e-6], "negative beyond round-off"),
        ([0.5, 0.5, 0.5, 0.0], "normalization drift"),
    ])
    def test_both_errors_fire(self, monkeypatch, row, message):
        with pytest.raises(NumericalError, match=message):
            self.kernels(monkeypatch, [self.ROWS["plain"], row])


class TestPmfBruteforce:
    def test_single_trial(self):
        prob = build_problem([experiment(1, (2, 0, -1))])
        dist = pmf_bruteforce(prob, simplex_point(prob, [(0.2, 0.5, 0.3)]))
        lat = dist.lattice
        assert lat.values_float() == pytest.approx([-1.0, 0.0, 1.0, 2.0])
        assert dist.probs == pytest.approx([0.3, 0.5, 0.0, 0.2], abs=1e-15)

    def test_scenario_d_normalizes(self, scenario_d3):
        rng = np.random.default_rng(3)
        small = build_problem(
            [experiment(2, (4, -2, -2)), experiment(2, (4, -1, -1, -2))]
        )
        for _ in range(3):
            dist = pmf_bruteforce(small, random_point(small, rng))
            assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_cap_enforced(self):
        prob = build_problem([experiment(100, (1, 0, 2, 3, 4, 5))])
        p = simplex_point(prob, [np.full(6, 1 / 6)])
        with pytest.raises(InputError, match="cap"):
            pmf_bruteforce(prob, p, cap=1000)

    def test_exhaustive_outcome_sum(self):
        # Independent cross-check: summing per-outcome joint masses directly.
        prob = build_problem([experiment(3, (1, 0)), experiment(2, (0, 2))])
        rng = np.random.default_rng(8)
        p = random_point(prob, rng)
        dist = pmf_bruteforce(prob, p)
        lat = dist.lattice
        accum = np.zeros(lat.count)
        from math import comb, prod

        for x in enumerate_outcomes(prob):
            mass = 1.0
            for block, pb, e in zip(x.blocks, p.blocks, prob.experiments):
                coef = comb(e.n, block[0])
                mass *= coef * prod(float(q) ** c for q, c in zip(pb, block))
            accum[lat.index_of(estimate_L(prob, x))] += mass
        assert np.abs(accum - dist.probs).max() <= 1e-12


class TestConvolutionConsistency:
    def test_concatenated_problem_is_lattice_convolution(self):
        rng = np.random.default_rng(14)
        e1, e2 = experiment(4, (2, 0)), experiment(3, (1, 0))
        p1 = build_problem([e1])
        p2 = build_problem([e2])
        joint = build_problem([e1, e2])
        b1 = rng.dirichlet(np.ones(2))
        b2 = rng.dirichlet(np.ones(2))
        d1 = pmf_fft(p1, simplex_point(p1, [b1]))
        d2 = pmf_fft(p2, simplex_point(p2, [b2]))
        dj = pmf_fft(joint, simplex_point(joint, [b1, b2]))
        # Both sub-lattices have step 1/4 and 1/3 -> joint step is 1/12.
        lat_j = dj.lattice
        expanded1 = np.zeros(lat_j.count)
        stride1 = int(d1.lattice.step / lat_j.step)
        expanded1[:: stride1][: d1.lattice.count] = d1.probs
        expanded2 = np.zeros(lat_j.count)
        stride2 = int(d2.lattice.step / lat_j.step)
        expanded2[:: stride2][: d2.lattice.count] = d2.probs
        conv = np.convolve(expanded1, expanded2)[: lat_j.count]
        assert np.abs(conv - dj.probs).max() <= 1e-10


class TestCdf:
    def test_symmetric_binomial(self):
        prob = build_problem([experiment(2, (1, 0))])
        dist = pmf_fft(prob, simplex_point(prob, [(0.5, 0.5)]))
        assert cdf_at(dist, Fraction(1, 2)) == pytest.approx(0.75, abs=1e-12)

    def test_boundaries(self, scenario_c5):
        p = simplex_point(scenario_c5, [(0.5, 0.5), (0.5, 0.5)])
        dist = pmf_fft(scenario_c5, p)
        assert cdf_at(dist, -2) == 0.0
        assert cdf_at(dist, 1) == 1.0
        assert cdf_at(dist, 5) == 1.0

    def test_matches_bruteforce_cumulative(self, scenario_c5):
        p = simplex_point(scenario_c5, [(0.5, 0.5), (0.5, 0.5)])
        fft_val = cdf_at(pmf_fft(scenario_c5, p), 0)
        brute = pmf_bruteforce(scenario_c5, p)
        lat = brute.lattice
        direct = brute.probs[: lat.index_of(0) + 1].sum()
        assert fft_val == pytest.approx(direct, abs=1e-12)

    def test_nondecreasing_and_reaches_one(self):
        rng = np.random.default_rng(9)
        for _ in range(3):
            prob = random_small_problem(rng)
            dist = pmf_fft(prob, random_point(prob, rng))
            lat = dist.lattice
            vals = [cdf_at(dist, lat.value(i)) for i in range(lat.count)]
            assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
            assert vals[-1] == pytest.approx(1.0, abs=1e-12)

    def test_between_grid_points(self):
        prob = build_problem([experiment(2, (1, 0))])
        dist = pmf_fft(prob, simplex_point(prob, [(0.5, 0.5)]))
        assert cdf_at(dist, 0.49) == pytest.approx(0.25, abs=1e-12)
