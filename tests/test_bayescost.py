"""Cost-weight construction and contingency-table evaluation."""

from fractions import Fraction

import pytest

from lincom_ci import InputError, SolverConfig, fiducial_interval
from lincom_ci.bayescost import (
    ContingencyTable,
    CostMatrix,
    PrevalenceVector,
    bc_problem,
    bc_weights,
    estimate_bc,
)

# Three-class renal-function study: rows are the true class in the order
# (normal function, normal with proteinuria, nephropathy).
COSTS = CostMatrix(c=((0, 4, 4), (25, 0, 4), (45, 14, 0)))
PREV = PrevalenceVector(pr=("0.50", "0.28", "0.22"))
TABLE_RPART = ContingencyTable(rows=((26, 1, 5), (5, 9, 4), (1, 2, 11)))
TABLE_BART = ContingencyTable(rows=((29, 1, 2), (5, 10, 3), (2, 2, 10)))
TABLE_MNREG = ContingencyTable(rows=((30, 2, 0), (11, 7, 0), (2, 8, 4)))


class TestWeights:
    def test_worst_misclassification_rounds_to_ten(self):
        w = bc_weights(COSTS, PREV, rounding="nearest-integer")
        assert w[6] == 10  # true nephropathy labelled normal: 45 * 0.22 = 9.9

    def test_unrounded_products_are_exact(self):
        w = bc_weights(COSTS, PREV)
        assert w[5] == Fraction(28, 25)  # 4 * 0.28 = 1.12 exactly
        assert w[6] == Fraction(99, 10)

    def test_rounded_vector(self):
        w = bc_weights(COSTS, PREV, rounding="nearest-integer")
        assert w == (0, 2, 2, 7, 0, 1, 10, 3, 0)

    def test_zero_costs_give_zero_weights(self):
        zero = CostMatrix(c=((0, 0, 0), (0, 0, 0), (0, 0, 0)))
        assert all(v == 0 for v in bc_weights(zero, PREV))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            bc_weights(COSTS, PrevalenceVector(pr=("0.5", "0.5")))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(InputError):
            CostMatrix(c=((1, 4, 4), (25, 0, 4), (45, 14, 0)))


class TestProblemConstruction:
    def test_row_sums_become_sample_sizes(self):
        w = bc_weights(COSTS, PREV, rounding="nearest-integer")
        problem, counts = bc_problem(TABLE_RPART, w)
        assert problem.sizes == (32, 18, 14)
        assert counts.blocks == TABLE_RPART.rows

    def test_identity_table_estimates_zero(self):
        w = bc_weights(COSTS, PREV)
        perfect = ContingencyTable(rows=((9, 0, 0), (0, 9, 0), (0, 0, 9)))
        assert estimate_bc(perfect, w) == 0

    def test_bart_sample_sizes(self):
        w = bc_weights(COSTS, PREV)
        problem, _ = bc_problem(TABLE_BART, w)
        assert problem.sizes == (32, 18, 14)

    def test_zero_row_rejected(self):
        with pytest.raises(InputError):
            ContingencyTable(rows=((0, 0), (1, 1)))

    @pytest.mark.parametrize("cell", [2.7, "x", "1/2", None, float("nan")])
    def test_non_integer_cell_rejected(self, cell):
        with pytest.raises(InputError, match="non-integer cell"):
            ContingencyTable(rows=((cell, 1), (1, 1)))

    def test_integer_strings_parsed(self):
        table = ContingencyTable(rows=(("26", " 1"), ("5", "9")))
        assert table.rows == ((26, 1), (5, 9))


class TestEstimates:
    def test_rpart_rounded_hand_value(self):
        w = bc_weights(COSTS, PREV, rounding="nearest-integer")
        got = estimate_bc(TABLE_RPART, w)
        assert got == Fraction(12, 32) + Fraction(39, 18) + Fraction(16, 14)
        assert float(got) == pytest.approx(3.684, abs=1e-3)

    @pytest.mark.parametrize("rounding", ["none", "nearest-integer"])
    def test_classifier_ordering(self, rounding):
        w = bc_weights(COSTS, PREV, rounding=rounding)
        values = [estimate_bc(t, w) for t in (TABLE_RPART, TABLE_BART, TABLE_MNREG)]
        assert values[0] < values[1] < values[2]

    def test_permutation_invariance(self):
        order = (2, 0, 1)
        costs_p = CostMatrix(
            c=tuple(tuple(COSTS.c[i][j] for j in order) for i in order)
        )
        prev_p = PrevalenceVector(pr=tuple(PREV.pr[i] for i in order))
        table_p = ContingencyTable(
            rows=tuple(tuple(TABLE_RPART.rows[i][j] for j in order) for i in order)
        )
        base = estimate_bc(TABLE_RPART, bc_weights(COSTS, PREV))
        permuted = estimate_bc(table_p, bc_weights(costs_p, prev_p))
        assert base == permuted

    def test_zero_iff_no_weighted_misclassification(self):
        w = bc_weights(COSTS, PREV)
        confused = ContingencyTable(rows=((5, 1, 0), (0, 5, 0), (0, 0, 5)))
        assert estimate_bc(confused, w) > 0
        diagonal_only = ContingencyTable(rows=((5, 0, 0), (0, 5, 0), (0, 0, 5)))
        assert estimate_bc(diagonal_only, w) == 0

    def test_transpose_round_trip(self):
        assert TABLE_RPART.transposed().transposed() == TABLE_RPART


class TestCostScaling:
    def small_case(self, gamma: int):
        costs = CostMatrix(c=((0, gamma), (2 * gamma, 0)))
        prev = PrevalenceVector(pr=("0.5", "0.5"))
        table = ContingencyTable(rows=((8, 2), (3, 7)))
        w = bc_weights(costs, prev)
        problem, counts = bc_problem(table, w)
        res = fiducial_interval(problem, counts, 0.05, SolverConfig())
        return float(estimate_bc(table, w)), res.lower, res.upper

    def test_doubling_costs_doubles_everything(self):
        est1, lo1, hi1 = self.small_case(1)
        est2, lo2, hi2 = self.small_case(2)
        assert est2 == pytest.approx(2 * est1, rel=1e-12)
        assert lo2 == pytest.approx(2 * lo1, rel=1e-12)
        assert hi2 == pytest.approx(2 * hi1, rel=1e-12)

    def test_tripling_costs_scales_everything(self):
        est1, lo1, hi1 = self.small_case(1)
        est3, lo3, hi3 = self.small_case(3)
        assert est3 == pytest.approx(3 * est1, rel=1e-9)
        assert lo3 == pytest.approx(3 * lo1, rel=1e-9)
        assert hi3 == pytest.approx(3 * hi1, rel=1e-9)
