"""Misclassification-cost evaluation of multi-class classifiers.

The cost metric is a prevalence-and-cost-weighted sum of the off-diagonal
classification probabilities of a K-class confusion layout, which is a
weighted sum of multinomial probabilities with one experiment per true
class.  This module builds the weight vector from a cost matrix and a
prevalence vector, converts a contingency table into the generic problem
form, and evaluates the point estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

from .errors import InputError
from .model import (
    ObservedCounts,
    Problem,
    WeightLike,
    as_fraction,
    build_problem,
    estimate_L,
    experiment,
    parse_count,
)

Rounding = Literal["none", "nearest-integer"]


@dataclass(frozen=True)
class CostMatrix:
    """Misclassification costs: rows are the true class, columns the assigned.

    The diagonal must be zero (correct classification carries no cost).
    """

    c: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(as_fraction(v) for v in row) for row in self.c)
        k = len(rows)
        if k < 2 or any(len(row) != k for row in rows):
            raise InputError("cost matrix must be square with K >= 2")
        for i in range(k):
            if rows[i][i] != 0:
                raise InputError(f"cost matrix diagonal entry [{i}][{i}] must be 0")
            if any(v < 0 for v in rows[i]):
                raise InputError(f"cost matrix row {i} has negative entries")
        object.__setattr__(self, "c", rows)

    @property
    def K(self) -> int:
        return len(self.c)


@dataclass(frozen=True)
class PrevalenceVector:
    """Class prevalences; nonnegative and summing to one."""

    pr: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(as_fraction(v) for v in self.pr)
        if len(vals) < 2:
            raise InputError("prevalence vector needs at least 2 classes")
        if any(v < 0 for v in vals):
            raise InputError("prevalences must be nonnegative")
        total = sum(vals, Fraction(0))
        if abs(float(total) - 1.0) > 1e-9:
            raise InputError(f"prevalences sum to {float(total)!r}, expected 1")
        object.__setattr__(self, "pr", vals)

    @property
    def K(self) -> int:
        return len(self.pr)


@dataclass(frozen=True)
class ContingencyTable:
    """Classification counts: rows are the true class, columns the assigned.

    Cells may be integers or numeric strings; anything that is not an exact
    integer (``2.7``, ``"x"``) is rejected rather than truncated.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(
            tuple(parse_count(v, f"contingency table row {i}") for v in row)
            for i, row in enumerate(self.rows)
        )
        k = len(rows)
        if k < 2 or any(len(row) != k for row in rows):
            raise InputError("contingency table must be square with K >= 2")
        for i, row in enumerate(rows):
            if any(v < 0 for v in row):
                raise InputError(f"contingency table row {i} has negative entries")
            if sum(row) == 0:
                raise InputError(f"contingency table row {i} sums to zero")
        object.__setattr__(self, "rows", rows)

    @property
    def K(self) -> int:
        return len(self.rows)

    def transposed(self) -> "ContingencyTable":
        return ContingencyTable(rows=tuple(zip(*self.rows)))


def bc_weights(
    costs: CostMatrix,
    prev: PrevalenceVector,
    rounding: Rounding = "none",
) -> tuple[Fraction, ...]:
    """Weight vector: each cost scaled by its true-class prevalence.

    Concatenated in true-class order, with zeros on the diagonal positions.
    Optional rounding to the nearest whole number reproduces the coarser
    convention sometimes used in applications.
    """
    if costs.K != prev.K:
        raise InputError(f"cost matrix is {costs.K}x{costs.K} but prevalences have {prev.K} classes")
    if rounding not in ("none", "nearest-integer"):
        raise InputError(f"rounding must be 'none' or 'nearest-integer', got {rounding!r}")
    out: list[Fraction] = []
    for k in range(costs.K):
        for m in range(costs.K):
            v = costs.c[k][m] * prev.pr[k]
            if rounding == "nearest-integer":
                v = Fraction(round(v))
            out.append(v)
    return tuple(out)


def bc_problem(
    table: ContingencyTable, weights: Sequence[WeightLike]
) -> tuple[Problem, ObservedCounts]:
    """Recast a contingency table as one multinomial experiment per true class."""
    k = table.K
    if len(weights) != k * k:
        raise InputError(f"expected {k * k} weights for a {k}-class table, got {len(weights)}")
    specs = []
    for i, row in enumerate(table.rows):
        block = weights[i * k:(i + 1) * k]
        specs.append(experiment(sum(row), block))
    problem = build_problem(specs)
    counts = ObservedCounts(blocks=table.rows)
    return problem, counts


def estimate_bc(table: ContingencyTable, weights: Sequence[WeightLike]) -> Fraction:
    """Point estimate of the cost metric from observed classification counts."""
    problem, counts = bc_problem(table, weights)
    return estimate_L(problem, counts)
