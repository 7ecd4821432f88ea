"""Exact confidence intervals for linear combinations of multinomial probabilities."""

from .bayescost import ContingencyTable, CostMatrix, PrevalenceVector, bc_problem, bc_weights, estimate_bc
from .bounds import (
    FiducialBounds,
    IntervalTable,
    SolverConfig,
    adjust_alpha,
    build_interval_table,
    fiducial_interval,
    y_quantile_lb,
    y_quantile_ub,
)
from .coverage import (
    Budget,
    CoverageReport,
    ScenarioSpec,
    coverage_at_p,
    coverage_curve,
    gold_interval,
    goodman_interval,
    mc_coverage_large_sample,
    run_scenario,
)
from .errors import InputError, NumericalError
from .model import (
    ExperimentSpec,
    ObservedCounts,
    Problem,
    SimplexPoint,
    YLattice,
    build_problem,
    estimate_L,
    experiment,
    simplex_point,
    y_lattice,
)
from .optimizer import OptimizerConfig, TailEvaluation, inf_cdf, perturb, sample_constrained, sup_cdf
from .pmf import LatticePmf, cdf_at, pmf_bruteforce, pmf_fft

__version__ = "0.1.0"
