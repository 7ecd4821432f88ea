"""Stochastic search for the CDF tail functionals on a weight-constrained slice.

The lower/upper interval bounds need the infimum and supremum of the
statistic's CDF over all probability vectors whose weighted sum equals a
target value.  This module approximates both with a two-phase search: a
batch of random feasible draws followed by annealing-style local
perturbations with geometrically decaying step size, accepting improvements
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np
import scipy.linalg

from .errors import InputError, NumericalError
from .model import Problem, SimplexPoint, per_problem, y_lattice
from .pmf import cdf_from_index, cdf_index, pmf_fft

#: Relative tolerance on the weight-constraint residual of returned witnesses.
CONSTRAINT_TOL = 1e-9

#: Per-step decay so the perturbation scale halves every 5 steps.
DEFAULT_DECAY = 0.5 ** 0.2


@dataclass(frozen=True)
class OptimizerConfig:
    """Tuning knobs for the tail search.

    ``n_r`` random exploration draws, then ``n_s`` perturbation steps whose
    scale starts at ``initial_scale`` and shrinks by ``decay`` per step.
    """

    n_r: int = 20
    n_s: int = 20
    seed: int = 42
    initial_scale: float = 0.25
    decay: float = DEFAULT_DECAY

    def __post_init__(self):
        if self.n_r < 1 or self.n_s < 0:
            raise InputError(f"n_r must be >= 1 and n_s >= 0, got {self.n_r}, {self.n_s}")
        if not 0 < self.initial_scale <= 1:
            raise InputError(f"initial_scale must lie in (0, 1], got {self.initial_scale}")
        if not 0 < self.decay < 1:
            raise InputError(f"decay must lie in (0, 1), got {self.decay}")
        if not 0 <= int(self.seed) < 2**64:
            raise InputError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class TailEvaluation:
    """Best CDF value found, the probability vector attaining it, and cost."""

    value: float
    witness: SimplexPoint
    evaluations: int


@per_problem
def _extreme_vertices(problem: Problem) -> tuple[SimplexPoint, SimplexPoint]:
    """The vertices minimising and maximising the weighted sum, in that order."""
    return tuple(
        SimplexPoint._wrap(tuple(np.eye(wb.size)[pick(wb)] for wb in problem.w_blocks_float()))
        for pick in (np.argmin, np.argmax)
    )


@per_problem
def _float_range(problem: Problem) -> tuple[float, float]:
    """The nearest floats to ``L_min`` and ``L_max``."""
    return float(problem.L_min), float(problem.L_max)


def sample_constrained(problem: Problem, L: float, rng: np.random.Generator) -> SimplexPoint:
    """Draw a feasible probability vector with weighted sum equal to L.

    A random interior point (normalized exponentials per block) is pulled
    along the segment toward the extreme vertex on the far side of L, which
    always crosses the target.  The draw is not uniform over the feasible
    set, which is acceptable for optimization purposes.
    """
    lo, hi = _float_range(problem)
    # A float strictly inside the nearest floats of the bounds is inside the
    # exact bounds too; anything else takes the exact Fraction comparison.
    inside = isinstance(L, float) and lo < L < hi
    if not inside and not problem.L_min <= L <= problem.L_max:
        raise InputError(
            f"target {L!r} outside attainable range [{problem.L_min}, {problem.L_max}]"
        )
    w_blocks = problem.w_blocks_float()
    q_blocks = [rng.exponential(size=e.m) for e in problem.experiments]
    q_blocks = [b / b.sum() for b in q_blocks]
    L0 = float(sum(b @ wb for b, wb in zip(q_blocks, w_blocks)))
    L = float(L)
    if math.isclose(L0, L, rel_tol=0.0, abs_tol=1e-15):
        return SimplexPoint._wrap(tuple(q_blocks))
    v_min, v_max = _extreme_vertices(problem)
    vertex = v_max if L0 < L else v_min
    Lv = float(sum(vb @ wb for vb, wb in zip(vertex.blocks, w_blocks)))
    t = (L - L0) / (Lv - L0)
    t = min(max(t, 0.0), 1.0)
    blocks = tuple((1 - t) * qb + t * vb for qb, vb in zip(q_blocks, vertex.blocks))
    return SimplexPoint._wrap(blocks)


@per_problem
def _null_space_basis(problem: Problem) -> np.ndarray:
    """Orthonormal basis of directions preserving block sums and the weighted sum."""
    m_total = sum(problem.block_lengths)
    rows = []
    pos = 0
    for e in problem.experiments:
        row = np.zeros(m_total)
        row[pos:pos + e.m] = 1.0
        rows.append(row)
        pos += e.m
    rows.append(problem.w_float())
    basis = scipy.linalg.null_space(np.vstack(rows))
    basis.setflags(write=False)
    return basis


def perturb(
    problem: Problem,
    p: SimplexPoint,
    scale: float,
    rng: np.random.Generator,
) -> tuple[SimplexPoint, bool]:
    """Random feasible step from p along the constraint null space.

    Returns the new point and whether a move was possible; the step length is
    ``scale`` times a random magnitude, truncated so no entry goes negative.
    When the null space is trivial (e.g. a single two-category experiment)
    the point is returned unchanged with a False flag.
    """
    basis = _null_space_basis(problem)
    if basis.shape[1] == 0:
        return p, False
    direction = basis @ rng.standard_normal(basis.shape[1])
    norm = np.linalg.norm(direction)
    if norm < 1e-300:
        return p, False
    direction /= norm
    if scale <= 0:
        return p, False
    flat = p.concat()
    negative = direction < 0
    if np.any(negative):
        s_max = np.min(flat[negative] / -direction[negative])
    else:  # cannot happen for a zero-block-sum direction, kept as a guard
        s_max = 1.0
    step = min(scale * abs(rng.standard_normal()), s_max)
    moved = flat + step * direction
    blocks, pos = [], 0
    for e in problem.experiments:
        blocks.append(moved[pos:pos + e.m])
        pos += e.m
    return SimplexPoint._wrap(tuple(blocks)), True


def constraint_residual(problem: Problem, p: SimplexPoint, L: float) -> float:
    return abs(p.dot_weights(problem) - float(L))


def _tail_search(
    problem: Problem,
    y_eval: Union[Fraction, float],
    L: float,
    cfg: OptimizerConfig,
    maximize: bool,
) -> TailEvaluation:
    rng = np.random.default_rng(np.random.SeedSequence(int(cfg.seed)))
    sign = 1.0 if maximize else -1.0
    y_idx = cdf_index(y_lattice(problem), y_eval)
    best_p = None
    best_v = -math.inf
    evaluations = 0
    for _ in range(cfg.n_r):
        cand = sample_constrained(problem, L, rng)
        v = sign * cdf_from_index(pmf_fft(problem, cand), y_idx)
        evaluations += 1
        if v > best_v:
            best_v, best_p = v, cand
    if best_p is None:  # unreachable: sampling is feasible by construction
        raise NumericalError("no feasible draw produced during exploration")
    scale = cfg.initial_scale
    for _ in range(cfg.n_s):
        cand, moved = perturb(problem, best_p, scale, rng)
        if moved:
            v = sign * cdf_from_index(pmf_fft(problem, cand), y_idx)
            evaluations += 1
            if v > best_v and constraint_residual(problem, cand, L) <= (
                CONSTRAINT_TOL * max(1.0, abs(L))
            ):
                best_v, best_p = v, cand
        scale *= cfg.decay
    return TailEvaluation(value=sign * best_v, witness=best_p, evaluations=evaluations)


def sup_cdf(
    problem: Problem,
    y: Union[Fraction, float],
    L: float,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> TailEvaluation:
    """Approximate supremum of P(Y <= y) over the slice with weighted sum L."""
    return _tail_search(problem, y, L, cfg, maximize=True)


def inf_cdf(
    problem: Problem,
    y_star: Union[Fraction, float],
    L: float,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> TailEvaluation:
    """Approximate infimum of P(Y <= y*) over the slice with weighted sum L.

    One minus this value is the upper-tail functional used by the lower
    interval bound.
    """
    return _tail_search(problem, y_star, L, cfg, maximize=False)
