"""Stochastic search for the CDF tail functionals on a weight-constrained slice.

The lower/upper interval bounds need the infimum and supremum of the
statistic's CDF over all probability vectors whose weighted sum equals a
target value.  This module approximates both with a two-phase search: a
batch of random feasible draws followed by annealing-style local
perturbations with geometrically decaying step size, accepting improvements
only.

Inside the search, points are rows of flat ``(B, M)`` arrays evaluated by
the batched CDF kernel (``pmf.cdf_values``); only the returned witness is a
``SimplexPoint``.  The draws form one batch and the perturbation steps are
evaluated speculatively in batches, with every result bit-identical to
evaluating each candidate on its own in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np
import scipy.linalg

from .errors import InputError, NumericalError
from .model import Problem, SimplexPoint, per_problem, y_lattice
# The search evaluates through ``cdf_values``; ``pmf_fft`` stays bound here
# because ``perfbench/tracing.py`` wraps ``optimizer.pmf_fft`` by name.
from .pmf import cdf_index, cdf_values, pmf_fft  # noqa: F401

#: Relative tolerance on the weight-constraint residual of returned witnesses.
CONSTRAINT_TOL = 1e-9

#: Perturbation scale of the first step.
INITIAL_SCALE = 0.25
#: Per-step decay so the perturbation scale halves every 5 steps.
DECAY = 0.5 ** 0.2


@dataclass(frozen=True)
class OptimizerConfig:
    """Tuning knobs for the tail search.

    ``n_r`` random exploration draws, then ``n_s`` perturbation steps whose
    scale starts at ``INITIAL_SCALE`` and shrinks by ``DECAY`` per step.
    """

    n_r: int = 20
    n_s: int = 20
    seed: int = 42

    def __post_init__(self):
        if self.n_r < 1 or self.n_s < 0:
            raise InputError(f"n_r must be >= 1 and n_s >= 0, got {self.n_r}, {self.n_s}")
        if not 0 <= int(self.seed) < 2**64:
            raise InputError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class TailEvaluation:
    """Best CDF value found, the probability vector attaining it, and cost."""

    value: float
    witness: SimplexPoint
    evaluations: int


@per_problem
def _vertex_targets(problem: Problem) -> tuple[tuple[np.ndarray, float], tuple[np.ndarray, float]]:
    """The vertices minimising and maximising the weighted sum, in that order.

    Each comes as its concatenated row and its weighted sum.
    """
    w_blocks = problem.w_blocks_float()
    targets = []
    for pick in (np.argmin, np.argmax):
        blocks = [np.eye(wb.size)[pick(wb)] for wb in w_blocks]
        row = np.concatenate(blocks)
        row.setflags(write=False)
        targets.append((row, float(sum(vb @ wb for vb, wb in zip(blocks, w_blocks)))))
    return tuple(targets)


@per_problem
def _float_range(problem: Problem) -> tuple[float, float]:
    """The nearest floats to ``L_min`` and ``L_max``."""
    return float(problem.L_min), float(problem.L_max)


def _as_point(problem: Problem, row: np.ndarray) -> SimplexPoint:
    """One concatenated feasible row as a ``SimplexPoint``."""
    return SimplexPoint._wrap(tuple(row[s] for s in problem.block_slices()))


def _sample_rows(problem: Problem, L: float, rng: np.random.Generator, rows: int) -> np.ndarray:
    """``rows`` draws of ``sample_constrained`` as one ``(rows, M)`` array.

    The exponentials come from one ``rng.exponential`` call, which yields
    the same values and leaves the generator in the same state as drawing
    them row by row and block by block.  Each row's weighted sum is a
    per-block dot product as for a single draw, so every row equals the
    corresponding sequential draw bit for bit.
    """
    lo, hi = _float_range(problem)
    # A float strictly inside the nearest floats of the bounds is inside the
    # exact bounds too; anything else takes the exact Fraction comparison.
    inside = isinstance(L, float) and lo < L < hi
    if not inside and not problem.L_min <= L <= problem.L_max:
        raise InputError(
            f"target {L!r} outside attainable range [{problem.L_min}, {problem.L_max}]"
        )
    L = float(L)
    q = rng.exponential(size=(rows, sum(problem.block_lengths)))
    q_blocks = [q[:, s] for s in problem.block_slices()]
    for b in q_blocks:
        b /= b.sum(axis=1, keepdims=True)
    w_blocks = problem.w_blocks_float()
    L0 = np.array([
        float(sum(b[i] @ wb for b, wb in zip(q_blocks, w_blocks))) for i in range(rows)
    ])
    (v_min, L_lo), (v_max, L_hi) = _vertex_targets(problem)
    up = L0 < L
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (L - L0) / (np.where(up, L_hi, L_lo) - L0)
    t = np.minimum(np.maximum(t, 0.0), 1.0)[:, None]
    blended = (1 - t) * q + t * np.where(up[:, None], v_max, v_min)
    # Draws already on target are kept as drawn.
    on_target = (np.abs(L0 - L) <= 1e-15)[:, None]
    return np.maximum(np.where(on_target, q, blended), 0.0)


def sample_constrained(problem: Problem, L: float, rng: np.random.Generator) -> SimplexPoint:
    """Draw a feasible probability vector with weighted sum equal to L.

    A random interior point (normalized exponentials per block) is pulled
    along the segment toward the extreme vertex on the far side of L, which
    always crosses the target.  The draw is not uniform over the feasible
    set, which is acceptable for optimization purposes.
    """
    return _as_point(problem, _sample_rows(problem, L, rng, 1)[0])


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


def _draw_step(
    basis: np.ndarray, scale: float, rng: np.random.Generator
) -> Optional[tuple[np.ndarray, float]]:
    """One step's unit direction and length before truncation; None if it cannot move.

    Consumes a direction, then a length only when a move is possible, so the
    random numbers a step uses never depend on whether the step is taken.
    """
    direction = basis @ rng.standard_normal(basis.shape[1])
    norm = np.linalg.norm(direction)
    if norm < 1e-300:
        return None
    direction /= norm
    if scale <= 0:
        return None
    return direction, scale * abs(rng.standard_normal())


def _steps_from(flat: np.ndarray, directions: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The point ``flat`` moved along each row of ``directions``, one row per step.

    Each length is truncated so that no entry goes negative.
    """
    negative = directions < 0
    ratios = np.divide(flat, -directions, out=np.full(directions.shape, np.inf), where=negative)
    # A zero-block-sum direction always has a negative entry; 1.0 is a guard.
    s_max = np.where(negative.any(axis=1), ratios.min(axis=1), 1.0)
    return np.maximum(flat + np.minimum(lengths, s_max)[:, None] * directions, 0.0)


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
    step = _draw_step(basis, scale, rng) if basis.shape[1] else None
    if step is None:
        return p, False
    direction, length = step
    moved = _steps_from(p.concat(), direction[None], np.array([length]))
    return _as_point(problem, moved[0]), True


def constraint_residual(problem: Problem, p: SimplexPoint, L: float) -> float:
    return abs(p.dot_weights(problem) - float(L))


def _tail_search(
    problem: Problem,
    y_eval: Union[Fraction, float],
    L: float,
    cfg: OptimizerConfig,
    maximize: bool,
) -> TailEvaluation:
    """Best signed CDF over ``n_r`` draws, then over ``n_s`` perturbation steps.

    The draws are one batch.  A step is taken when it improves on the best
    point and keeps the weight constraint; the random numbers each step
    consumes do not depend on that outcome, so all steps are drawn first.
    The remaining steps are then applied to the current best point and
    evaluated in kernel batches; at the first step taken, the steps after it
    are rebuilt from the new best.  Results, witnesses and the evaluation
    count (draws plus steps that can move) equal a step-by-step search.
    """
    rng = np.random.default_rng(np.random.SeedSequence(int(cfg.seed)))
    sign = 1.0 if maximize else -1.0
    y_idx = cdf_index(y_lattice(problem), y_eval)
    points = _sample_rows(problem, L, rng, cfg.n_r)
    best_i, best_v = None, -math.inf
    for i, cdf in enumerate(cdf_values(problem, points, y_idx)):
        v = sign * cdf
        if v > best_v:
            best_i, best_v = i, v
    if best_i is None:  # every value was NaN
        raise NumericalError("no feasible draw produced during exploration")
    best = points[best_i]

    basis = _null_space_basis(problem)
    steps = []
    scale = INITIAL_SCALE
    for _ in range(cfg.n_s if basis.shape[1] else 0):
        step = _draw_step(basis, scale, rng)
        if step is not None:
            steps.append(step)
        scale *= DECAY
    directions = np.array([direction for direction, _ in steps])
    lengths = np.array([length for _, length in steps])
    w, tol = problem.w_float(), CONSTRAINT_TOL * max(1.0, abs(L))
    start = 0
    while start < len(steps):
        cands = _steps_from(best, directions[start:], lengths[start:])
        for i, cdf in enumerate(cdf_values(problem, cands, y_idx)):
            v = sign * cdf
            if v > best_v and abs(float(np.dot(cands[i], w)) - float(L)) <= tol:
                best, best_v = cands[i], v
                start += i + 1
                break
        else:
            break
    return TailEvaluation(
        value=sign * best_v,
        witness=_as_point(problem, best),
        evaluations=cfg.n_r + len(steps),
    )


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
