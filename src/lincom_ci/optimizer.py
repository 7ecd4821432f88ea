"""Stochastic search for the CDF tail functionals on a weight-constrained slice.

The lower/upper interval bounds need the infimum and supremum of the
statistic's CDF over all probability vectors whose weighted sum equals a
target value.  This module approximates both with a two-phase search: a
batch of random feasible draws followed by annealing-style local
perturbations with geometrically decaying step size, accepting improvements
only.

Inside the search, points are rows of flat ``(B, M)`` arrays evaluated by
the batched CDF kernel (``pmf.cdf_values``); only the returned witness is a
``SimplexPoint``.  ``_tail_searches`` runs many searches at once, each with
its own grid index, target and seed: the draws of all of them form one
batch, and each round evaluates every unfinished search's remaining
perturbation steps speculatively, packed into shared kernel batches.  A
seed's draws do not depend on the target, so they are made once per seed
and reused.  Every result is bit-identical to evaluating each candidate of
each search on its own, in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np
import scipy.linalg

from .errors import InputError, NumericalError
from .model import Problem, SimplexPoint, check_target, per_problem, y_lattice
# The search evaluates through ``cdf_values``; ``pmf_fft`` stays bound here
# because ``perfbench/tracing.py`` wraps ``optimizer.pmf_fft`` by name.
from .pmf import _batch_rows, cdf_index, cdf_values, pmf_fft  # noqa: F401

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


def _as_point(problem: Problem, row: np.ndarray) -> SimplexPoint:
    """One concatenated feasible row as a ``SimplexPoint``."""
    return SimplexPoint._wrap(tuple(row[s] for s in problem.block_slices()))


def _sample_rows(
    problem: Problem, L: Union[Fraction, float, np.ndarray], q: np.ndarray
) -> np.ndarray:
    """``sample_constrained`` draws, one per row of the ``(B, M)`` exponentials ``q``.

    ``L`` is the target of every row, checked here, or a float array of one
    target per row, each already checked by the caller with ``check_target``.
    ``q`` is overwritten.  One ``rng.exponential(size=(B, M))`` call gives
    the values, and leaves the generator in the state, of ``B`` draws made
    one after another.  Each row's weighted sum is a per-block dot product
    as for a single draw, and the rest is elementwise, so every row equals
    that draw bit for bit.
    """
    if np.ndim(L) == 0:
        check_target(problem, L)
        L = float(L)
    q_blocks = [q[:, s] for s in problem.block_slices()]
    for b in q_blocks:
        b /= b.sum(axis=1, keepdims=True)
    # One dot product per row and block, added from 0 as ``sum`` adds them.
    L0 = np.zeros(len(q))
    for b, wb in zip(q_blocks, problem.w_blocks_float()):
        L0 += np.matmul(b[:, None, :], wb)[:, 0]
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
    q = rng.exponential(size=(1, sum(problem.block_lengths)))
    return _as_point(problem, _sample_rows(problem, L, q)[0])


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


def _draw_steps(
    basis: np.ndarray, scales: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions and lengths before truncation of the steps that can move.

    ``scales`` holds one scale per step, positive ones first.  Each step
    uses ``k`` normals for its direction in the ``k``-dimensional null space
    and, if its scale is positive, one more for its length, all from one
    ``rng.standard_normal`` call, as drawing step by step would.  A direction
    of norm below 1e-300 (all ``k`` normals 0.0) cannot move but still uses
    up its length draw.  Each step equals one drawn alone bit for bit.
    """
    k = basis.shape[1]
    if not k:
        return np.empty((0, basis.shape[0])), np.empty(0)
    n_move = int(np.count_nonzero(scales > 0))
    normals = rng.standard_normal(len(scales) * k + n_move)
    g = normals[:n_move * (k + 1)].reshape(n_move, k + 1)
    directions = np.matmul(basis, g[:, :k, None])[:, :, 0]
    norms = np.sqrt(np.matmul(directions[:, None, :], directions[:, :, None])[:, 0, 0])
    keep = norms >= 1e-300
    lengths = scales[:n_move] * np.abs(g[:, k])
    return directions[keep] / norms[keep, None], lengths[keep]


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
    directions, lengths = _draw_steps(_null_space_basis(problem), np.array([float(scale)]), rng)
    if not len(directions):
        return p, False
    return _as_point(problem, _steps_from(p.concat(), directions, lengths)[0]), True


#: One tail search: (CDF grid index, target L, maximise, optimizer seed).
SearchRequest = tuple[int, Union[Fraction, float], bool, int]
#: Per optimizer seed: the exploration exponentials and the steps' unit
#: directions and lengths.  They depend on the seed alone, not on L.
SeedDraws = dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]


def _seed_draws(
    problem: Problem, seed: int, cfg: OptimizerConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One seed's draws, in the order a search makes them: exponentials, then steps."""
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    q = rng.exponential(size=(cfg.n_r, sum(problem.block_lengths)))
    # Each scale is the previous one times DECAY, rounded step by step.
    scales = np.multiply.accumulate([INITIAL_SCALE] + [DECAY] * cfg.n_s)[:cfg.n_s]
    draws = (q, *_draw_steps(_null_space_basis(problem), scales, rng))
    for a in draws:
        a.setflags(write=False)
    return draws


@dataclass
class _Search:
    """One search of a batch: its request, its steps and its best point so far."""

    idx: int
    L: float
    sign: float
    tol: float
    directions: np.ndarray
    lengths: np.ndarray
    best: Optional[np.ndarray] = None
    best_v: float = -math.inf
    start: int = 0

    def take_step(self, cands: np.ndarray, values: np.ndarray, offset: int, w: np.ndarray) -> bool:
        """Take the first of ``cands`` that improves and keeps the constraint.

        ``cands`` are this search's steps ``start + offset`` onward, with
        their CDF ``values``; returns whether a step was taken.
        """
        v = self.sign * values
        for i in np.flatnonzero(v > self.best_v).tolist():
            if abs(float(np.dot(cands[i], w)) - self.L) <= self.tol:
                self.best, self.best_v = cands[i], float(v[i])
                self.start += offset + i + 1
                return True
        return False


def _take_steps(
    problem: Problem, cands: np.ndarray, group: list[tuple[_Search, int, int]]
) -> list[_Search]:
    """Evaluate the candidate rows ``cands[a:b]`` of each ``(search, a, b)`` of ``group``.

    A group is whole candidate lists that fill at most one kernel batch, or
    one longer list, read lazily batch by batch until a step is taken.
    Returns the searches that took a step.
    """
    w = problem.w_float()
    first, last = group[0][1], group[-1][2]
    idx = np.repeat([s.idx for s, _, _ in group], [b - a for _, a, b in group])
    moved, pos = [], first
    for values in cdf_values(problem, cands[first:last], idx):
        end = pos + len(values)
        for s, a, b in group:
            lo, hi = max(a, pos), min(b, end)
            if lo < hi and s.take_step(cands[lo:hi], values[lo - pos:hi - pos], lo - a, w):
                moved.append(s)
        pos = end
        if moved:  # a group that spans batches is one list
            break
    return moved


def _tail_searches(
    problem: Problem,
    requests: Sequence[SearchRequest],
    cfg: OptimizerConfig,
    draws: SeedDraws,
) -> list[TailEvaluation]:
    """Best signed CDF for each request over ``n_r`` draws, then ``n_s`` steps.

    ``cfg`` gives ``n_r`` and ``n_s``; each request brings its own seed, and
    its draws are looked up in, or added to, ``draws``.  Every request's
    exploration draws come from one ``_sample_rows`` call and are read one
    kernel batch at a time.  A step is taken when it improves on the best
    point and keeps the weight constraint; the random numbers each step
    consumes do not depend on that outcome, so all steps are drawn first.
    Each round applies every unfinished search's remaining steps to its
    best point in one call and packs the lists whole into kernel batches of
    at most ``pmf.BATCH_ENTRIES`` entries; a list longer than a batch is
    read lazily.  A search takes its first qualifying step of the round and
    rebuilds the steps after it from the new best in the next round.
    Results, witnesses and evaluation counts (draws plus steps that can
    move) equal a step-by-step search of each request on its own.
    """
    searches = []
    for idx, L, maximize, seed in requests:
        check_target(problem, L)
        if seed not in draws:
            draws[seed] = _seed_draws(problem, seed, cfg)
        L = float(L)
        searches.append(_Search(idx, L, 1.0 if maximize else -1.0,
                                CONSTRAINT_TOL * max(1.0, abs(L)), *draws[seed][1:]))

    n_r = cfg.n_r
    points = _sample_rows(problem, np.repeat([s.L for s in searches], n_r),
                          np.concatenate([draws[seed][0] for *_, seed in requests]))
    cdfs = np.concatenate(list(
        cdf_values(problem, points, np.repeat([s.idx for s in searches], n_r))
    ))
    signed = cdfs.reshape(len(searches), n_r) * np.array([s.sign for s in searches])[:, None]
    if np.isnan(signed).all(axis=1).any():
        raise NumericalError("no feasible draw produced during exploration")
    for r, (s, i) in enumerate(zip(searches, np.nanargmax(signed, axis=1).tolist())):
        s.best, s.best_v = points[r * n_r + i], float(signed[r, i])

    size = _batch_rows(problem)
    active = [s for s in searches if len(s.lengths)]
    while active:
        counts = [len(s.lengths) - s.start for s in active]
        cands = _steps_from(
            np.repeat(np.array([s.best for s in active]), counts, axis=0),
            np.concatenate([s.directions[s.start:] for s in active]),
            np.concatenate([s.lengths[s.start:] for s in active]),
        )
        ends = np.cumsum(counts).tolist()
        moved, group = [], []
        for s, a, b in zip(active, [0, *ends], ends):
            if group and b - group[0][1] > size:
                moved += _take_steps(problem, cands, group)
                group = []
            group.append((s, a, b))
        moved += _take_steps(problem, cands, group)
        active = [s for s in moved if s.start < len(s.lengths)]
    return [
        TailEvaluation(
            value=s.sign * s.best_v,
            witness=_as_point(problem, s.best),
            evaluations=n_r + len(s.lengths),
        )
        for s in searches
    ]


def _tail_search(
    problem: Problem,
    y_idx: int,
    L: Union[Fraction, float],
    cfg: OptimizerConfig,
    maximize: bool,
) -> TailEvaluation:
    """One search (see ``_tail_searches``) with the seed of ``cfg``."""
    return _tail_searches(problem, [(y_idx, L, maximize, cfg.seed)], cfg, {})[0]


def sup_cdf(
    problem: Problem,
    y: Union[Fraction, float],
    L: float,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> TailEvaluation:
    """Approximate supremum of P(Y <= y) over the slice with weighted sum L."""
    return _tail_search(problem, cdf_index(y_lattice(problem), y), L, cfg, maximize=True)


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
    return _tail_search(problem, cdf_index(y_lattice(problem), y_star), L, cfg, maximize=False)
