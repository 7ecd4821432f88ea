"""Stochastic search for the CDF tail functionals on a weight-constrained slice.

The lower/upper interval bounds need the infimum and supremum of the
statistic's CDF over all probability vectors whose weighted sum equals a
target value.  This module approximates both with a two-phase search: a
batch of random feasible draws followed by annealing-style local
perturbations with geometrically decaying step size, accepting improvements
only.

Inside the search, points are rows of flat ``(B, M)`` arrays evaluated by
the batched CDF read (``pmf.cdf_values``).  ``_search_batch`` runs many
searches at once, each with its own grid index, target and seed, and
returns their best values and rows as arrays; the root solves read only the
values, and ``_tail_searches`` wraps each result as a ``TailEvaluation``
with a ``SimplexPoint`` witness.  The draws of all searches are read
together, and then each round reads the next few live perturbation steps
of every unfinished search, as many as share one kernel batch, in one
call.  A step truncated to length 0 rebuilds its search's best point, whose
value is already known, so it is not read.  A seed's draws do not depend on
the target, so they are made once per seed and reused.
Every result is bit-identical to evaluating each candidate of each search
on its own, in order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

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
        for name in ("n_r", "n_s", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InputError(f"{name} must be an integer, got {value!r}")
        if self.n_r < 1 or self.n_s < 0:
            raise InputError(f"n_r must be >= 1 and n_s >= 0, got {self.n_r}, {self.n_s}")
        if not 0 <= int(self.seed) < 2**64:
            raise InputError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class TailEvaluation:
    """Best CDF value found, the probability vector attaining it, and cost.

    ``evaluations`` counts what the step-by-step search evaluates: the
    ``n_r`` draws plus the steps that can move.  The batched search does
    not read steps truncated to length 0, so it reads fewer rows than that
    unless the steps it reads past a taken one, which it throws away, make
    up the difference.
    """

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
    """Orthonormal basis of directions preserving block sums and the weighted sum.

    The basis is the right singular vectors of the constraint matrix A past
    its rank, where the rank counts the singular values above
    max(s) * eps * max(A.shape) (scipy's ``null_space`` rule).  It is sliced
    from ``vh`` copied to Fortran order, which gives it the strides of the
    LAPACK output scipy slices: the values sliced from numpy's C-ordered
    ``vh`` are equal, but the matmul in ``_draw_steps`` rounds differently
    on that layout, which would move every table.
    """
    m_total = sum(problem.block_lengths)
    rows = []
    pos = 0
    for e in problem.experiments:
        row = np.zeros(m_total)
        row[pos:pos + e.m] = 1.0
        rows.append(row)
        pos += e.m
    rows.append(problem.w_float())
    a = np.vstack(rows)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    tol = s.max() * (np.finfo(float).eps * max(a.shape))
    basis = np.asfortranarray(vh)[np.count_nonzero(s > tol):].T
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


def _truncated(flat: np.ndarray, directions: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each step's length from ``flat``, truncated so that no entry goes negative.

    ``flat`` is one point or one point per step.  A step truncated to 0 is
    dead: it leaves the point where it is.
    """
    negative = directions < 0
    ratios = np.divide(flat, -directions, out=np.full(directions.shape, np.inf), where=negative)
    # A zero-block-sum direction always has a negative entry; 1.0 is a guard.
    s_max = np.where(negative.any(axis=1), ratios.min(axis=1), 1.0)
    return np.minimum(lengths, s_max)


def _steps_from(flat: np.ndarray, directions: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The point ``flat`` moved along each row of ``directions`` by its truncated length."""
    return np.maximum(flat + lengths[:, None] * directions, 0.0)


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
    the point is returned unchanged with a False flag.  ``scale`` must be a
    real number (not a bool) other than NaN; otherwise ``InputError`` is
    raised before any draw.
    """
    if isinstance(scale, bool) or not isinstance(scale, numbers.Real) or math.isnan(scale):
        raise InputError(f"scale must be a real number other than NaN, got {scale!r}")
    directions, lengths = _draw_steps(_null_space_basis(problem), np.array([float(scale)]), rng)
    if not len(directions):
        return p, False
    flat = p.concat()
    moved = _steps_from(flat, directions, _truncated(flat, directions, lengths))
    return _as_point(problem, moved[0]), True


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

    def improve(self, cands: np.ndarray, values: np.ndarray, w: np.ndarray) -> Optional[int]:
        """Take the first of ``cands`` that improves and keeps the constraint.

        ``cands`` are some of this search's next steps, with their CDF
        ``values``.  Returns the index of the step taken, or None.
        """
        v = self.sign * values
        for i in np.flatnonzero(v > self.best_v).tolist():
            if abs(float(np.dot(cands[i], w)) - self.L) <= self.tol:
                self.best, self.best_v = cands[i], float(v[i])
                return i
        return None


def _search_batch(
    problem: Problem,
    requests: Sequence[SearchRequest],
    cfg: OptimizerConfig,
    draws: SeedDraws,
) -> tuple[np.ndarray, np.ndarray]:
    """Best signed CDF for each request over ``n_r`` draws, then ``n_s`` steps.

    Returns each request's best CDF value and the ``(R, M)`` rows attaining
    them; ``_tail_searches`` wraps them as ``TailEvaluation``s.

    ``cfg`` gives ``n_r`` and ``n_s``; each request brings its own seed, and
    its draws are looked up in, or added to, ``draws``.  Every request's
    exploration draws come from one ``_sample_rows`` call and one
    ``cdf_values`` read.  A step is taken when it improves on
    the best point and keeps the weight constraint; the random numbers each
    step consumes do not depend on that outcome, so all steps are drawn
    first.  A step whose length truncates to 0 is dead: it rebuilds the best
    point, whose value can never beat itself, so it is skipped unread.

    In each round every unfinished search reads its next
    ``k = max(1, _batch_rows // unfinished)`` live steps, so the round fills
    about one kernel batch.  It looks for them among its next
    ``max(1, max(_batch_rows, n_s) // unfinished)`` steps, so a round
    examines about one batch of steps, or ``n_s`` when batches are smaller.
    The truncated lengths of all examined steps come from one pass from
    their searches' best points, and the live steps read are built and read
    by one ``cdf_values`` call.  Each search takes its first qualifying
    step; if none qualifies it moves past the last step it read, or past its
    whole window if it read fewer than ``k``.  It builds its later steps
    from its best point in the next round.  Each row reads the same in any
    batch, so results and witnesses equal a step-by-step search of each
    request on its own.
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
    cdfs = cdf_values(problem, points, np.repeat([s.idx for s in searches], n_r))
    signed = cdfs.reshape(len(searches), n_r) * np.array([s.sign for s in searches])[:, None]
    if np.isnan(signed).all(axis=1).any():
        raise NumericalError("no feasible draw produced during exploration")
    for r, (s, i) in enumerate(zip(searches, np.nanargmax(signed, axis=1).tolist())):
        s.best, s.best_v = points[r * n_r + i], float(signed[r, i])

    size, w = _batch_rows(problem), problem.w_float()
    active = [s for s in searches if len(s.lengths)]
    while active:
        k = max(1, size // len(active))
        span = max(1, max(size, cfg.n_s) // len(active))
        counts = np.array([min(span, len(s.lengths) - s.start) for s in active])
        ends = counts.cumsum()
        firsts = ends - counts
        flat = np.repeat(np.array([s.best for s in active]), counts, axis=0)
        directions = np.concatenate([s.directions[s.start:s.start + span] for s in active])
        lengths = _truncated(flat, directions, np.concatenate(
            [s.lengths[s.start:s.start + span] for s in active]))
        read = lengths > 0
        if span > k:
            # A window may hold more than k live steps: read the first k.
            ranks = np.cumsum(read)
            read &= ranks - np.repeat(ranks[firsts] - read[firsts], counts) <= k
        rows = np.flatnonzero(read)
        cands = _steps_from(flat, directions, lengths)[rows]
        values = np.empty(0)
        if len(rows):
            values = cdf_values(problem, cands, np.repeat([s.idx for s in active], counts)[rows])
        at = rows.tolist()
        cuts = np.searchsorted(rows, ends).tolist()
        windows = zip(firsts.tolist(), counts.tolist())
        for s, a, b, (first, count) in zip(active, [0, *cuts], cuts, windows):
            i = s.improve(cands[a:b], values[a:b], w)
            # Past the step taken; else past the last step read if k were read,
            # since later ones may be live, or else past the whole window.
            if i is None and b - a < k:
                s.start += count
            else:
                s.start += at[b - 1 if i is None else a + i] - first + 1
        active = [s for s in active if s.start < len(s.lengths)]
    return np.array([s.sign * s.best_v for s in searches]), np.array([s.best for s in searches])


def _tail_searches(
    problem: Problem,
    requests: Sequence[SearchRequest],
    cfg: OptimizerConfig,
    draws: SeedDraws,
) -> list[TailEvaluation]:
    """``_search_batch`` with each result, witness and evaluation count as a ``TailEvaluation``.

    The count is the draws plus the steps that can move.
    """
    values, rows = _search_batch(problem, requests, cfg, draws)
    return [
        TailEvaluation(
            value=value,
            witness=_as_point(problem, row),
            evaluations=cfg.n_r + len(draws[seed][2]),
        )
        for value, row, (*_, seed) in zip(values.tolist(), rows, requests)
    ]


def sup_cdf(
    problem: Problem,
    y: Union[Fraction, float],
    L: float,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> TailEvaluation:
    """Approximate supremum of P(Y <= y) over the slice with weighted sum L."""
    idx = cdf_index(y_lattice(problem), y)
    return _tail_searches(problem, [(idx, L, True, cfg.seed)], cfg, {})[0]


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
    idx = cdf_index(y_lattice(problem), y_star)
    return _tail_searches(problem, [(idx, L, False, cfg.seed)], cfg, {})[0]
