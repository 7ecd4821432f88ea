"""Step-by-step reference for the batched tail search, kernel, sampler and coverage.

These are the one-vector routines the batched code replaced, kept verbatim
in their arithmetic: one ``sample_constrained`` draw, one ``perturb`` step
and one ``pmf_fft`` call per candidate, one CDF read per pmf, and one
``coverage_at_p`` call per coverage cell.  The batched code must reproduce
them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.fft

from lincom_ci.errors import InputError, NumericalError
from lincom_ci.model import SimplexPoint, lattice_geometry, y_lattice
from lincom_ci.coverage import _cell_rng, coverage_at_p
from lincom_ci.optimizer import (
    CONSTRAINT_TOL, DECAY, INITIAL_SCALE, TailEvaluation, _null_space_basis,
)
from lincom_ci.pmf import (
    CLAMP_EPS, NORMALIZATION_TOL, _phase_matrices, _power_inplace, cdf_index,
)


def pmf_probs(problem, blocks) -> np.ndarray:
    """One vector's normalised pmf, as the one-vector kernel computed it."""
    count = lattice_geometry(problem).lattice.count
    if count == 1:
        return np.ones(1)
    n_fft, mats = _phase_matrices(problem)
    transform = None
    for block, mat, e in zip(blocks, mats, problem.experiments):
        power = _power_inplace(block @ mat, e.n)
        if transform is None:
            transform = power
        else:
            transform *= power
    probs = scipy.fft.irfft(transform, n_fft)[:count]
    probs = np.where(np.abs(probs) < CLAMP_EPS, 0.0, probs)
    if probs.min(initial=0.0) < -NORMALIZATION_TOL:
        raise NumericalError("negative pmf entry")
    probs = np.maximum(probs, 0.0)
    total = probs.sum()
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise NumericalError("pmf normalization drift")
    return probs / total


def cdf(problem, blocks, idx: int) -> float:
    if idx < 0:
        return 0.0
    if idx >= y_lattice(problem).count - 1:
        return 1.0
    return float(pmf_probs(problem, blocks)[: idx + 1].sum())


def _vertex(problem, pick) -> SimplexPoint:
    return SimplexPoint._wrap(tuple(np.eye(wb.size)[pick(wb)] for wb in problem.w_blocks_float()))


def sample_constrained(problem, L, rng) -> SimplexPoint:
    if not problem.L_min <= L <= problem.L_max:
        raise InputError(f"target {L!r} outside attainable range")
    w_blocks = problem.w_blocks_float()
    q_blocks = [rng.exponential(size=e.m) for e in problem.experiments]
    q_blocks = [b / b.sum() for b in q_blocks]
    L0 = float(sum(b @ wb for b, wb in zip(q_blocks, w_blocks)))
    L = float(L)
    if math.isclose(L0, L, rel_tol=0.0, abs_tol=1e-15):
        return SimplexPoint._wrap(tuple(q_blocks))
    vertex = _vertex(problem, np.argmax if L0 < L else np.argmin)
    Lv = float(sum(vb @ wb for vb, wb in zip(vertex.blocks, w_blocks)))
    t = (L - L0) / (Lv - L0)
    t = min(max(t, 0.0), 1.0)
    return SimplexPoint._wrap(tuple((1 - t) * qb + t * vb for qb, vb in zip(q_blocks, vertex.blocks)))


def perturb(problem, p, scale, rng) -> tuple[SimplexPoint, bool]:
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
    s_max = np.min(flat[negative] / -direction[negative]) if np.any(negative) else 1.0
    step = min(scale * abs(rng.standard_normal()), s_max)
    moved = flat + step * direction
    blocks, pos = [], 0
    for e in problem.experiments:
        blocks.append(moved[pos:pos + e.m])
        pos += e.m
    return SimplexPoint._wrap(tuple(blocks)), True


def tail_search(problem, y_eval, L, cfg, maximize: bool) -> TailEvaluation:
    """The sequential search: evaluate every candidate on its own, in order."""
    rng = np.random.default_rng(np.random.SeedSequence(int(cfg.seed)))
    sign = 1.0 if maximize else -1.0
    y_idx = cdf_index(y_lattice(problem), y_eval)
    best_p, best_v, evaluations = None, -math.inf, 0
    for _ in range(cfg.n_r):
        cand = sample_constrained(problem, L, rng)
        v = sign * cdf(problem, cand.blocks, y_idx)
        evaluations += 1
        if v > best_v:
            best_v, best_p = v, cand
    scale = INITIAL_SCALE
    for _ in range(cfg.n_s):
        cand, moved = perturb(problem, best_p, scale, rng)
        if moved:
            v = sign * cdf(problem, cand.blocks, y_idx)
            evaluations += 1
            residual = abs(float(np.dot(cand.concat(), problem.w_float())) - float(L))
            if v > best_v and residual <= CONSTRAINT_TOL * max(1.0, abs(L)):
                best_v, best_p = v, cand
        scale *= DECAY
    return TailEvaluation(value=sign * best_v, witness=best_p, evaluations=evaluations)


def coverage_sweep(problem, table, n_L: int, n_p: int, seed: int):
    """The per-cell exact sweep: ``(per-grid-point coverage, average, minimum)``.

    Cell (l_idx, p_idx) draws one vector from its own ``_cell_rng`` stream
    and scores it alone with ``coverage_at_p``; each grid point's cells are
    summed in order and divided by ``n_p``.
    """
    lo, hi = float(problem.L_min), float(problem.L_max)
    grid = np.array([0.5 * (lo + hi)]) if n_L == 1 else np.linspace(lo, hi, n_L)
    per_L, minimum = np.empty(n_L), 1.0
    for l_idx, L in enumerate(grid):
        acc = 0.0
        for p_idx in range(n_p):
            p = sample_constrained(problem, float(L), _cell_rng(seed, l_idx, p_idx))
            c = coverage_at_p(problem, p, table)
            acc += c
            minimum = min(minimum, c)
        per_L[l_idx] = acc / n_p
    return per_L, float(per_L.mean()), minimum
