"""Exact distribution of the plug-in statistic on its lattice.

Two routes to the same distribution: a transform method that multiplies the
discrete Fourier transforms of the single-trial weight contributions and
inverts with an inverse FFT, and a brute-force accumulation of joint
multinomial masses used as the reference oracle.

The pmf is real, so its spectrum is Hermitian: the transform route works on
the half spectrum (frequencies ``0 .. n_fft // 2``) and inverts with a real
inverse FFT, which halves the matrix products and powers.  Phase indices are
reduced modulo ``n_fft`` in exact integer arithmetic before scaling, so no
angle exceeds one turn; on the 19,153-point diagnostic lattice the CDF stays
within 3e-15 of the brute-force oracle.

The transform route is one batched kernel, ``_pmf_rows``, over a batch of
probability vectors; ``pmf_fft`` is its one-vector case.  Its per-block
products are stacked ``(B, 1, m) @ (m, T)`` products, so every row comes
out bit-identical to the same vector evaluated alone and callers may batch
freely.  ``_pmf_batches`` feeds the rows of a ``(B, M)`` array of vectors to
the kernel in batches of at most ``BATCH_ENTRIES`` spectrum entries;
``cdf_values`` reads one CDF value per vector from it, at a grid index of
its own, one batch at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Union

import numpy as np
import scipy.fft
from scipy.special import gammaln

from .errors import InputError, NumericalError
from .model import (
    Problem, SimplexPoint, YLattice, compositions, lattice_geometry, per_problem, simplex_point,
    y_lattice,
)

#: Magnitudes below this are treated as inverse-transform round-off and zeroed.
CLAMP_EPS = 1e-14
#: Maximum tolerated deviation of the total mass from 1 before erroring.
NORMALIZATION_TOL = 1e-9
#: Default cap on the joint outcome count for the brute-force route.
BRUTEFORCE_CAP = 10_000_000
#: Half-spectrum entries per kernel batch (``_batch_rows``); a batch holds
#: at least one row, so large lattices run one row at a time.
BATCH_ENTRIES = 2**14


@dataclass(frozen=True)
class LatticePmf:
    """Probability mass on the value lattice (index-aligned with the grid)."""

    lattice: YLattice
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (self.lattice.count,):
            raise InputError(
                f"pmf length {probs.shape} does not match lattice count {self.lattice.count}"
            )
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)


def _checked(problem: Problem, p: SimplexPoint) -> SimplexPoint:
    if len(p.blocks) != problem.K or any(
        b.size != e.m for b, e in zip(p.blocks, problem.experiments)
    ):
        return simplex_point(problem, p.blocks)  # raises with a precise message
    return p


def _normalised(probs: np.ndarray) -> np.ndarray:
    """Rows of ``probs`` checked, with round-off clamped, and scaled to sum 1.

    The check runs on the raw rows; an entry below ``CLAMP_EPS`` (negative
    round-off and -0.0 included) then becomes 0.0, in one pass.  NaN
    entries pass both and stay NaN.
    """
    if probs.min(initial=0.0) < -NORMALIZATION_TOL:
        raise NumericalError(
            f"pmf entry {probs.min():.3e} is negative beyond round-off tolerance"
        )
    probs = np.where(probs < CLAMP_EPS, 0.0, probs)
    totals = probs.sum(axis=1)
    drifting = np.flatnonzero(np.abs(totals - 1.0) > NORMALIZATION_TOL)
    if drifting.size:
        raise NumericalError(
            f"pmf normalization drift {totals[drifting[0]] - 1.0:.3e} exceeds "
            f"{NORMALIZATION_TOL:g} (support too large or precision loss)"
        )
    return probs / totals[:, None]


@per_problem
def _phase_matrices(problem: Problem) -> tuple[int, tuple[np.ndarray, ...]]:
    """Per-block single-trial transform bases over the half spectrum.

    Row ``j`` of block ``k`` holds ``exp(-2*pi*i*o*t/n_fft)`` for
    ``t = 0 .. n_fft // 2``, where ``o = offsets[k][j]``.  The product ``o*t``
    is reduced modulo ``n_fft`` in int64 first, so the angle passed to ``exp``
    stays within one turn.
    """
    geom = lattice_geometry(problem)
    n_fft = scipy.fft.next_fast_len(geom.lattice.count, real=True)
    t = np.arange(n_fft // 2 + 1, dtype=np.int64)
    mats = []
    for offs in geom.offsets:
        phase = np.outer(np.asarray(offs, dtype=np.int64), t) % n_fft
        m = np.exp((-2j * np.pi / n_fft) * phase)
        m.setflags(write=False)
        mats.append(m)
    return n_fft, tuple(mats)


def _power_inplace(z: np.ndarray, n: int) -> np.ndarray:
    """``z ** n`` for an integer ``n >= 1`` by repeated squaring.

    Overwrites ``z``, which must be a fresh array the caller owns.  At most
    ``2 * log2(n)`` in-place multiplications; several times faster than
    NumPy's complex ``**`` loop on long arrays.
    """
    acc = None
    while True:
        if n & 1:
            if acc is None:
                acc = z.copy() if n > 1 else z
            else:
                acc *= z
        n >>= 1
        if not n:
            return acc
        np.multiply(z, z, out=z)


def _pmf_rows(problem: Problem, blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Normalised pmf rows ``(B, count)`` for per-block ``(B, m_k)`` probabilities.

    Each trial of experiment k contributes one of the integer grid offsets
    ``geom.offsets[k]`` with the block's probabilities, so the transform of
    the full statistic is the product over experiments of the per-trial
    transform raised to the trial count.  Only the half spectrum is formed,
    since the pmf is real, and a real inverse FFT recovers it; padding to a
    fast length is safe because the support is finite.

    Each block's product is one stacked ``(B, 1, m) @ (m, T)`` product,
    which runs the vector-matrix BLAS routine of a lone ``q @ mat`` on each
    row (a flat ``(B, m) @ (m, T)`` product rounds differently in the last
    bit); the powers, the product over blocks, the inverse FFT and the
    normalisation are elementwise or per row, so every row equals the same
    vector evaluated alone.
    """
    count = y_lattice(problem).count
    if count == 1:
        return np.ones((len(blocks[0]), 1))
    n_fft, mats = _phase_matrices(problem)
    transform = None
    for block, mat, e in zip(blocks, mats, problem.experiments):
        # A fresh product, so the memoized matrix is never written.
        power = _power_inplace(np.matmul(block[:, None, :], mat)[:, 0, :], e.n)
        if transform is None:
            transform = power
        else:
            transform *= power
    return _normalised(scipy.fft.irfft(transform, n_fft, axis=-1)[:, :count])


def pmf_fft(problem: Problem, p: SimplexPoint) -> LatticePmf:
    """Exact lattice pmf via products of single-trial transforms (see ``_pmf_rows``)."""
    p = _checked(problem, p)
    rows = _pmf_rows(problem, [b[None] for b in p.blocks])
    return LatticePmf(lattice=y_lattice(problem), probs=rows[0])


def _batch_rows(problem: Problem) -> int:
    """Rows per kernel batch: ``BATCH_ENTRIES // (n_fft // 2 + 1)``, at least one."""
    return max(1, BATCH_ENTRIES // (_phase_matrices(problem)[0] // 2 + 1))


def _pmf_batches(problem: Problem, points: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each kernel batch of the ``(B, M)`` rows ``points`` as ``(rows, pmf rows)``, lazily.

    Batches come in row order and hold ``BATCH_ENTRIES // (n_fft // 2 + 1)``
    rows (at least one), so a caller that stops early evaluates no later batch.
    """
    size = _batch_rows(problem)
    for i in range(0, len(points), size):
        rows = points[i:i + size]
        yield rows, _pmf_rows(problem, [rows[:, s] for s in problem.block_slices()])


def cdf_values(
    problem: Problem, points: np.ndarray, idx: Union[int, np.ndarray]
) -> Iterator[np.ndarray]:
    """The CDF values of each kernel batch of ``points``, one array per batch, lazily.

    ``points`` holds one concatenated probability vector per row, ``(B, M)``,
    evaluated by ``_pmf_batches``.  ``idx`` is the grid index to read, one
    for every row or one per row.  Below the lattice the value is 0 and at
    its top 1, as in ``cdf_from_index``.  Rows that share an index and lie
    next to each other are summed in one call.
    """
    count = y_lattice(problem).count
    idx = np.broadcast_to(idx, (len(points),))
    pos = 0
    for _, rows in _pmf_batches(problem, points):
        at = idx[pos:pos + len(rows)]
        pos += len(rows)
        cuts = [0, *(np.flatnonzero(at[1:] != at[:-1]) + 1).tolist(), len(rows)]
        values = np.empty(len(rows))
        for a, b in zip(cuts, cuts[1:]):
            k = int(at[a])
            values[a:b] = 0.0 if k < 0 else 1.0 if k >= count - 1 else rows[a:b, :k + 1].sum(axis=1)
        del rows  # so no batch is held while the next one is computed
        yield values


def _block_outcomes(e_n: int, e_m: int, offs: tuple[int, ...]):
    comps = compositions(e_n, e_m)
    log_coef = gammaln(e_n + 1) - gammaln(comps + 1).sum(axis=1)
    idx = comps @ np.asarray(offs, dtype=np.int64)
    return comps, log_coef, idx


def joint_outcome_count(problem: Problem) -> int:
    total = 1
    for e in problem.experiments:
        total *= math.comb(e.n + e.m - 1, e.m - 1)
    return total


def pmf_bruteforce(problem: Problem, p: SimplexPoint, cap: int = BRUTEFORCE_CAP) -> LatticePmf:
    """Reference pmf: accumulate every joint multinomial mass into its bin.

    Outcomes are enumerated block by block; the joint mass of an outcome is
    the product of its per-block multinomial masses, scattered onto the grid
    index it induces.  Intended as the oracle for the transform route.
    """
    p = _checked(problem, p)
    if joint_outcome_count(problem) > cap:
        raise InputError(
            f"joint outcome count {joint_outcome_count(problem)} exceeds cap {cap}"
        )
    geom = lattice_geometry(problem)
    count = geom.lattice.count
    dist = np.zeros(count)
    dist[0] = 1.0
    for block, offs, e in zip(p.blocks, geom.offsets, problem.experiments):
        comps, log_coef, idx = _block_outcomes(e.n, e.m, offs)
        # 0**0 == 1 handles zero-probability categories with zero counts.
        masses = np.exp(log_coef) * np.prod(block ** comps, axis=1)
        carrying = np.flatnonzero(dist)
        joint_idx = (carrying[:, None] + idx[None, :]).ravel()
        joint_mass = (dist[carrying, None] * masses[None, :]).ravel()
        dist = np.bincount(joint_idx, weights=joint_mass, minlength=count)
    return LatticePmf(lattice=geom.lattice, probs=_normalised(dist[None])[0])


def cdf_index(lattice: YLattice, y: Union[Fraction, int, float]) -> int:
    """Largest grid index at or below y (with a step-relative slack).

    Returns -1 below the origin; values at or beyond the top clamp to the
    last index.  Computed in exact rational arithmetic so grid-boundary
    queries never fall on the wrong side.
    """
    rel = (Fraction(y) - lattice.origin) / lattice.step
    idx = math.floor(rel + Fraction(1, 10**12))
    return max(-1, min(idx, lattice.count - 1))


def cdf_from_index(pmf: LatticePmf, idx: int) -> float:
    if idx < 0:
        return 0.0
    if idx >= pmf.lattice.count - 1:
        return 1.0
    return float(pmf.probs[: idx + 1].sum())


def cdf_at(pmf: LatticePmf, y: Union[Fraction, int, float]) -> float:
    """P(statistic <= y), with a step-relative slack for grid-edge queries."""
    return cdf_from_index(pmf, cdf_index(pmf.lattice, y))
