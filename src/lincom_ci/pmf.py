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
the kernel in batches of at most ``BATCH_ENTRIES`` spectrum entries.

``cdf_values`` reads one CDF value per vector, at a grid index of its own,
and returns them as one array.  It reads one batch at a time, by one of two
reads; each takes adjacent rows that share an index as one run, and sets
a run's value itself where its index is below or at the top of the
lattice:

- the FFT read sums the kernel's pmf rows up to the index;
- the enumerated read (``_enumerated_cdfs``) never forms the pmf.  The
  statistic is a sum of independent per-experiment offsets, so its CDF is
  sum_r W_r * F(idx - s_r): F is one experiment's own CDF over its
  outcomes, and r runs over the joint distinct offsets s_r of the others,
  with mass W_r.  Categories of one experiment that share a grid offset
  merge into one, with their summed probability, since the statistic
  sees only the offsets.  W is never formed: F is gathered at every joint
  offset, and the others' grouped masses are contracted into it one
  experiment at a time.  Masses are products of power-table entries, none
  is clamped, and the read stays within 1e-15 of an exact oracle where
  the FFT read, clamped at ``CLAMP_EPS``, is off by up to 1e-12.  A batch
  forms every experiment's outcome masses in one pass over one power
  table, and looks F's positions up once per run of rows that share an
  index.

The route follows from sizes alone (``_enumeration``): the enumerated read
is used when its entries per row (every unmerged outcome's power-table
entries plus R) are fewer than ``n_fft``.  That holds on the diagnostic
lattices (19,153 and 476,281 points, a few thousand entries per row) and
on no scenario layout.  Full pmf rows always come from the FFT kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

import numpy as np
import scipy.fft
from scipy.special import gammaln

from .errors import InputError, NumericalError
from .model import (
    Problem, SimplexPoint, YLattice, compositions, lattice_geometry, lattice_query, per_problem,
    simplex_point, y_lattice,
)

#: Magnitudes below this are treated as inverse-transform round-off and zeroed.
CLAMP_EPS = 1e-14
#: Maximum tolerated deviation of the total mass from 1 before erroring.
NORMALIZATION_TOL = 1e-9
#: Default cap on the joint outcome count for the brute-force route.
BRUTEFORCE_CAP = 10_000_000
#: Half-spectrum entries per FFT kernel batch (``_batch_rows``); a batch
#: holds at least one row, so large lattices run one row at a time.  Each
#: entry is complex, so a batch holds about ``2 * BATCH_ENTRIES`` floats.
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
    _check_totals(totals)
    probs /= totals[:, None]
    return probs


def _check_totals(totals: np.ndarray) -> None:
    """Raise if a row's total mass is off 1 by more than ``NORMALIZATION_TOL``; NaN passes."""
    drifting = np.flatnonzero(np.abs(totals - 1.0) > NORMALIZATION_TOL)
    if drifting.size:
        raise NumericalError(
            f"pmf normalization drift {totals[drifting[0]] - 1.0:.3e} exceeds "
            f"{NORMALIZATION_TOL:g} (support too large or precision loss)"
        )


@per_problem
def _n_fft(problem: Problem) -> int:
    """Transform length of the FFT route: the next fast real length at or above ``count``."""
    return scipy.fft.next_fast_len(y_lattice(problem).count, real=True)


@per_problem
def _phase_matrices(problem: Problem) -> tuple[int, tuple[np.ndarray, ...]]:
    """Per-block single-trial transform bases over the half spectrum.

    Row ``j`` of block ``k`` holds ``exp(-2*pi*i*o*t/n_fft)`` for
    ``t = 0 .. n_fft // 2``, where ``o = offsets[k][j]``.  The product ``o*t``
    is reduced modulo ``n_fft`` in int64 first, so the angle passed to ``exp``
    stays within one turn.
    """
    geom = lattice_geometry(problem)
    n_fft = _n_fft(problem)
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
    # The spectrum is freed once inverted, before the rows are normalised.
    rows = scipy.fft.irfft(_half_spectrum(problem, blocks), _n_fft(problem), axis=-1)
    return _normalised(rows[:, :count])


def _half_spectrum(problem: Problem, blocks: Sequence[np.ndarray]) -> np.ndarray:
    """The transform of each row's statistic over the half spectrum (see ``_pmf_rows``)."""
    _, mats = _phase_matrices(problem)
    transform = None
    for block, mat, e in zip(blocks, mats, problem.experiments):
        # A fresh product, so the memoized matrix is never written.
        power = _power_inplace(np.matmul(block[:, None, :], mat)[:, 0, :], e.n)
        if transform is None:
            transform = power
        else:
            transform *= power
    return transform


def pmf_fft(problem: Problem, p: SimplexPoint) -> LatticePmf:
    """Exact lattice pmf via products of single-trial transforms (see ``_pmf_rows``)."""
    p = _checked(problem, p)
    rows = _pmf_rows(problem, [b[None] for b in p.blocks])
    return LatticePmf(lattice=y_lattice(problem), probs=rows[0])


def _fft_batch_rows(problem: Problem) -> int:
    """Rows per FFT kernel batch: ``BATCH_ENTRIES // (n_fft // 2 + 1)``, at least one."""
    return max(1, BATCH_ENTRIES // (_n_fft(problem) // 2 + 1))


def _batch_rows(problem: Problem) -> int:
    """Rows per batch of ``cdf_values``, at least one.

    The FFT read's batches are ``_fft_batch_rows``.  The enumerated read's
    ``plan.entries`` per row are floats, so its batches hold the same
    ``2 * BATCH_ENTRIES`` floats.
    """
    plan = _enumeration(problem)
    return _fft_batch_rows(problem) if plan is None else max(1, 2 * BATCH_ENTRIES // plan.entries)


def _pmf_batches(problem: Problem, points: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each kernel batch of the ``(B, M)`` rows ``points`` as ``(rows, pmf rows)``, lazily.

    Batches come in row order and hold ``_fft_batch_rows`` rows, so a caller
    that stops early evaluates no later batch.
    """
    size = _fft_batch_rows(problem)
    for i in range(0, len(points), size):
        rows = points[i:i + size]
        yield rows, _pmf_rows(problem, [rows[:, s] for s in problem.block_slices()])


def _outcomes(n: int, offs: Sequence[int]):
    """One experiment's outcomes, in ascending order of the grid offset each adds.

    ``offs`` holds each category's grid offset.  Returns the outcomes'
    compositions ``(outcomes, len(offs))``, their multinomial coefficients,
    the distinct offsets and the first outcome of each.
    """
    comps = compositions(n, len(offs))
    offsets = comps @ np.asarray(offs, dtype=np.int64)
    order = np.argsort(offsets, kind="stable")
    comps = comps[order]
    sums, starts = np.unique(offsets[order], return_index=True)
    return comps, _multinomials(n, comps), sums, starts


def _multinomials(n: int, comps: np.ndarray) -> np.ndarray:
    """Each row's multinomial coefficient ``n! / prod(c!)``, exact, then rounded once to a float.

    A row's coefficient is the product over j of C(c_0 + ... + c_j, c_j),
    read from Pascal's triangle.  Every partial product, and with two or
    more parts every binomial, is itself a multinomial coefficient of n at
    most the largest, that of the most even row; so the triangle and the
    products are int64 when that fits and Python ints otherwise.  Raises
    OverflowError for a coefficient beyond the largest float.
    """
    m = comps.shape[1]
    q, r = divmod(n, m)
    largest = math.factorial(n) // (math.factorial(q) ** (m - r) * math.factorial(q + 1) ** r)
    float(largest)  # raises OverflowError, as that row's float would, before the triangle is built
    binom = np.zeros((n + 1, n + 1), dtype=np.int64 if largest < 2**63 else object)
    binom[:, 0] = 1
    for s in range(1, n + 1):
        binom[s, 1:s + 1] = binom[s - 1, :s] + binom[s - 1, 1:s + 1]
    return np.prod(binom[np.cumsum(comps, axis=1), comps], axis=1).astype(np.float64)


def _ties(offs: Sequence[int]) -> list[list[int]]:
    """One experiment's categories grouped by grid offset, in order of each group's first."""
    ties: dict[int, list[int]] = {}
    for j, o in enumerate(offs):
        ties.setdefault(o, []).append(j)
    return list(ties.values())


@dataclass(frozen=True)
class _EnumerationPlan:
    """The enumerated CDF read of one problem (see ``_enumerated_cdfs``).

    Categories of one experiment that share a grid offset merge into one,
    whose probability is the sum of theirs: the merged probabilities are
    ``rows[:, first]``, to which column ``sources[i]`` of the rows is added
    at column ``targets[i]``, one i after the other, so a merged category
    sums its categories in their order.  The merged categories of all
    experiments are concatenated in experiment order.

    The outcomes of all experiments are concatenated, experiment k's from
    column ``heads[k]`` on, each experiment's in ascending order of the grid
    offset it adds.  Outcome i's mass is ``coef[i]`` times the product over
    j of entry ``gather[j, i]`` of the flattened power table
    ``q[:, :, None] ** exponents`` of the merged probabilities q; an
    experiment with fewer merged categories than the most reads entry 0,
    ``q_0 ** 0 = 1.0``, for the rest.

    ``read`` is the experiment whose own CDF is read: the one with the most
    distinct offsets; its outcomes are columns ``own``.  ``groups`` is the
    first outcome of every distinct offset of every other experiment, and
    of the read experiment as a whole; ``others`` are the columns of the
    sums over them that hold each other experiment's grouped masses.  Their
    distinct offsets combine into R joint offsets s_r, in row-major order
    over the others in experiment order.  ``shift[r]`` is ``S - s_r`` for
    the largest joint offset S, and ``position[v + S]`` counts the outcomes
    of ``read`` whose offset is at most v, for v from -S to count - 2,
    where ``count`` is the lattice's.  ``entries`` sets the route and the
    batch size: every unmerged outcome's power-table entries, plus R.
    """

    first: np.ndarray
    targets: np.ndarray
    sources: np.ndarray
    exponents: np.ndarray
    gather: np.ndarray
    coef: np.ndarray
    heads: np.ndarray
    read: int
    own: slice
    groups: np.ndarray
    others: tuple[slice, ...]
    shift: np.ndarray
    position: np.ndarray
    count: int
    entries: int


def _enumeration_plan(problem: Problem, budget: float = math.inf) -> Optional[_EnumerationPlan]:
    """The enumerated read's plan, or None if its entries per row reach ``budget``.

    The outcome count comes from the sizes, and R from the distinct
    offsets, each before anything of that size is built.  None too if a
    multinomial coefficient has no float (n over about 1,000 trials).
    """
    outcome_entries = sum(math.comb(e.n + e.m - 1, e.m - 1) * e.m for e in problem.experiments)
    if outcome_entries >= budget:
        return None
    geom = lattice_geometry(problem)
    ties = [_ties(offs) for offs in geom.offsets]
    try:
        comps, coefs, sums, starts = zip(*(
            _outcomes(e.n, [offs[t[0]] for t in tied])
            for e, offs, tied in zip(problem.experiments, geom.offsets, ties)
        ))
    except OverflowError:  # a multinomial coefficient beyond the largest float
        return None
    read = max(range(problem.K), key=lambda k: len(sums[k]))
    others = [k for k in range(problem.K) if k != read]
    entries = outcome_entries + math.prod(len(sums[k]) for k in others)
    if entries >= budget:
        return None
    joint = np.zeros(1, dtype=np.int64)
    for k in others:
        joint = (joint[:, None] + sums[k][None, :]).ravel()
    top = int(joint.max())
    count = geom.lattice.count
    hist = np.zeros(count - 1, dtype=np.intp)
    inside = sums[read] < count - 1
    hist[sums[read][inside]] = np.diff(np.append(starts[read], len(coefs[read])))[inside]
    position = np.concatenate([np.zeros(top, dtype=np.intp), np.cumsum(hist)])
    # Merged category j of experiment k is column merged[k] + j of q.
    merged = np.cumsum([0, *map(len, ties)])
    slices = problem.block_slices()
    first = np.array([s.start + t[0] for s, tied in zip(slices, ties) for t in tied])
    adds = [
        (merged[k] + j, s.start + c)
        for k, (s, tied) in enumerate(zip(slices, ties)) for j, t in enumerate(tied) for c in t[1:]
    ]
    targets, sources = np.array(adds, dtype=np.intp).reshape(-1, 2).T
    # Row j of the power table holds merged category j's powers 0 .. the largest n.
    width = max(e.n for e in problem.experiments) + 1
    cuts = np.cumsum([0, *map(len, coefs)])
    gather = np.zeros((max(map(len, ties)), cuts[-1]), dtype=np.intp)
    for k, (a, b) in enumerate(zip(cuts, cuts[1:])):
        table_rows = width * np.arange(merged[k], merged[k + 1])
        gather[:len(ties[k]), a:b] = comps[k].T + table_rows[:, None]
    groups = [[a] if k == read else a + starts[k] for k, a in enumerate(cuts[:-1])]
    group_cuts = np.cumsum([0, *map(len, groups)])
    plan = _EnumerationPlan(
        first=first,
        targets=targets,
        sources=sources,
        exponents=np.arange(width),
        gather=gather,
        coef=np.concatenate(coefs),
        heads=cuts[:-1],
        read=read,
        own=slice(cuts[read], cuts[read + 1]),
        groups=np.concatenate(groups),
        others=tuple(slice(group_cuts[k], group_cuts[k + 1]) for k in others),
        shift=top - joint,
        position=position,
        count=count,
        entries=entries,
    )
    for a in (
        first, targets, sources, plan.exponents, gather, plan.coef, plan.heads, plan.groups,
        plan.shift, position,
    ):
        a.setflags(write=False)
    return plan


@per_problem
def _enumeration(problem: Problem) -> Optional[_EnumerationPlan]:
    """The enumerated read's plan if it has fewer entries per row than ``n_fft``, else None."""
    return _enumeration_plan(problem, _n_fft(problem))


def _enumerated_cdfs(plan: _EnumerationPlan, rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """CDF of each ``(B, M)`` row at its index ``idx``, by outcome enumeration.

    Y is the sum of independent per-experiment offsets, and depends on the
    counts only through them, so categories that share an offset read as
    one.  CDF(idx) = sum_r W_r * F(idx - s_r): F is the CDF of the read
    experiment's offset and W_r the joint mass of the other experiments at
    joint offset s_r, the product of each one's grouped mass at its part
    of s_r.  W is never formed: F is gathered as ``(B, |S_1|, ..., |S_J|)``
    over the others' distinct offsets, and one other experiment at a time,
    the last first, is contracted with its grouped masses by a stacked
    per-row ``matmul``.  Every outcome's mass comes from one power table,
    and each experiment's total, F and grouped masses from its columns of
    them.  Masses are products of power-table entries, so no entry is
    clamped; each experiment's total is checked against
    ``NORMALIZATION_TOL`` and the value is divided by their product.  Every
    step is elementwise, a per-row reduction or a stacked product, which
    runs the routine of a lone row's product on each row; so each row
    equals the same row read alone, bit for bit.  A run of rows whose index
    lies below the lattice reads 0 and one at or past its top 1
    (``_edge_value``); it is read at index 0 and then overwritten.
    """
    B = len(rows)
    q = np.take(rows, plan.first, axis=1)
    np.add.at(q, (slice(None), plan.targets), np.take(rows, plan.sources, axis=1))
    powers = (q[:, :, None] ** plan.exponents).reshape(B, -1)
    mass = plan.coef * np.take(powers, plan.gather[0], axis=1)
    for g in plan.gather[1:]:
        mass *= np.take(powers, g, axis=1)
    totals = np.add.reduceat(mass, plan.heads, axis=1)
    _check_totals(totals.T.ravel())  # in experiment order: names the first drifting one
    F = np.zeros((B, plan.own.stop - plan.own.start + 1))
    np.cumsum(mass[:, plan.own], axis=1, out=F[:, 1:])
    grouped = np.add.reduceat(mass, plan.groups, axis=1)
    # Each run of one index looks its positions up once, for all its rows.
    value = np.empty((B, len(plan.shift)))
    edges = []
    for a, b, i in _runs(idx):
        edge = _edge_value(i, plan.count)
        if edge is not None:
            edges.append((a, b, edge))
            i = 0
        # Every position is in range; "clip" writes to ``out`` without a buffer.
        np.take(F[a:b], plan.position[i:][plan.shift], axis=1, out=value[a:b], mode="clip")
    for s in reversed(plan.others):
        value = np.matmul(value.reshape(B, -1, s.stop - s.start), grouped[:, s, None])
    value = value.reshape(B) / totals.prod(axis=1)
    for a, b, v in edges:
        value[a:b] = v
    return value


def _runs(idx: np.ndarray) -> list[tuple[int, int, int]]:
    """Each run of equal adjacent entries of ``idx`` as (start, stop, its index)."""
    cuts = [0, *(np.flatnonzero(idx[1:] != idx[:-1]) + 1).tolist(), len(idx)]
    return list(zip(cuts, cuts[1:], idx[cuts[:-1]].tolist()))


def _edge_value(i: int, count: int) -> Optional[float]:
    """The CDF at grid index ``i`` off the read range: 0.0 below 0, 1.0 from ``count - 1``."""
    if i < 0:
        return 0.0
    if i >= count - 1:
        return 1.0
    return None


def cdf_values(problem: Problem, points: np.ndarray, idx: Union[int, np.ndarray]) -> np.ndarray:
    """The CDF value of each row of ``points``, as one array.

    ``points`` holds one concatenated probability vector per row, ``(B, M)``,
    read in batches of ``_batch_rows`` rows.  ``idx`` is the grid index to
    read, one for every row or one per row.  Below the lattice the value is
    0 and at its top 1, as in ``cdf_from_index``.  A problem with an
    enumeration plan (``_enumeration``) is read by ``_enumerated_cdfs``;
    any other sums the FFT kernel's pmf rows (``_fft_cdfs``).  Both reads
    take rows that share an index and lie next to each other as one run,
    and set the value of a run off the lattice's read range once, so no
    array pass clamps or masks the indices.  A call whose rows fit in one
    batch is that one read, with no copy.
    """
    idx = np.asarray(idx)
    if idx.ndim == 0:
        idx = np.full(len(points), idx)
    plan = _enumeration(problem)
    size = _batch_rows(problem)

    def read(rows: np.ndarray, at: np.ndarray) -> np.ndarray:
        return _fft_cdfs(problem, rows, at) if plan is None else _enumerated_cdfs(plan, rows, at)

    if 0 < len(points) <= size:
        return read(points, idx)
    values = np.empty(len(points))
    for i in range(0, len(points), size):
        values[i:i + size] = read(points[i:i + size], idx[i:i + size])
    return values


def _fft_cdfs(problem: Problem, points: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Each row's pmf summed up to its index ``idx``; runs of one index sum in one call.

    A run off the lattice's read range takes ``_edge_value``.
    """
    rows = _pmf_rows(problem, [points[:, s] for s in problem.block_slices()])
    count = rows.shape[1]
    values = np.empty(len(rows))
    for a, b, i in _runs(idx):
        edge = _edge_value(i, count)
        values[a:b] = rows[a:b, :i + 1].sum(axis=1) if edge is None else edge
    return values


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
    index it induces.  Intended as the oracle for the transform route.  Its
    result passes through ``_normalised``, whose clamp zeroes masses below
    ``CLAMP_EPS``, so it is not exact below 1e-14.
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
    queries never fall on the wrong side.  NaN and infinities raise ``InputError``.
    """
    y = lattice_query(y)
    if isinstance(y, float) and not math.isfinite(y):
        raise InputError(f"value {y!r} is not finite")
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
