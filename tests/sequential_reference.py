"""Step-by-step reference for the batched tail search, kernel, sampler and coverage.

These are the one-vector routines the batched code replaced, kept verbatim
in their arithmetic: one ``sample_constrained`` draw, one ``perturb`` step
and one ``pmf_fft`` call per candidate, one CDF read per pmf, one covered
mass summed per coverage cell, each cell drawn in turn from its grid point's
``grid_rng`` that numpy's own ``SeedSequence`` seeds, and one comparator
interval per Monte Carlo count draw (``comparator_sweep``).
``enumerated_cdfs`` is the enumerated CDF read one experiment at a time, and
``attainable_mask`` the mask built one reachable point at a time.  The batched code must reproduce
them bit for bit.  ``exact_cdf`` is the oracle of the enumerated CDF read,
which no float routine reproduces bit for bit.  ``hybrid_bracket_solve``,
which alternated false position and bisection, ``illinois_bracket_solve``,
the Illinois false position on the log tail that replaced it, and
``log_secant_bracket_solve``, the secant on the log tail that replaced that,
are the root solves before the secant on the probit of the tail; they are
baselines of its evaluation counts, not bit-for-bit references.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.fft

from lincom_ci.bounds import MAX_ITER
from lincom_ci.errors import NumericalError
from lincom_ci.model import (
    ObservedCounts, SimplexPoint, check_target, compositions, lattice_geometry, y_lattice,
)
from lincom_ci.coverage import INCLUSION_EPS, gold_interval, goodman_interval
from lincom_ci.optimizer import (
    CONSTRAINT_TOL, DECAY, INITIAL_SCALE, TailEvaluation, _null_space_basis,
)
from lincom_ci.pmf import (
    CLAMP_EPS, NORMALIZATION_TOL, _check_totals, _phase_matrices,
    _power_inplace, cdf_index, pmf_fft,
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
    check_target(problem, L)
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


def covered_mass(probs, L: float, table) -> float:
    """The mass of the pmf ``probs`` on the observed values whose interval holds ``L``, summed alone."""
    tol = INCLUSION_EPS * max(1.0, abs(L))
    with np.errstate(invalid="ignore"):
        covered = table.present & (table.lower - tol <= L) & (L <= table.upper + tol)
    return float(probs[covered].sum())


def grid_rng(seed: int, l_idx: int, salt: int) -> np.random.Generator:
    """Grid point ``l_idx``'s stream as numpy's own seeding starts it."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), l_idx, salt)))


def _grid(problem, n_L: int) -> np.ndarray:
    lo, hi = float(problem.L_min), float(problem.L_max)
    return np.array([0.5 * (lo + hi)]) if n_L == 1 else np.linspace(lo, hi, n_L)


def cell_points(problem, L: float, n_p: int, seed: int, l_idx: int) -> list[SimplexPoint]:
    """Grid point ``l_idx``'s cells, each one ``sample_constrained`` call on its salt-0 stream."""
    rng = grid_rng(seed, l_idx, 0)
    return [sample_constrained(problem, L, rng) for _ in range(n_p)]


def _fold(cells: list[list[float]]):
    """``(per-grid-point mean, average, minimum)``, each grid point's cells summed in order."""
    per_L = np.empty(len(cells))
    for l_idx, values in enumerate(cells):
        acc = 0.0
        for c in values:
            acc += c
        per_L[l_idx] = acc / len(values)
    return per_L, float(per_L.mean()), min([1.0, *(c for values in cells for c in values)])


def coverage_sweep(problem, table, n_L: int, n_p: int, seed: int):
    """The per-cell exact sweep: ``(per-grid-point coverage, average, minimum)``.

    Each cell's vector comes from ``cell_points``; its ``pmf_fft`` is scored
    alone with ``covered_mass``.
    """
    return _fold([
        [covered_mass(pmf_fft(problem, p).probs, p.dot_weights(problem), table)
         for p in cell_points(problem, float(L), n_p, seed, l_idx)]
        for l_idx, L in enumerate(_grid(problem, n_L))
    ])


def comparator_sweep(problem, alpha: float, n_L: int, n_p: int, n_draws: int, method, seed: int):
    """The per-draw comparator sweep: ``(per-grid-point coverage, average, minimum)``.

    The cells are ``cell_points``'s.  Grid point ``l_idx``'s salt-1 stream
    draws each experiment's counts in turn, one ``multinomial`` call per
    (draw, cell) in row order; each draw's interval is ``gold_interval`` or
    ``goodman_interval`` of its counts, and a cell's coverage is the share
    of its draws whose interval holds the cell's target.
    """
    interval = {"gold": gold_interval, "goodman": goodman_interval}[method]
    cells = []
    for l_idx, L in enumerate(_grid(problem, n_L)):
        points = cell_points(problem, float(L), n_p, seed, l_idx)
        rng = grid_rng(seed, l_idx, 1)
        counts = [
            [[rng.multinomial(e.n, p.blocks[k]) for p in points] for _ in range(n_draws)]
            for k, e in enumerate(problem.experiments)
        ]
        values = []
        for p_idx, p in enumerate(points):
            target = p.dot_weights(problem)
            tol = INCLUSION_EPS * max(1.0, abs(target))
            covered = 0
            for d in range(n_draws):
                obs = ObservedCounts(blocks=tuple(tuple(c[d][p_idx]) for c in counts))
                lo, hi = interval(problem, obs, alpha)
                covered += lo - tol <= target <= hi + tol
            values.append(covered / n_draws)
        cells.append(values)
    return _fold(cells)


def exact_cdf(problem, blocks, idx: int) -> float:
    """CDF at grid index ``idx`` by joint outcome enumeration in long double, unclamped.

    Each block is scaled to sum 1.  Every outcome of an experiment adds its
    multinomial mass (exact integer coefficient times powers) at its grid
    offset; the experiments' distributions are then convolved on the
    lattice, and the masses up to ``idx`` summed.  All arithmetic is in
    ``np.longdouble``, and no entry is clamped.
    """
    geom = lattice_geometry(problem)
    count = geom.lattice.count
    if idx < 0:
        return 0.0
    if idx >= count - 1:
        return 1.0
    dist = np.zeros(count, dtype=np.longdouble)
    dist[0] = 1
    for block, offs, e in zip(blocks, geom.offsets, problem.experiments):
        q = np.asarray(block, dtype=np.longdouble)
        q = q / q.sum()
        own = {}
        for c in compositions(e.n, e.m).tolist():
            coef = math.factorial(e.n) // math.prod(math.factorial(x) for x in c)
            mass = np.longdouble(str(coef)) * np.prod(q ** np.array(c, dtype=np.longdouble))
            at = sum(x * o for x, o in zip(c, offs))
            own[at] = own.get(at, np.longdouble(0)) + mass
        joint = np.zeros(count, dtype=np.longdouble)
        for at, mass in own.items():
            joint[at:] += mass * dist[:count - at]
        dist = joint
    return float(dist[:idx + 1].sum())


def _enumeration_tables(problem):
    """Per experiment ``(n, ties, coef, gather, starts, sums)``, and the read, shift and positions.

    ``ties`` lists the categories of each merged category: those that share
    a grid offset, in order of each one's first category.
    """
    geom = lattice_geometry(problem)
    tables = []
    for e, offs in zip(problem.experiments, geom.offsets):
        ties = {}
        for j, o in enumerate(offs):
            ties.setdefault(o, []).append(j)
        comps = compositions(e.n, len(ties))
        offsets = comps @ np.array(list(ties), dtype=np.int64)
        order = np.argsort(offsets, kind="stable")
        comps = comps[order]
        sums, starts = np.unique(offsets[order], return_index=True)
        top = math.factorial(e.n)
        coef = np.array([float(top // math.prod(map(math.factorial, c))) for c in comps.tolist()])
        gather = comps.T + (e.n + 1) * np.arange(len(ties))[:, None]
        tables.append((e.n, list(ties.values()), coef, gather, starts, sums))
    read = max(range(problem.K), key=lambda k: len(tables[k][5]))
    joint = np.zeros(1, dtype=np.int64)
    for k, t in enumerate(tables):
        if k != read:
            joint = (joint[:, None] + t[5][None, :]).ravel()
    top = int(joint.max())
    _, _, coef, _, starts, sums = tables[read]
    count = geom.lattice.count
    hist = np.zeros(count - 1, dtype=np.intp)
    inside = sums < count - 1
    hist[sums[inside]] = np.diff(np.append(starts, len(coef)))[inside]
    position = np.concatenate([np.zeros(top, dtype=np.intp), np.cumsum(hist)])
    return tables, read, top - joint, position


def enumerated_cdfs(problem, blocks, idx) -> np.ndarray:
    """The enumerated read one experiment at a time: its own merged categories and power table each.

    ``blocks`` are the per-experiment ``(B, m_k)`` rows and ``idx`` one grid
    index (0 to count - 2) per row.  The read experiment's F is gathered at
    every joint offset of the others, and the others are contracted in
    turn, the last first, with their grouped masses.
    """
    tables, read, shift, position = _enumeration_tables(problem)
    B = len(idx)
    totals, grouped, F = [], [], None
    for k, (block, (n, ties, coef, gather, starts, _)) in enumerate(zip(blocks, tables)):
        q = np.empty((B, len(ties)))
        for j, tied in enumerate(ties):
            q[:, j] = block[:, tied[0]]
            for c in tied[1:]:
                q[:, j] += block[:, c]
        powers = (q[:, :, None] ** np.arange(n + 1)).reshape(B, -1)
        mass = coef * np.take(powers, gather[0], axis=1)
        for g in gather[1:]:
            mass *= np.take(powers, g, axis=1)
        # Summed as the read sums its experiments; sum() rounds otherwise.
        totals.append(np.add.reduceat(mass, [0], axis=1)[:, 0])
        _check_totals(totals[-1])
        if k == read:
            F = np.zeros((B, mass.shape[1] + 1))
            np.cumsum(mass, axis=1, out=F[:, 1:])
        else:
            grouped.append(np.add.reduceat(mass, starts, axis=1))
    pos = position[idx[:, None] + shift] + F.shape[1] * np.arange(B)[:, None]
    value = np.take(F, pos)
    for g in reversed(grouped):
        value = np.matmul(value.reshape(B, -1, g.shape[1]), g[:, :, None])
    return value.reshape(B) / math.prod(totals)


def attainable_mask(problem) -> np.ndarray:
    """The attainable mask, each reachable point's successors marked one point at a time."""
    geom = lattice_geometry(problem)
    reach = np.zeros(geom.lattice.count, dtype=bool)
    reach[0] = True
    for e, offs in zip(problem.experiments, geom.offsets):
        block = np.zeros(geom.lattice.count, dtype=bool)
        block[0] = True
        for _ in range(e.n):
            nxt = np.zeros_like(block)
            for o in set(offs):
                nxt[o:] |= block[: block.size - o] if o else block
            block = nxt
        nxt = np.zeros_like(reach)
        idx = np.flatnonzero(block)
        for j in np.flatnonzero(reach):
            nxt[j + idx] = True
        reach = nxt
    return reach


def hybrid_bracket_solve(f, lo, hi, f_lo, f_hi, tol_f, tol_L):
    """Hybrid false-position/bisection on a bracketing interval.

    Requires opposite signs at the ends.  Returns (root, |f(root)|) for the
    first point with |f| <= tol_f, on either side; if the bracket collapses
    first, returns the endpoint on the f <= 0 side.
    """
    a, fa, b, fb = lo, f_lo, hi, f_hi
    if fa == 0.0:
        return a, 0.0
    if fb == 0.0:
        return b, 0.0
    if (fa > 0) == (fb > 0):
        raise NumericalError(
            f"root bracket [{lo:g}, {hi:g}] has same-sign values ({fa:g}, {fb:g})"
        )
    for it in range(MAX_ITER):
        if abs(b - a) <= tol_L:
            break
        if it % 2 == 0 and fb != fa:
            x = b - fb * (b - a) / (fb - fa)
            margin = 0.01 * abs(b - a)
            x = min(max(x, min(a, b) + margin), max(a, b) - margin)
        else:
            x = 0.5 * (a + b)
        fx = yield from f(x)
        if abs(fx) <= tol_f:
            return x, abs(fx)
        if (fx > 0) == (fb > 0):
            b, fb = x, fx
        else:
            a, fa = x, fx
    if fa <= 0:
        return a, abs(fa)
    return b, abs(fb)


def _log_tail(fx: float, target: float) -> float:
    """``log(tail / target)`` for ``fx = tail - target``; minus infinity where the tail is 0."""
    return math.log1p(fx / target) if fx > -target else -math.inf


def illinois_bracket_solve(
    f,
    lo: float,
    hi: float,
    f_lo: float,
    f_hi: float,
    target: float,
    tol_f: float,
    tol_L: float,
):
    """Illinois false position on the log tail, within a bracketing interval.

    ``f`` is a solve's tail function, tail minus ``target`` (see ``_solve``),
    and requires opposite signs at the ends.  The tail is sigmoid in L, 0 at
    the pinned end and about 1/2 at y, and on its way up from the pinned end
    its log is close to a line; so each step interpolates
    ``log(tail / target)`` linearly between the ends.  An end kept twice in
    a row has its log value halved for the next interpolation (Illinois,
    Dowell & Jarratt 1971).  A step bisects instead when an end's tail is
    exactly 0, when the interpolated point is not strictly inside the
    bracket, or when the last three steps have not halved the bracket.

    Returns (x, |f(x)|) for the first x with ``-tol_f <= f(x) <= 0``: that
    side widens the interval, so both bound directions err conservatively.
    If the bracket collapses first, returns its f <= 0 end.
    """
    a, fa, b, fb = lo, f_lo, hi, f_hi
    if fa == 0.0:
        return a, 0.0
    if fb == 0.0:
        return b, 0.0
    if (fa > 0) == (fb > 0):
        raise NumericalError(
            f"root bracket [{lo:g}, {hi:g}] has same-sign values ({fa:g}, {fb:g})"
        )
    ga, gb = _log_tail(fa, target), _log_tail(fb, target)
    kept = None  # the end the last step kept: "a", "b" or None
    # Bracket widths before the last three steps: an Illinois correction
    # takes three (two steps that keep one end, then the halved step).
    widths = [math.inf] * 3
    for _ in range(MAX_ITER):
        width = abs(b - a)
        if width <= tol_L:
            break
        x = 0.5 * (a + b)
        if math.isfinite(ga) and math.isfinite(gb) and width <= 0.5 * widths[0]:
            x_fp = b - gb * (b - a) / (gb - ga)
            if min(a, b) < x_fp < max(a, b):
                x = x_fp
        widths = widths[1:] + [width]
        fx = yield from f(x)
        if -tol_f <= fx <= 0:
            return x, abs(fx)
        gx = _log_tail(fx, target)
        if (fx > 0) == (fb > 0):
            b, fb, gb = x, fx, gx
            if kept == "a":
                ga *= 0.5
            kept = "a"
        else:
            a, fa, ga = x, fx, gx
            if kept == "b":
                gb *= 0.5
            kept = "b"
    # Bracket exhausted: report the f <= 0 endpoint (conservative side).
    if fa <= 0:
        return a, abs(fa)
    return b, abs(fb)


def log_secant_bracket_solve(
    f,
    lo: float,
    hi: float,
    f_lo: float,
    f_hi: float,
    target: float,
    tol_f: float,
    tol_L: float,
):
    """Safeguarded secant on the log tail, aimed at the middle of the accepted band.

    ``f`` is a solve's tail function, tail minus ``target`` (see ``_solve``),
    and requires opposite signs at the ends.  The tail is sigmoid in L, 0 at
    the pinned end and about 1/2 at y, and on its way up from the pinned end
    its log is close to a line; so each step interpolates
    ``g = log(tail / mid)`` linearly, where ``mid`` is the middle of the
    accepted tail band ``[max(target - tol_f, 0), target]``.  Aiming there
    rather than at ``target`` lands a step inside the band when g is close
    to a line, instead of one step short of or past its edge.

    A step goes to the secant through the two most recently evaluated
    points with finite g if that lies strictly inside the bracket, else to
    the Illinois false-position point of the bracket's ends, else to the
    bracket's middle (Dekker 1969; Brent 1973, ch. 4).  For the Illinois
    point an end kept twice in a row has its g halved (Dowell & Jarratt
    1971), and it needs both ends' tails nonzero.  A step bisects outright
    when the last three steps have not halved the bracket.

    Returns (x, |f(x)|) for the first x with ``-tol_f <= f(x) <= 0``: that
    side widens the interval, so both bound directions err conservatively.
    If the bracket collapses first, returns its f <= 0 end.
    """
    a, fa, b, fb = lo, f_lo, hi, f_hi
    if fa == 0.0:
        return a, 0.0
    if fb == 0.0:
        return b, 0.0
    if (fa > 0) == (fb > 0):
        raise NumericalError(
            f"root bracket [{lo:g}, {hi:g}] has same-sign values ({fa:g}, {fb:g})"
        )
    mid = target - 0.5 * min(tol_f, target)

    def log_tail(fx: float) -> float:
        # minus infinity where the tail is 0
        return math.log((fx + target) / mid) if fx > -target else -math.inf

    ga, gb = log_tail(fa), log_tail(fb)
    # The last two evaluated points with finite g, oldest first.
    recent = [(x, g) for x, g in ((a, ga), (b, gb)) if math.isfinite(g)]
    kept = None  # the end the last step kept: "a", "b" or None
    # Bracket widths before the last three steps: an Illinois correction
    # takes three (two steps that keep one end, then the halved step).
    widths = [math.inf] * 3
    for _ in range(MAX_ITER):
        width = abs(b - a)
        if width <= tol_L:
            break
        x = 0.5 * (a + b)
        if width <= 0.5 * widths[0]:
            steps = []
            if len(recent) == 2 and recent[0][1] != recent[1][1]:
                (x0, g0), (x1, g1) = recent
                steps.append(x1 - g1 * (x1 - x0) / (g1 - g0))
            if math.isfinite(ga) and math.isfinite(gb) and ga != gb:
                steps.append(b - gb * (b - a) / (gb - ga))
            x = next((s for s in steps if min(a, b) < s < max(a, b)), x)
        widths = widths[1:] + [width]
        fx = yield from f(x)
        if -tol_f <= fx <= 0:
            return x, abs(fx)
        gx = log_tail(fx)
        if math.isfinite(gx):
            recent = [*recent[-1:], (x, gx)]
        if (fx > 0) == (fb > 0):
            b, fb, gb = x, fx, gx
            if kept == "a":
                ga *= 0.5
            kept = "a"
        else:
            a, fa, ga = x, fx, gx
            if kept == "b":
                gb *= 0.5
            kept = "b"
    # Bracket exhausted: report the f <= 0 endpoint (conservative side).
    if fa <= 0:
        return a, abs(fa)
    return b, abs(fb)
