"""Weighted-multinomial problem definition.

A problem is a list of independent multinomial experiments together with a
rational weight on every category.  The target quantity is the weighted sum
of all category probabilities, estimated by the plug-in statistic obtained
from observed proportions.  Because the weights are rational and trial
counts are integers, the statistic lives on an evenly spaced rational
lattice, which this module constructs exactly.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce, wraps
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import InputError

WeightLike = Union[int, str, float, Fraction]

#: Tolerance for accepting user-entered probability vectors before renormalization.
SIMPLEX_TOL = 1e-12
#: Largest lattice the exact method accepts; the attainable mask and the pmf
#: allocate several arrays of this length, and the phase matrices more.
LATTICE_CAP = 10_000_000


def as_fraction(value: WeightLike) -> Fraction:
    """Parse a weight into an exact rational.

    Integers and ``Fraction`` pass through; strings are parsed as exact
    decimals or ``a/b`` fractions; floats are converted through their shortest
    decimal representation (so ``0.1`` means exactly 1/10, not the binary
    float).  Numpy integers read as integers and numpy floats through their
    own shortest representation.  Non-finite values are rejected.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"weight must be a number, got {value!r}")
    if isinstance(value, numbers.Integral):
        return Fraction(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise InputError(f"weight must be finite, got {value!r}")
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse weight {value!r} as a rational") from exc
    raise InputError(f"weight must be int, str, float, or Fraction, got {type(value).__name__}")


def positive_int(value: object, what: str) -> int:
    """``value`` as an ``int`` if it is an integer (numpy's too, never a bool) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise InputError(f"{what} must be a positive integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ExperimentSpec:
    """One multinomial experiment: trial count and per-category weights."""

    n: int
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", positive_int(self.n, "experiment size n"))
        parsed = tuple(as_fraction(w) for w in self.weights)
        if len(parsed) < 2:
            raise InputError(f"experiment needs at least 2 categories, got {len(parsed)}")
        object.__setattr__(self, "weights", parsed)

    @property
    def m(self) -> int:
        return len(self.weights)


def experiment(n: int, weights: Iterable[WeightLike]) -> ExperimentSpec:
    """Convenience constructor accepting mixed weight representations."""
    return ExperimentSpec(n=n, weights=tuple(as_fraction(w) for w in weights))


def per_problem(build: Callable) -> Callable:
    """Build derived state once per problem and keep it on the problem.

    The result lives in the problem's private memo, so it is freed together
    with the problem; equal problems built separately each build their own.
    """

    # Keyed by the public wrapper, which pickles by name (``build`` does not).
    @wraps(build)
    def memoized(problem: "Problem"):
        if memoized not in problem._memo:
            problem._memo[memoized] = build(problem)
        return problem._memo[memoized]

    return memoized


@dataclass(frozen=True)
class Problem:
    """K independent experiments plus the concatenated weight vector.

    ``L_min``/``L_max`` are the extremes of the target over the whole
    parameter space: each experiment contributes between its smallest and
    largest weight.  Derived state (lattice, transform bases, float weights)
    is built on first use and held in ``_memo`` for the problem's lifetime.
    """

    experiments: tuple[ExperimentSpec, ...]
    w: tuple[Fraction, ...]
    L_min: Fraction
    L_max: Fraction
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def K(self) -> int:
        return len(self.experiments)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(e.n for e in self.experiments)

    @property
    def block_lengths(self) -> tuple[int, ...]:
        return tuple(e.m for e in self.experiments)

    @per_problem
    def w_float(self) -> np.ndarray:
        """The weights as a read-only float vector."""
        w = np.array([float(v) for v in self.w])
        w.setflags(write=False)
        return w

    @per_problem
    def L_range_float(self) -> tuple[float, float]:
        """``L_min`` and ``L_max`` as the nearest floats."""
        return float(self.L_min), float(self.L_max)

    @per_problem
    def block_slices(self) -> tuple[slice, ...]:
        """Each experiment's slice of a concatenated probability vector."""
        ends = itertools.accumulate(self.block_lengths)
        return tuple(slice(end - e.m, end) for end, e in zip(ends, self.experiments))

    @per_problem
    def w_blocks_float(self) -> tuple[np.ndarray, ...]:
        """The weights as one read-only float vector per experiment."""
        blocks = tuple(self.w_float()[s].copy() for s in self.block_slices())
        for b in blocks:
            b.setflags(write=False)
        return blocks


def build_problem(experiments: Sequence[ExperimentSpec]) -> Problem:
    """Assemble a Problem and compute the attainable range of the target."""
    if not experiments:
        raise InputError("problem needs at least one experiment")
    specs = tuple(experiments)
    w: tuple[Fraction, ...] = tuple(v for e in specs for v in e.weights)
    L_min = sum((min(e.weights) for e in specs), Fraction(0))
    L_max = sum((max(e.weights) for e in specs), Fraction(0))
    return Problem(experiments=specs, w=w, L_min=L_min, L_max=L_max)


@dataclass(frozen=True)
class SimplexPoint:
    """Concatenated probability vectors, one block per experiment.

    Entries may carry rounding noise up to ``SIMPLEX_TOL``; blocks are
    clipped at zero and renormalized on construction.
    """

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        cleaned = []
        for i, raw in enumerate(self.blocks):
            b = np.asarray(raw, dtype=float)
            if b.ndim != 1 or b.size < 2:
                raise InputError(f"probability block {i} must be a vector of length >= 2")
            if np.any(b < -SIMPLEX_TOL) or not np.all(np.isfinite(b)):
                raise InputError(f"probability block {i} has negative or non-finite entries: {b!r}")
            b = np.maximum(b, 0.0)
            s = b.sum()
            if abs(s - 1.0) > SIMPLEX_TOL * max(1.0, b.size):
                raise InputError(f"probability block {i} sums to {s!r}, expected 1")
            b = b / s
            b.setflags(write=False)
            cleaned.append(b)
        object.__setattr__(self, "blocks", tuple(cleaned))

    def concat(self) -> np.ndarray:
        return np.concatenate(self.blocks)

    def dot_weights(self, problem: Problem) -> float:
        return float(np.dot(self.concat(), problem.w_float()))

    @classmethod
    def _wrap(cls, blocks: tuple[np.ndarray, ...]) -> "SimplexPoint":
        """Fast path for internally generated blocks (already feasible)."""
        point = object.__new__(cls)
        cleaned = []
        for b in blocks:
            b = np.maximum(b, 0.0)
            b.setflags(write=False)
            cleaned.append(b)
        object.__setattr__(point, "blocks", tuple(cleaned))
        return point


def simplex_point(problem: Problem, blocks: Sequence[Sequence[float]]) -> SimplexPoint:
    """Validate a probability vector against a problem's block structure."""
    if len(blocks) != problem.K:
        raise InputError(f"expected {problem.K} probability blocks, got {len(blocks)}")
    p = SimplexPoint(blocks=tuple(np.asarray(b, dtype=float) for b in blocks))
    for i, (b, e) in enumerate(zip(p.blocks, problem.experiments)):
        if b.size != e.m:
            raise InputError(f"probability block {i} has length {b.size}, expected {e.m}")
    return p


def parse_count(value: object, where: str) -> int:
    """An exact integer from an int, integral float or numeric string; else InputError."""
    if isinstance(value, int):
        return int(value)
    try:
        exact = Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        exact = None
    if exact is None or exact.denominator != 1:
        raise InputError(f"{where} has a non-integer cell {value!r}")
    return int(exact)


@dataclass(frozen=True)
class ObservedCounts:
    """Observed category counts, one integer block per experiment (see ``parse_count``)."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        norm = []
        for i, raw in enumerate(self.blocks):
            where = f"count block {i}"
            b = tuple(parse_count(x, where) for x in raw)
            if any(x < 0 for x in b):
                raise InputError(f"count block {i} has negative entries: {b!r}")
            norm.append(b)
        object.__setattr__(self, "blocks", tuple(norm))


def check_counts(problem: Problem, counts: ObservedCounts) -> None:
    """Verify block lengths and exact block sums against the problem."""
    if len(counts.blocks) != problem.K:
        raise InputError(f"expected {problem.K} count blocks, got {len(counts.blocks)}")
    for i, (b, e) in enumerate(zip(counts.blocks, problem.experiments)):
        if len(b) != e.m:
            raise InputError(f"count block {i} has length {len(b)}, expected {e.m}")
        if sum(b) != e.n:
            raise InputError(f"count block {i} sums to {sum(b)}, expected n={e.n}")


def check_target(problem: Problem, L: Union[Fraction, int, float]) -> None:
    """Verify that a target value lies in the attainable range.

    A float is compared with the nearest floats to ``L_min`` and ``L_max``,
    so the float of a bound is in range even where it rounds past the exact
    bound; any other value is compared exactly.
    """
    if isinstance(L, float):
        lo, hi = problem.L_range_float()
        inside = lo <= L <= hi
    else:
        inside = problem.L_min <= L <= problem.L_max
    if not inside:
        raise InputError(
            f"target {L!r} outside attainable range [{problem.L_min}, {problem.L_max}]"
        )


def lattice_query(y: object) -> Union[Fraction, float]:
    """A value to look up on a lattice, as a float or an exact ``Fraction``.

    A real that is not rational (``float``, numpy floats) reads as a float;
    anything else must convert to ``Fraction`` exactly, or InputError.
    """
    if isinstance(y, numbers.Real) and not isinstance(y, numbers.Rational):
        return float(y)
    try:
        return Fraction(y)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"value {y!r} is not a real number") from exc


@dataclass(frozen=True)
class YLattice:
    """Evenly spaced grid carrying every attainable value of the statistic.

    The origin and top grid point are the attainable extremes; interior grid
    points need not all be attainable.
    """

    origin: Fraction
    step: Fraction
    count: int

    @property
    def top(self) -> Fraction:
        return self.origin + (self.count - 1) * self.step

    def value(self, index: int) -> Fraction:
        if not 0 <= index < self.count:
            raise IndexError(f"lattice index {index} out of range [0, {self.count})")
        return self.origin + index * self.step

    def values_float(self) -> np.ndarray:
        return float(self.origin) + float(self.step) * np.arange(self.count)

    def index_of(self, y: Union[Fraction, int, float]) -> int:
        """Index of a grid value; raises InputError off the grid (NaN and infinities too).

        Rational inputs are matched exactly; floats snap to the nearest grid
        point within a small relative slack (decimal entry of e.g. 0.4 is not
        the binary float of the exact rational 2/5).
        """
        y = lattice_query(y)
        if isinstance(y, float):
            rel_f = (y - float(self.origin)) / float(self.step)
            idx = round(rel_f) if math.isfinite(rel_f) else -1
            if not 0 <= idx < self.count or abs(rel_f - idx) > 1e-9 * max(1.0, abs(rel_f)):
                raise InputError(f"value {y!r} is not on the lattice")
            return idx
        rel = (y - self.origin) / self.step
        if rel.denominator != 1 or not 0 <= rel <= self.count - 1:
            raise InputError(f"value {y!r} is not on the lattice")
        return int(rel)


@dataclass(frozen=True)
class LatticeGeometry:
    """Integer rescaling of the lattice used by the transform engine.

    ``scale`` is a common denominator D such that D*w[m,k]/n_k is an integer
    for every category; ``gcd`` is the greatest common divisor g of those
    integers; the lattice step is g/D.  ``offsets[k][m]`` is the nonnegative
    per-trial index contribution of category m in experiment k, so the grid
    index of an outcome x is sum_k x_k . offsets[k].
    """

    lattice: YLattice
    scale: int
    gcd: int
    offsets: tuple[tuple[int, ...], ...]


def _lcm(values: Iterable[int]) -> int:
    return reduce(math.lcm, values, 1)


@per_problem
def lattice_geometry(problem: Problem) -> LatticeGeometry:
    denom = _lcm(w.denominator for w in problem.w)
    n_lcm = _lcm(e.n for e in problem.experiments)
    scale = n_lcm * denom
    omega: list[list[int]] = []
    pos = 0
    for e in problem.experiments:
        block = []
        for w in problem.w[pos:pos + e.m]:
            v = w * scale / e.n
            assert v.denominator == 1
            block.append(int(v))
        omega.append(block)
        pos += e.m
    g = reduce(math.gcd, (abs(v) for row in omega for v in row), 0)
    if g == 0:
        # All weights zero: the statistic is identically zero.
        lattice = YLattice(origin=problem.L_min, step=Fraction(1), count=1)
        offsets = tuple(tuple(0 for _ in row) for row in omega)
        return LatticeGeometry(lattice=lattice, scale=scale, gcd=1, offsets=offsets)
    step = Fraction(g, scale)
    span = (problem.L_max - problem.L_min) / step
    assert span.denominator == 1
    count = int(span) + 1
    if count > LATTICE_CAP:
        raise InputError(
            f"lattice of {count} points exceeds the cap of {LATTICE_CAP}: its step "
            f"{step} is set by the LCM of the trial counts ({n_lcm}) times the LCM "
            f"of the weight denominators ({denom})"
        )
    offsets = []
    for e, row in zip(problem.experiments, omega):
        a = [v // g for v in row]
        base = min(a)
        offsets.append(tuple(v - base for v in a))
    lattice = YLattice(origin=problem.L_min, step=step, count=count)
    return LatticeGeometry(lattice=lattice, scale=scale, gcd=g, offsets=tuple(offsets))


def y_lattice(problem: Problem) -> YLattice:
    """The evenly spaced value grid of the plug-in statistic."""
    return lattice_geometry(problem).lattice


@per_problem
def attainable_mask(problem: Problem) -> np.ndarray:
    """Boolean mask over the lattice marking indices reachable by some outcome.

    Computed by dynamic programming over per-trial index contributions, one
    experiment at a time; exact and independent of any probability vector.
    """
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
        nxt[np.flatnonzero(reach)[:, None] + np.flatnonzero(block)] = True
        reach = nxt
    reach.setflags(write=False)
    return reach


def estimate_L(problem: Problem, counts: ObservedCounts) -> Fraction:
    """Plug-in estimate: observed proportions dotted with the weights."""
    check_counts(problem, counts)
    total = Fraction(0)
    pos = 0
    for e, block in zip(problem.experiments, counts.blocks):
        for x, w in zip(block, problem.w[pos:pos + e.m]):
            total += Fraction(x, e.n) * w
        pos += e.m
    return total


def problem_from_dict(cfg: dict) -> tuple[Problem, float | None]:
    """Build a problem from the JSON configuration schema.

    Expected shape: ``{"experiments": [{"n": 5, "weights": [0, "1.5", ...]},
    ...], "alpha": 0.05}``; ``alpha`` is optional and returned separately.
    """
    if not isinstance(cfg, dict):
        raise InputError("config must be a JSON object")
    exps = cfg.get("experiments")
    if not isinstance(exps, list) or not exps:
        raise InputError("config field 'experiments' must be a nonempty list")
    specs = []
    for i, ent in enumerate(exps):
        if not isinstance(ent, dict) or "n" not in ent or "weights" not in ent:
            raise InputError(f"experiments[{i}] must be an object with 'n' and 'weights'")
        n, weights = ent["n"], ent["weights"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise InputError(f"experiments[{i}].n must be an integer, got {n!r}")
        if not isinstance(weights, list):
            raise InputError(f"experiments[{i}].weights must be a list, got {weights!r}")
        specs.append(experiment(n, weights))
    alpha = cfg.get("alpha")
    if alpha is not None:
        if not isinstance(alpha, (int, float)) or not 0 < alpha < 1:
            raise InputError(f"config field 'alpha' must lie in (0, 1), got {alpha!r}")
        alpha = float(alpha)
    return build_problem(specs), alpha


def problem_from_json(text: str) -> tuple[Problem, float | None]:
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"config is not valid JSON: {exc}") from exc
    return problem_from_dict(cfg)


def compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of given length summing to total.

    One vector per row, in lexicographic order.  Stars and bars: the parts
    are the gaps between ``parts - 1`` bars placed among ``total + parts - 1``
    slots, and bar placements in lexicographic order give the vectors in
    lexicographic order.
    """
    slots = total + parts - 1
    bars = np.array(list(itertools.combinations(range(slots), parts - 1)), dtype=np.int64)
    bars = bars.reshape(len(bars), parts - 1)
    edges = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, slots))
    return np.diff(edges, axis=1) - 1


def enumerate_outcomes(problem: Problem) -> Iterable[ObservedCounts]:
    """Exhaustively yield every joint outcome (test/oracle helper)."""
    per_block = [map(tuple, compositions(e.n, e.m).tolist()) for e in problem.experiments]
    for blocks in itertools.product(*per_block):
        yield ObservedCounts(blocks=blocks)


__all__ = [
    "ExperimentSpec", "Problem", "SimplexPoint", "ObservedCounts", "YLattice",
    "LatticeGeometry", "as_fraction", "experiment", "build_problem",
    "simplex_point", "check_counts", "lattice_geometry", "y_lattice",
    "attainable_mask", "estimate_L",
    "problem_from_dict", "problem_from_json", "compositions", "enumerate_outcomes",
    "parse_count", "per_problem", "SIMPLEX_TOL", "LATTICE_CAP",
]
