"""Span tracer, per-layer metrics and pmf kernel rows for the traced run.

The tracer wraps library functions where the calling module binds them
(``lincom_ci.optimizer.pmf_fft`` is the pmf as the optimizer sees it), so
nothing in the package changes.  Each call records a span: name, start,
end, parent span and op id.  Spans are kept in flat arrays in memory and
written out once at the end.  A layer's self time is the time of its spans
minus the time of their direct child spans.
"""

from __future__ import annotations

import importlib
import time
from array import array
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import workloads
from lincom_ci import bayescost, bounds, coverage, model, optimizer, pmf

LAYERS = ("bayescost", "bounds", "optimizer", "pmf", "coverage")
KINDS = ("", "table", "solve", "search", "sampler", "pmf", "comparator", "cell")

# (module, attribute as bound there, layer, kind).  ``kind`` tags the spans
# the work counts are taken from.  ``_solve_lower``/``_solve_upper`` are the
# package's per-endpoint solves; no public function wraps exactly one solve.
# The coverage cells' own draws are charged to the coverage layer, so
# ``optimizer.self_s`` is the searches' time less their pmf time, while
# ``optimizer.sampler_calls`` counts the draws of both.
WRAPPED = (
    ("lincom_ci.bayescost", "bc_problem", "bayescost", ""),
    ("lincom_ci.bounds", "fiducial_interval", "bounds", ""),
    ("lincom_ci.bounds", "adjust_alpha", "bounds", ""),
    ("lincom_ci.bounds", "build_interval_table", "bounds", "table"),
    ("lincom_ci.coverage", "build_interval_table", "bounds", "table"),
    ("lincom_ci.bounds", "_solve_lower", "bounds", "solve"),
    ("lincom_ci.bounds", "_solve_upper", "bounds", "solve"),
    ("lincom_ci.bounds", "sup_cdf", "optimizer", "search"),
    ("lincom_ci.bounds", "inf_cdf", "optimizer", "search"),
    ("lincom_ci.optimizer", "sample_constrained", "optimizer", "sampler"),
    ("lincom_ci.coverage", "sample_constrained", "coverage", "sampler"),
    ("lincom_ci.optimizer", "perturb", "optimizer", ""),
    ("lincom_ci.optimizer", "pmf_fft", "pmf", "pmf"),
    ("lincom_ci.coverage", "pmf_fft", "pmf", "pmf"),
    ("lincom_ci.coverage", "run_scenario", "coverage", ""),
    ("lincom_ci.coverage", "coverage_curve", "coverage", ""),
    ("lincom_ci.coverage", "comparator_curve", "coverage", "comparator"),
    ("lincom_ci.coverage", "average_coverage", "coverage", ""),
    ("lincom_ci.coverage", "coverage_at_p", "coverage", "cell"),
)

#: Work counts that must repeat exactly across traced runs at one seed.
WORK_COUNTS = (
    "pmf.calls",
    "optimizer.searches",
    "optimizer.sampler_calls",
    "bounds.solves",
    "bounds.table_builds",
    "coverage.cells",
)


class Tracer:
    """Records spans while installed; ``op_id`` tags the spans of the current op."""

    def __init__(self) -> None:
        self.names = [f"{mod.rsplit('.', 1)[1]}.{attr}" for mod, attr, _, _ in WRAPPED]
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = -1
        #: (pinned, residual above tol_f) per endpoint solve.
        self.solve_flags: list[tuple[bool, bool]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, Callable]] = []

    def _wrap(self, fn: Callable, nid: int, on_result: Optional[Callable]) -> Callable:
        name_id, start, end, parent, op, stack = (
            self.name_id, self.start, self.end, self.parent, self.op, self._stack
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        tol_f = bounds.SolverConfig().tol_f

        def record_solve(res) -> None:
            self.solve_flags.append((res.pinned, res.residual > tol_f))

        for nid, (mod_name, attr, _, kind) in enumerate(WRAPPED):
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, nid, record_solve if kind == "solve" else None))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def _arrays(self):
        nid = np.frombuffer(self.name_id, dtype=np.uint16)
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        return nid, start, end, parent

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op work counts and self times of every layer, plus per-call ratios."""
        nid, start, end, parent = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[has_parent], dur[has_parent])
        exclusive = dur - child
        layer = np.array([LAYERS.index(w[2]) for w in WRAPPED])[nid]
        kind = np.array([KINDS.index(w[3]) for w in WRAPPED])[nid]
        parent_kind = np.where(has_parent, kind[np.maximum(parent, 0)], 0)

        def of(name: str) -> np.ndarray:
            return kind == KINDS.index(name)

        def n(name: str) -> int:
            return int(np.count_nonzero(of(name)))

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out = {f"{name}.self_s": float(exclusive[layer == i].sum()) / n_ops
               for i, name in enumerate(LAYERS)}
        is_pmf, is_cell = of("pmf"), of("cell")
        n_search, n_solve = n("search"), n("solve")
        solves = len(self.solve_flags)
        out.update({
            "pmf.calls": n("pmf") / n_ops,
            "pmf.call_us": ratio(float(dur[is_pmf].sum()) * 1e6, n("pmf")),
            "optimizer.searches": n_search / n_ops,
            "optimizer.evals_per_search": ratio(
                np.count_nonzero(is_pmf & (parent_kind == KINDS.index("search"))), n_search),
            "optimizer.sampler_calls": n("sampler") / n_ops,
            "bounds.solves": n_solve / n_ops,
            "bounds.searches_per_solve": ratio(
                np.count_nonzero(of("search") & (parent_kind == KINDS.index("solve"))), n_solve),
            "bounds.table_builds": n("table") / n_ops,
            "bounds.table_s": float(dur[of("table")].sum()) / n_ops,
            "bounds.unresolved_frac": ratio(sum(u for _, u in self.solve_flags), solves),
            "bounds.pinned_frac": ratio(sum(p for p, _ in self.solve_flags), solves),
            "coverage.cells": n("cell") / n_ops,
            "coverage.cell_us": ratio(float(dur[is_cell].sum()) * 1e6, n("cell")),
            "coverage.comparator_s": float(dur[of("comparator")].sum()) / n_ops,
        })
        return out

    def dump(self, path: Path) -> None:
        nid, start, end, parent = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array([w[2] for w in WRAPPED]),
            name_id=nid,
            start=start,
            end=end,
            parent=parent,
            op=np.frombuffer(self.op, dtype=np.int64),
        )


# --- pmf kernel rows ----------------------------------------------------------


def kernel_problems() -> dict[str, model.Problem]:
    """A10, and the diagnostic problem with rounded and with exact weights."""
    table = bayescost.ContingencyTable(rows=workloads.PAPER_TABLES[0])
    rounded = workloads.diagnostic_weights("nearest-integer")
    return {
        "n91": coverage.ScenarioSpec(id="A", n=10).problem(),
        "n19153": bayescost.bc_problem(table, rounded)[0],
        "n476281": bayescost.bc_problem(table, workloads.diagnostic_weights("none"))[0],
    }


def computed_bytes(problem: model.Problem) -> int:
    """Bytes of the arrays one ``pmf_fft`` call reads or creates, from their sizes.

    The phase matrices it reads, then per call: the running transform, the
    matrix-vector product and its power for each block, the inverse FFT, and
    four lattice-length float arrays in normalisation.  Computed, not measured.
    """
    n_fft, mats = pmf._phase_matrices(problem)  # the package's per-problem cache
    count = model.y_lattice(problem).count
    complex_vectors = 2 + 2 * problem.K
    return sum(m.nbytes for m in mats) + 16 * n_fft * complex_vectors + 8 * 4 * count


#: Each kernel row times at least this many calls and at least this long.
KERNEL_MIN_CALLS = 5
KERNEL_MIN_SECONDS = 0.3


def kernel_rows() -> dict[str, float]:
    """Median ``pmf_fft`` wall time per call and computed MB per call, per lattice size."""
    out: dict[str, float] = {}
    for label, problem in kernel_problems().items():
        count = model.y_lattice(problem).count
        if label != f"n{count}":
            raise RuntimeError(f"kernel row {label} has a {count}-point lattice")
        rng = np.random.default_rng(0)
        mid = 0.5 * float(problem.L_min + problem.L_max)
        points = [optimizer.sample_constrained(problem, mid, rng) for _ in range(4)]
        pmf.pmf_fft(problem, points[0])  # build the phase matrices outside the timing
        times: list[float] = []
        deadline = time.perf_counter() + KERNEL_MIN_SECONDS
        while len(times) < KERNEL_MIN_CALLS or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            pmf.pmf_fft(problem, points[len(times) % len(points)])
            times.append(time.perf_counter() - t0)
        out[f"pmf.call_us.{label}"] = float(np.median(times)) * 1e6
        out[f"pmf.computed_mb.{label}"] = computed_bytes(problem) / 1e6
    return out
