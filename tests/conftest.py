import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from lincom_ci import NumericalError, bounds, build_problem, experiment
from lincom_ci.coverage import ScenarioSpec

# Deterministic, time-limit-free property testing so the suite is reproducible.
settings.register_profile("repo", deadline=None, derandomize=True, max_examples=30)
settings.load_profile("repo")


#: Any value a JSON document can hold (Python's ``json`` also reads NaN and Infinity).
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def json_configs(n, weight):
    """Config-shaped JSON with fields drawn from ``n`` and ``weight``; any field may be any JSON."""
    entry = st.fixed_dictionaries(
        {"n": n, "weights": st.lists(weight, min_size=2, max_size=4) | json_values}
    )
    config = st.fixed_dictionaries(
        {"experiments": st.lists(entry, min_size=1, max_size=3)},
        optional={"alpha": st.floats(0, 1) | json_values},
    )
    return config | st.fixed_dictionaries({"experiments": json_values}) | json_values


def fail_one_bracket(monkeypatch, which: int) -> None:
    """Make the ``which``-th bracketed root solve raise a ``NumericalError``."""
    real, calls = bounds._bracket_solve, []

    def bracket(*args):
        calls.append(None)
        if len(calls) == which:
            raise NumericalError("synthetic bracket failure")
        return (yield from real(*args))

    monkeypatch.setattr(bounds, "_bracket_solve", bracket)


@pytest.fixture
def binomial10():
    return build_problem([experiment(10, (1, 0))])


@pytest.fixture
def scenario_c5():
    return ScenarioSpec(id="C", n=5).problem()


@pytest.fixture
def scenario_a5():
    return ScenarioSpec(id="A", n=5).problem()


@pytest.fixture
def scenario_d3():
    return ScenarioSpec(id="D", n=3).problem()


def random_small_problem(rng: np.random.Generator, max_lattice: int = 50):
    """Random problem with a small lattice, for property sweeps."""
    while True:
        k = int(rng.integers(1, 3))
        specs = []
        for _ in range(k):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(2, 7))
            weights = tuple(int(rng.integers(-3, 4)) for _ in range(m))
            specs.append(experiment(n, weights))
        problem = build_problem(specs)
        from lincom_ci import y_lattice

        if y_lattice(problem).count <= max_lattice:
            return problem
