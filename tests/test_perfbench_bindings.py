"""The benchmark's bindings into the package still resolve.

``perfbench/tracing.py`` wraps library functions by module and attribute
name, and each workload warms its problems through public functions, so a
refactor that drops or renames one of them breaks the benchmark.  These
checks catch that in the test suite.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("module, attr", [(mod, attr) for mod, attr, _, _ in tracing.WRAPPED])
def test_wrapped_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("name", ["interval", "calibrate", "sweep"])
def test_workload_prepares(name):
    assert workloads.build(name, 1).prepare() >= 0.0
