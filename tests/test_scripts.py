"""Smoke runs of the scripts under ``scripts/``, each in a child interpreter."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lincom_ci import NumericalError, OptimizerConfig, SolverConfig, fiducial_interval
from lincom_ci.bayescost import bc_problem, bc_weights
from lincom_ci.cli import dispatch

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run_script(name: str, *args: str, code: int = 0) -> subprocess.CompletedProcess:
    # The child needs src/ on its path whether or not PYTHONPATH is set.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == code, proc.stderr
    return proc


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_prints_library_bounds(proc, rounding: str, seed: int) -> None:
    """Each printed bound equals ``fiducial_interval`` at the script's weights and seed."""
    script = load_script("run_diagnostic_example.py")
    weights = bc_weights(script.COSTS, script.PREVALENCES, rounding=rounding)
    cfg = SolverConfig(optimizer=OptimizerConfig(seed=seed))
    lines = proc.stdout.splitlines()[1:]
    assert len(lines) == len(script.TABLES)
    for line, (name, table) in zip(lines, script.TABLES.items()):
        problem, counts = bc_problem(table, weights)
        res = fiducial_interval(problem, counts, 0.05, cfg)
        assert line.startswith(name)
        assert line.split()[-3:-1] == [f"{res.lower:.3f}", f"{res.upper:.3f}"]


def test_diagnostic_example_uses_its_seed():
    # Seed 7 moves every printed bound away from the default seed's.
    proc = run_script("run_diagnostic_example.py", "--seed", "7")
    assert_prints_library_bounds(proc, "nearest-integer", 7)


def test_diagnostic_example_with_exact_weights():
    # The 476,281-point lattice, read by outcome enumeration, at the default seed.
    proc = run_script("run_diagnostic_example.py", "--no-round")
    assert_prints_library_bounds(proc, "none", 42)


def test_scenario_sweep_writes_a_curve_and_a_summary(tmp_path):
    run_script("run_scenario_sweep.py", "--out", str(tmp_path), "--scenarios", "C", "--sizes", "2")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [(entry["scenario"], entry["n"]) for entry in summary] == [("C", 2)]
    assert 0.0 <= summary[0]["confidence_coefficient"] <= 1.0
    rows = (tmp_path / "scenario_C_n2.csv").read_text().splitlines()
    assert rows[0] == "L,coverage_exact,coverage_comparator"
    assert len(rows) == 1 + 50  # the desk budget's grid


def test_scenario_sweep_csv_is_the_cli_curve(tmp_path, capsys):
    # Same seed (42), desk budget and alpha (0.05) on both sides; only the
    # file keeps csv's default \r\n line endings.
    script = load_script("run_scenario_sweep.py")
    assert script.main(["--out", str(tmp_path), "--scenarios", "C", "--sizes", "2"]) == 0
    capsys.readouterr()
    assert dispatch(["scenario", "--id", "C", "--n", "2"]) == 0
    expected = capsys.readouterr().out.replace("\n", "\r\n").encode()
    assert (tmp_path / "scenario_C_n2.csv").read_bytes() == expected


BAD_INPUTS = [
    (["--seed", "-1"], "seed must be"),
    (["--alpha", "1.5"], "alpha must lie in"),
    (["--alpha", "0"], "alpha must lie in"),
]


def test_scenario_sweep_reports_bad_input(tmp_path):
    proc = run_script("run_scenario_sweep.py", "--out", str(tmp_path), "--seed", "-1", code=2)
    assert proc.stderr.splitlines()[-1].startswith("error: seed must be")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args, message", BAD_INPUTS)
def test_scenario_sweep_bad_input_exits_2(tmp_path, capsys, args, message):
    script = load_script("run_scenario_sweep.py")
    assert script.main(["--out", str(tmp_path), "--scenarios", "C", "--sizes", "2", *args]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(f"error: {message}")


def test_scenario_sweep_checks_every_scenario_before_sweeping(tmp_path, capsys, monkeypatch):
    script = load_script("run_scenario_sweep.py")

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran before every scenario was checked")

    monkeypatch.setattr(script, "run_scenario", no_sweep)
    assert script.main(["--out", str(tmp_path), "--scenarios", "C", "E", "--sizes", "2"]) == 2
    assert capsys.readouterr().err == "error: scenario id must be one of A, B, C, D, got 'E'\n"
    assert script.main(["--out", str(tmp_path), "--scenarios", "C", "--sizes", "2", "0"]) == 2
    assert not any(tmp_path.iterdir())


def test_scenario_sweep_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    script = load_script("run_scenario_sweep.py")

    def fail(*args, **kwargs):
        raise NumericalError("bracket exhausted")

    monkeypatch.setattr(script, "run_scenario", fail)
    assert script.main(["--out", str(tmp_path), "--scenarios", "C", "--sizes", "2"]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == "numerical failure: bracket exhausted"


@pytest.mark.parametrize("args, message", BAD_INPUTS)
def test_diagnostic_example_bad_input_exits_2(capsys, args, message):
    # Rejected before anything is printed: no table header on stdout.
    assert load_script("run_diagnostic_example.py").main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}")


def test_diagnostic_example_reports_bad_alpha_before_any_output():
    proc = run_script("run_diagnostic_example.py", "--alpha", "0", code=2)
    assert proc.stdout == ""
    assert proc.stderr == "error: alpha must lie in (0, 1), got 0.0\n"


def test_diagnostic_example_numerical_failure_exits_3(capsys, monkeypatch):
    script = load_script("run_diagnostic_example.py")

    def fail(*args, **kwargs):
        raise NumericalError("bracket exhausted")

    monkeypatch.setattr(script, "fiducial_interval", fail)
    assert script.main([]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == "numerical failure: bracket exhausted"
