"""Command-line surface: exit codes, output formats, determinism."""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lincom_ci import NumericalError, SolverConfig
from lincom_ci.cli import dispatch
from lincom_ci.coverage import Budget, ScenarioSpec, run_scenario

from conftest import fail_one_bracket, json_configs

CONFIG_C = '{"experiments": [{"n": 5, "weights": [1, 0]}, {"n": 5, "weights": [-1, 0]}], "alpha": 0.05}'
CONFIG_BINOMIAL = '{"experiments": [{"n": 6, "weights": [1, 0]}], "alpha": 0.05}'


def uniform_probs(cfg) -> str:
    """A uniform probability row per experiment entry, sized by its weights list."""
    entries = cfg.get("experiments") if isinstance(cfg, dict) else None
    rows = []
    for ent in entries if isinstance(entries, list) else [None]:
        weights = ent.get("weights") if isinstance(ent, dict) else None
        m = len(weights) if isinstance(weights, list) and weights else 2
        rows.append(",".join([repr(1 / m)] * m))
    return "\n".join(rows) + "\n"


@pytest.fixture
def config_c(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(CONFIG_C)
    return str(path)


@pytest.fixture
def config_binomial(tmp_path):
    path = tmp_path / "b.json"
    path.write_text(CONFIG_BINOMIAL)
    return str(path)


@pytest.fixture
def counts_c(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("3,2\n1,4\n")
    return str(path)


class TestBounds:
    def test_happy_path_json(self, config_c, counts_c, capsys):
        code = dispatch(["bounds", "--config", config_c, "--counts", counts_c, "--alpha", "0.05"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimate"] == 0.4
        assert payload["lower"] < 0.4 < payload["upper"]
        assert payload["alpha"] == 0.05
        assert payload["adjusted_alpha"] is None

    def test_alpha_from_config(self, config_c, counts_c, capsys):
        assert dispatch(["bounds", "--config", config_c, "--counts", counts_c]) == 0
        assert json.loads(capsys.readouterr().out)["alpha"] == 0.05

    def test_invalid_alpha_exits_2(self, config_c, counts_c, capsys):
        code = dispatch(
            ["bounds", "--config", config_c, "--counts", counts_c, "--alpha", "1.5"]
        )
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_bad_counts_exits_2(self, config_c, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("3,3\n1,4\n")
        code = dispatch(["bounds", "--config", config_c, "--counts", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "block" in err and "error:" in err

    def test_non_integer_count_exits_2(self, config_c, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("3,x\n1,4\n")
        code = dispatch(["bounds", "--config", config_c, "--counts", str(bad)])
        assert code == 2
        assert "count block 0 has a non-integer cell 'x'" in capsys.readouterr().err

    def test_missing_file_exits_2(self, config_c, capsys):
        code = dispatch(["bounds", "--config", config_c, "--counts", "/nonexistent.csv"])
        assert code == 2

    def test_numerical_failure_exits_3(self, config_c, counts_c, monkeypatch, capsys):
        import lincom_ci.cli as cli_mod

        def boom(*args, **kwargs):
            raise NumericalError("synthetic drift")

        monkeypatch.setattr(cli_mod.bounds, "fiducial_interval", boom)
        code = dispatch(["bounds", "--config", config_c, "--counts", counts_c])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, which", [
        (["bounds", "--counts", "COUNTS"], 2),
        (["adjust-alpha", "--grid", "4"], 5),
    ])
    def test_failing_solve_exits_3(self, config_c, counts_c, monkeypatch, capsys, argv, which):
        # One endpoint solve of the interval, or of a calibration table, fails.
        fail_one_bracket(monkeypatch, which)
        argv = [counts_c if a == "COUNTS" else a for a in argv]
        assert dispatch([*argv, "--config", config_c]) == 3
        assert "synthetic bracket failure" in capsys.readouterr().err

    def test_bad_counts_exit_2_before_calibration(self, config_c, tmp_path, monkeypatch, capsys):
        import lincom_ci.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("adjust_alpha ran on invalid counts")

        monkeypatch.setattr(cli_mod.bounds, "adjust_alpha", never)
        bad = tmp_path / "bad.csv"
        bad.write_text("3,3\n1,4\n")
        code = dispatch(["bounds", "--config", config_c, "--counts", str(bad), "--adjusted"])
        assert code == 2
        assert "sums to" in capsys.readouterr().err

    def test_adjusted_solves_only_at_the_adjusted_level(self, config_c, counts_c, monkeypatch,
                                                        capsys):
        import lincom_ci.cli as cli_mod

        levels = []
        real = cli_mod.bounds.fiducial_interval
        monkeypatch.setattr(cli_mod.bounds, "adjust_alpha", lambda *args: 0.0625)
        monkeypatch.setattr(cli_mod.bounds, "fiducial_interval",
                            lambda problem, counts, alpha, cfg: levels.append(alpha)
                            or real(problem, counts, alpha, cfg))
        argv = ["bounds", "--config", config_c, "--counts", counts_c, "--adjusted"]
        assert dispatch(argv) == 0
        assert levels == [0.0625]
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimate"] == 0.4
        assert (payload["alpha"], payload["adjusted_alpha"]) == (0.05, 0.0625)

    def test_deterministic_output(self, config_c, counts_c, capsys):
        argv = ["bounds", "--config", config_c, "--counts", counts_c, "--seed", "7"]
        assert dispatch(argv) == 0
        first = capsys.readouterr().out
        assert dispatch(argv) == 0
        second = capsys.readouterr().out
        assert first == second


class TestPmf:
    def test_csv_output(self, config_c, tmp_path, capsys):
        probs = tmp_path / "p.csv"
        probs.write_text("0.5,0.5\n0.5,0.5\n")
        code = dispatch(["pmf", "--config", config_c, "--probs", str(probs)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "y,prob"
        assert len(lines) == 12  # header + 11 grid values
        total = sum(float(line.split(",")[1]) for line in lines[1:])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_bad_probs_exit_2(self, config_c, tmp_path):
        probs = tmp_path / "p.csv"
        probs.write_text("0.5,0.6\n0.5,0.5\n")
        assert dispatch(["pmf", "--config", config_c, "--probs", str(probs)]) == 2

    def test_solver_flags_rejected(self, config_c, tmp_path, capsys):
        probs = tmp_path / "p.csv"
        probs.write_text("0.5,0.5\n0.5,0.5\n")
        argv = ["pmf", "--config", config_c, "--probs", str(probs), "--seed", "1"]
        assert dispatch(argv) == 2

    def test_oversized_lattice_exits_2(self, tmp_path, capsys):
        config = tmp_path / "big.json"
        config.write_text(json.dumps(
            {"experiments": [{"n": n, "weights": [1, 0]} for n in (997, 991, 983)]}
        ))
        probs = tmp_path / "p.csv"
        probs.write_text("0.5,0.5\n0.5,0.5\n0.5,0.5\n")
        assert dispatch(["pmf", "--config", str(config), "--probs", str(probs)]) == 2
        assert "LCM of the trial counts" in capsys.readouterr().err

    @pytest.mark.parametrize("weights", [None, 5, "10"])
    def test_non_list_weights_exit_2(self, weights, tmp_path, capsys):
        config = tmp_path / "w.json"
        config.write_text(json.dumps({"experiments": [{"n": 5, "weights": weights}]}))
        probs = tmp_path / "p.csv"
        probs.write_text("0.5,0.5\n")
        assert dispatch(["pmf", "--config", str(config), "--probs", str(probs)]) == 2
        assert "weights must be a list" in capsys.readouterr().err

    # Trial counts and weights stay small enough that every lattice is tiny
    # or over the cap, so each example runs in milliseconds.  A probs file of
    # None is filled with uniform blocks shaped like the config.
    @given(
        json_configs(
            st.integers(1, 6) | st.sampled_from([-1, 0, None, True, 2.0, "3"]),
            st.sampled_from([*range(-4, 5), "1/3", "-0.5", 0.25, "x", "", "1/0", 1e300,
                             float("nan"), None, True, [1]]),
        ),
        st.none() | st.sampled_from(["0.5,0.5\n0.5,0.5\n", "0.5,x\n", "nan,nan\n", ""]),
    )
    def test_arbitrary_config_never_raises(self, cfg, probs_text):
        if probs_text is None:
            probs_text = uniform_probs(cfg)
        with tempfile.TemporaryDirectory() as tmp:
            config, probs = Path(tmp) / "c.json", Path(tmp) / "p.csv"
            config.write_text(json.dumps(cfg))
            probs.write_text(probs_text)
            assert dispatch(["pmf", "--config", str(config), "--probs", str(probs)]) in (0, 2, 3)


class TestScenario:
    def test_golden_against_module(self, capsys):
        argv = [
            "scenario", "--id", "C", "--n", "5", "--budget", "desk",
            "--n-l", "4", "--n-p", "3", "--draws", "40", "--seed", "11",
        ]
        assert dispatch(argv) == 0
        out = capsys.readouterr().out
        exact, comp, _ = run_scenario(
            ScenarioSpec(id="C", n=5), 0.05, Budget(n_L=4, n_p=3, n_draws=40),
            SolverConfig(), seed=11,
        )
        lines = out.strip().splitlines()
        assert lines[0] == "L,coverage_exact,coverage_comparator"
        for line, L, c, g in zip(lines[1:], exact.L_grid, exact.coverage, comp.coverage):
            cells = line.split(",")
            assert cells[0] == repr(float(L))
            assert cells[1] == repr(float(c))
            assert cells[2] == repr(float(g))

    def test_scenario_d_empty_comparator_column(self, capsys):
        argv = [
            "scenario", "--id", "D", "--n", "2", "--budget", "desk",
            "--n-l", "3", "--n-p", "2", "--draws", "10",
        ]
        assert dispatch(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.endswith(",") for line in lines[1:])

    def test_unknown_budget_exits_2(self, capsys):
        assert dispatch(["scenario", "--id", "C", "--n", "5", "--budget", "huge"]) == 2


class TestCoverageCommand:
    def test_csv_and_summary(self, config_c, capsys):
        argv = [
            "coverage", "--config", config_c, "--comparator", "goodman",
            "--n-l", "3", "--n-p", "2", "--draws", "20", "--seed", "3",
        ]
        assert dispatch(argv) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0] == "L,coverage_exact,coverage_comparator"
        assert len(lines) == 4
        assert "avg_coverage" in captured.err

    def test_weight_whose_float_lies_below_it(self, tmp_path, capsys):
        # float(1/3) lies below 1/3; the grid starts there and must be sampled.
        path = tmp_path / "third.json"
        path.write_text('{"experiments": [{"n": 3, "weights": ["1/3", 1]}], "alpha": 0.05}')
        assert dispatch(["coverage", "--config", str(path), "--n-l", "3", "--n-p", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].startswith(f"{1 / 3!r},")

    @pytest.mark.parametrize("flag", ["--n-l", "--n-p", "--draws"])
    def test_zero_override_exits_2(self, config_c, flag, capsys):
        argv = ["coverage", "--config", config_c, "--comparator", "goodman", flag, "0"]
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be >= 1" in captured.err


class TestAdjustAlpha:
    def test_json_output(self, config_binomial, capsys):
        assert dispatch(["adjust-alpha", "--config", config_binomial, "--grid", "10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha"] == 0.05
        assert payload["adjusted_alpha"] >= 0.05


class TestBayesCost:
    @pytest.fixture
    def inputs(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text("26,1,5\n5,9,4\n1,2,11\n")
        costs = tmp_path / "costs.csv"
        costs.write_text("0,4,4\n25,0,4\n45,14,0\n")
        prev = tmp_path / "prev.csv"
        prev.write_text("0.50,0.28,0.22\n")
        return str(table), str(costs), str(prev)

    def test_rounded_run(self, inputs, capsys):
        table, costs, prev = inputs
        argv = [
            "bayes-cost", "--table", table, "--costs", costs, "--prev", prev,
            "--round", "--alpha", "0.05",
        ]
        assert dispatch(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimate"] == pytest.approx(3.6845, abs=1e-3)
        assert payload["lower"] < payload["estimate"] < payload["upper"]
        assert payload["weights"][6] == "10"

    def test_non_integer_cell_exits_2(self, inputs, tmp_path, capsys):
        _, costs, prev = inputs
        table = tmp_path / "bad.csv"
        table.write_text("26,1,x\n5,9,4\n1,2,11\n")
        argv = ["bayes-cost", "--table", str(table), "--costs", costs, "--prev", prev]
        assert dispatch(argv) == 2
        assert "non-integer cell 'x'" in capsys.readouterr().err

    def test_transpose_flag(self, inputs, tmp_path, capsys):
        table, costs, prev = inputs
        transposed = tmp_path / "tt.csv"
        transposed.write_text("26,5,1\n1,9,2\n5,4,11\n")
        argv_a = ["bayes-cost", "--table", table, "--costs", costs, "--prev", prev, "--round"]
        argv_b = [
            "bayes-cost", "--table", str(transposed), "--costs", costs, "--prev", prev,
            "--round", "--transpose",
        ]
        assert dispatch(argv_a) == 0
        first = json.loads(capsys.readouterr().out)
        assert dispatch(argv_b) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second


class TestDispatchPlumbing:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert dispatch(["frobnicate"]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert dispatch(["pmf", "--bogus"]) == 2

    def test_console_entry_point(self, config_c, counts_c):
        # The child needs src/ on its path whether or not PYTHONPATH is set.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "lincom_ci.cli", "bounds", "--config", config_c,
             "--counts", counts_c],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["estimate"] == 0.4
