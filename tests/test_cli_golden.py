"""Byte-identical CLI stdout against stored captures at fixed seeds.

Each case runs one subcommand on small fixed inputs and compares stdout with
``tests/golden/<name>.out``.  Refactors must leave these bytes unchanged; a
change that is meant to move results regenerates the captures with
``python tests/test_cli_golden.py`` and says so.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from lincom_ci.cli import dispatch

GOLDEN = Path(__file__).parent / "golden"

# Input files, written to a scratch directory and referenced as {name}.
FILES = {
    "c5.json": '{"experiments": [{"n": 5, "weights": [1, 0]}, {"n": 5, "weights": [-1, 0]}], "alpha": 0.05}\n',
    "a3.json": '{"experiments": [{"n": 3, "weights": [0, 1, 1]}, {"n": 3, "weights": [2, 0, 3]}, {"n": 3, "weights": [5, 3, 0]}]}\n',
    "binomial6.json": '{"experiments": [{"n": 6, "weights": [1, 0]}], "alpha": 0.05}\n',
    "counts_c5.csv": "3,2\n1,4\n",
    "counts_a3.csv": "1,1,1\n0,2,1\n2,0,1\n",
    "counts_binomial6.csv": "2,4\n",
    "probs_c5.csv": "0.3,0.7\n0.6,0.4\n",
    "probs_a3.csv": "0.2,0.3,0.5\n0.1,0.6,0.3\n0.5,0.25,0.25\n",
    "table.csv": "26,1,5\n5,9,4\n1,2,11\n",
    "costs.csv": "0,4,4\n25,0,4\n45,14,0\n",
    "prev.csv": "0.50,0.28,0.22\n",
}

CASES = {
    "bounds_c5": ["bounds", "--config", "{c5.json}", "--counts", "{counts_c5.csv}", "--seed", "7"],
    "bounds_a3": [
        "bounds", "--config", "{a3.json}", "--counts", "{counts_a3.csv}", "--alpha", "0.1",
        "--seed", "3", "--nr", "10", "--ns", "10",
    ],
    "bounds_adjusted": [
        "bounds", "--config", "{binomial6.json}", "--counts", "{counts_binomial6.csv}",
        "--adjusted", "--grid", "8", "--seed", "5",
    ],
    "pmf_c5": ["pmf", "--config", "{c5.json}", "--probs", "{probs_c5.csv}"],
    "pmf_a3": ["pmf", "--config", "{a3.json}", "--probs", "{probs_a3.csv}"],
    "coverage_goodman": [
        "coverage", "--config", "{c5.json}", "--comparator", "goodman",
        "--n-l", "4", "--n-p", "3", "--draws", "30", "--seed", "3",
    ],
    "coverage_exact": [
        "coverage", "--config", "{binomial6.json}", "--n-l", "5", "--n-p", "2", "--seed", "9",
    ],
    "scenario_c5": [
        "scenario", "--id", "C", "--n", "5", "--n-l", "4", "--n-p", "3", "--draws", "40",
        "--seed", "11",
    ],
    "scenario_a2": [
        "scenario", "--id", "A", "--n", "2", "--n-l", "3", "--n-p", "2", "--draws", "20",
        "--seed", "4",
    ],
    "scenario_d2": [
        "scenario", "--id", "D", "--n", "2", "--n-l", "3", "--n-p", "2", "--draws", "10",
        "--seed", "2",
    ],
    "adjust_alpha_binomial6": [
        "adjust-alpha", "--config", "{binomial6.json}", "--grid", "10", "--seed", "5",
    ],
    "bayes_cost_rounded": [
        "bayes-cost", "--table", "{table.csv}", "--costs", "{costs.csv}", "--prev", "{prev.csv}",
        "--round", "--alpha", "0.05", "--seed", "1",
    ],
}


def run_case(name: str) -> str:
    """Stdout of one case, with its input files in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for fname, text in FILES.items():
            path = Path(tmp) / fname
            path.write_text(text)
            paths[fname] = str(path)
        argv = [paths[arg[1:-1]] if arg.startswith("{") else arg for arg in CASES[name]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch(argv)
        if code != 0:
            raise AssertionError(f"{name} exited {code}: {err.getvalue()}")
        return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_capture(name):
    expected = (GOLDEN / f"{name}.out").read_text()
    assert run_case(name) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        (GOLDEN / f"{case}.out").write_text(run_case(case))
        print(f"wrote {case}", file=sys.stderr)
