"""One set-up sample in a fresh interpreter: import, build the workload, warm it.

Usage: python3 perfbench/setup_child.py <workload> <seed>

Prints one JSON line, ``{"lincom_ci.import_s": ..., "model.setup_s": ...}``,
once the first op is ready, then exits.  The parent times the whole process up
to that line, interpreter start-up included.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
t_import = time.perf_counter()
import lincom_ci  # noqa: E402,F401

import_s = time.perf_counter() - t_import

import workloads  # noqa: E402

model_setup_s = workloads.build(sys.argv[1], int(sys.argv[2])).prepare()
print(json.dumps({"lincom_ci.import_s": import_s, "model.setup_s": model_setup_s}), flush=True)
