"""The repository's comparison tools still run against the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_ops_times_a_checkout_against_itself():
    # one round of evolve-lib with the tree on both sides: the outputs agree,
    # so it times them and ends with the JSON summary line
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_ops.py"), str(ROOT), str(ROOT),
         "--workload", "evolve-lib", "--seed", "1", "--rounds", "1"],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert run.returncode == 0, run.stderr
    summary = json.loads(run.stdout.splitlines()[-1])
    assert summary["workload"] == "evolve-lib" and summary["rounds"] == 1
    assert set(summary["rows_per_s"]) == {"parent", "change"}
