"""Smoke test: every demo script runs to completion.

Each demo is copied into a fresh directory and run there with the
package on the path, so files a demo writes next to itself (the band
curve CSV) land in that directory, not in the source tree.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import nipsqw

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
PACKAGE_ROOT = str(Path(nipsqw.__file__).resolve().parents[1])


def test_all_four_demos_are_found():
    assert [demo.name for demo in DEMOS] == [
        "band_structure.py",
        "coalescence_scan.py",
        "hidden_unitarity.py",
        "metric_family.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    script = shutil.copy(demo, tmp_path)
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, script],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    if demo.stem == "band_structure":
        assert (tmp_path / "band_structure.csv").read_text().startswith("energy,")
