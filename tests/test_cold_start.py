"""Cold start: no command loads scipy.

The package runs on numpy alone; ``scipy.interpolate`` would cost most of
a fresh interpreter's start, and a ``table:`` profile's spline is built in
numpy.  The check runs the commands through ``cli.main`` in a new
interpreter, so modules the test process has already imported cannot hide
a regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import nipsqw

PACKAGE_ROOT = str(Path(nipsqw.__file__).resolve().parents[1])

SCRIPT = r"""
import contextlib, io, json, sys

import nipsqw
import nipsqw.cli


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return nipsqw.cli.main(list(argv))


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


evolve = ("evolve", "--n", "3", "--psi0", "1,0,0,0,0,0", "--t1", "1", "--dt", "0.05")
report = {"imported": scipy_modules()}
report["plain_codes"] = [
    run("spectrum", "--n", "6", "--r", "0.5"),
    run("epscan", "--n", "6", "--r-min", "0.05", "--r-max", "1", "--samples", "9"),
    run("curve", "--n", "6", "--e-min", "0.1", "--e-max", "3.9", "--samples", "9"),
    run("metric", "--n", "3", "--phi", "1.0"),
    run(*evolve, "--profile", "linear:phi0=1.2,omega=-0.3"),
]
report["after_plain"] = scipy_modules()
report["table_code"] = run(*evolve, "--profile", "table:" + sys.argv[1])
report["after_table"] = scipy_modules()
print(json.dumps(report))
"""


def test_no_command_imports_scipy(tmp_path):
    times = np.linspace(0.0, 1.0, 6)
    table = tmp_path / "line.csv"
    np.savetxt(table, np.column_stack([times, 1.2 - 0.3 * times]), delimiter=",")
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(table)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["imported"] == []
    assert report["plain_codes"] == [0, 0, 0, 0, 0]
    assert report["after_plain"] == []
    assert report["table_code"] == 0
    assert report["after_table"] == []
