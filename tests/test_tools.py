"""The repository's comparison tools still run against the package."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ab_ops_one_round(workload):
    """Run one round of ``workload`` with the tree on both sides: the tool
    exits 0 and ends with its JSON summary line, the per-round ratio's
    quartiles included, whose median is the headline ratio."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_ops.py"), str(ROOT), str(ROOT),
         "--workload", workload, "--seed", "1", "--rounds", "1"],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].split()[-2:] == ["q1", "q3"]
    summary = json.loads(lines[-1])
    assert summary["workload"] == workload and summary["rounds"] == 1
    assert set(summary["rows_per_s"]) == {"parent", "change"}
    q1, median, q3 = summary["round_ratio_quartiles"]
    assert 0 < q1 <= median <= q3
    assert summary["change_over_parent"] == median


def test_ab_ops_times_a_checkout_against_itself():
    # one round of evolve-lib: the stacks of both sides agree, so it times
    # them and ends with the JSON summary line
    _ab_ops_one_round("evolve-lib")


def test_ab_ops_fingerprints_the_tables_of_a_cli_workload():
    # one round of scan-cli: every table each side writes is compared byte
    # for byte before any timing, the check a table-writer change relies on
    _ab_ops_one_round("scan-cli")


def test_ab_ops_times_nothing_when_the_outputs_differ(tmp_path):
    # a copy whose CSV writer prints 16 digits in place of 17: the first
    # untimed round finds the tables differ, so the tool stops with exit 1
    # before any timing and prints no summary line
    change = tmp_path / "change"
    for tree in ("src", "perfbench"):
        shutil.copytree(ROOT / tree, change / tree, ignore=shutil.ignore_patterns("__pycache__"))
    writer = change / "src" / "nipsqw" / "cli.py"
    text = writer.read_text(encoding="utf-8")
    assert text.count('FMT = "%.17g"') == 1
    writer.write_text(text.replace('FMT = "%.17g"', 'FMT = "%.16g"'), encoding="utf-8")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_ops.py"), str(ROOT), str(change),
         "--workload", "scan-cli", "--rounds", "1"],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert run.returncode == 1
    assert "outputs differ on epscan n=4; nothing timed" in run.stderr
    assert not any(line.startswith("{") for line in run.stdout.splitlines())


def test_hash_outputs_prints_its_twelve_fingerprints():
    # the fingerprints every refactor compares against its parent's; the
    # tool reaches into the map memo, so a rename there must show here
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "hash_outputs.py")],
                         capture_output=True, text=True, env=env, timeout=300, check=False)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 12 and all(re.fullmatch(r"\S.* +[0-9a-f]{64}", line) for line in lines)


def test_readme_names_the_newest_benchmark_record():
    # each performance change adds a BENCH_<pr>.json; README's benchmark
    # paragraph lists the records, so the newest must be among them
    newest = max(ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))
    assert f"`{newest.name}`" in (ROOT / "README.md").read_text(encoding="utf-8")
