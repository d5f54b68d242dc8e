"""Set-up probe: what a fresh interpreter pays before its first useful op.

Imports ``nipsqw.cli``, builds the argument parser and runs the workload's
warm-up op once, then exits.  ``run.py`` times the whole child process.

    python3 perfbench/setup_probe.py --workload evolve-lib
"""

import argparse
import sys
from pathlib import Path

import nipsqw.cli

import workloads


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()
    nipsqw.cli.build_parser()
    runner = workloads.Runner(Path(args.work_dir))
    op = workloads.warmup_op(args.workload)
    outcome = runner.run(op, runner.prepare(op))
    if outcome.error is not None:
        print(f"warm-up op failed: {outcome.error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
