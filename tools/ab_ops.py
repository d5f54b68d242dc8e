"""Time two checkouts against each other op by op, in one interpreter.

Separate benchmark processes on a shared host can read one tree's
``rows_per_s`` more than ten percent apart from run to run, which hides
a change of a few percent.  This script loads the package of each checkout
into one interpreter, each with its own ``perfbench.workloads``, and runs
every template op of a workload's rounds on both sides back to back, the
side that goes first alternating from op to op, so that drift of the host
hits both alike.

It first runs the first round of ``--seed`` once on each side, untimed,
and stops unless both give the same outputs: every exit status, error and
written table byte for byte (the CLI workloads), and every stack of every
trajectory within ``BOUND`` of the stack's largest entry (``evolve-lib``),
so that a change which moves ``evolve`` by rounding can still be timed.
Then it times ``--rounds`` rounds and prints, per template op, the largest
move of any of its stacks relative to that stack's largest entry (0 for
equal outputs), the median milliseconds of each side, their ratio and the
quartiles of the op's per-round change/parent ratio, and last, as one JSON
line, the ``rows_per_s`` of each side in the benchmark's way (rows of a
round over the sum of per-op medians, uncalibrated) and the quartiles of
the per-round ``rows_per_s`` change/parent ratio, whose median is the
headline ``change_over_parent``.  Where 1 lies between the outer
quartiles, the change is not resolved from the spread.  Tables go to a
temporary directory; nothing is written under ``perfbench/``.

    python3 tools/ab_ops.py PARENT_CHECKOUT CHANGE_CHECKOUT \\
        --workload evolve-lib --seed 1 --rounds 30

Pin BLAS to one thread (``OPENBLAS_NUM_THREADS=1`` and the like) as the
benchmark does.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
STACKS = ("t", "psi", "theta", "phys_norm", "generator", "omega")
#: largest move of a drive's stack, relative to the stack's largest entry,
#: that still counts as the same output: the bound
#: ``test_evolve_is_classic_rk4_on_the_generator`` holds ``evolve`` to
BOUND = 1e-12


def load(root: Path):
    """``perfbench.workloads`` of the checkout at ``root``, bound to its own
    ``nipsqw``; the modules of the side loaded before stay with their objects."""
    for name in [name for name in sys.modules if name.split(".")[0] in ("nipsqw", "perfbench")]:
        del sys.modules[name]
    sys.path[:0] = [str(root / "src"), str(root)]
    try:
        return importlib.import_module("perfbench.workloads")
    finally:
        del sys.path[:2]


class Side:
    """One checkout's workloads module and a runner in its own directory."""

    def __init__(self, root: Path, work: Path):
        self.workloads = load(root)
        self.runner = self.workloads.Runner(work)

    def run(self, op):
        """The op's untimed preparation, then its timed run: (seconds, outcome)."""
        argv = self.runner.prepare(op)
        start = time.perf_counter()
        outcome = self.runner.run(op, argv)
        return time.perf_counter() - start, outcome

    def outputs(self, op, outcome):
        """What the op gave: its error or its table as bytes, else the stacks
        of a drive."""
        if outcome.error is not None:
            return outcome.error.encode()
        if op.kind == "drive":
            return [np.asarray(getattr(states, name))
                    for states in outcome.output for name in STACKS]
        return self.runner.out_path.read_bytes()


def move(parent, change) -> float:
    """The largest move of the change's outputs from the parent's, each
    stack's relative to its largest entry: 0.0 for equal outputs, inf for
    bytes that differ, stacks of other shapes or a non-finite move."""
    if isinstance(parent, bytes) or isinstance(change, bytes):
        return 0.0 if parent == change else np.inf
    if [a.shape for a in parent] != [b.shape for b in change]:
        return np.inf
    worst = 0.0
    for a, b in zip(parent, change):
        if not np.array_equal(a, b, equal_nan=True):
            with np.errstate(all="ignore"):
                gap = np.abs(a - b).max() / np.abs(a).max()
            worst = max(worst, float(gap) if np.isfinite(gap) else np.inf)
    return worst


def quartiles(ratios) -> list:
    """The 25th, 50th and 75th percentiles of per-round ratios, one round included."""
    return np.percentile(ratios, [25, 50, 75]).tolist()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        choices=("evolve-lib", "evolve-cli", "scan-cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as work:
        sides = {name: Side(root.resolve(), Path(work) / name)
                 for name, root in zip(SIDES, (args.parent, args.change))}
        # both sides draw the same ops from the same seed; take the parent's
        source = sides["parent"].workloads.rounds(args.workload, args.seed)
        moves = []
        for op in next(source):
            moves.append(move(*(side.outputs(op, side.run(op)[1]) for side in sides.values())))
            if not moves[-1] <= BOUND:
                print(f"outputs differ on {op.label}; nothing timed", file=sys.stderr)
                return 1
        times, rows, totals = {}, {}, []
        for number, ops in zip(range(args.rounds), source):
            totals.append(dict.fromkeys(SIDES, 0.0))
            for index, op in enumerate(ops):
                for name in SIDES if (number + index) % 2 else SIDES[::-1]:
                    seconds, outcome = sides[name].run(op)
                    if outcome.error is not None:
                        print(f"{name} failed {op.label}: {outcome.error}", file=sys.stderr)
                        return 1
                    times.setdefault((index, op.label), {}).setdefault(name, []).append(seconds)
                    totals[-1][name] += seconds
                rows[index] = op.rows

    medians = {key: {name: statistics.median(samples[name]) for name in SIDES}
               for key, samples in times.items()}
    print(f"{'op':<40} {'move':>8} {'parent ms':>10} {'change ms':>10} {'ratio':>7} "
          f"{'q1':>7} {'q3':>7}")
    for key, median in medians.items():
        q1, _, q3 = quartiles(np.divide(times[key]["change"], times[key]["parent"]))
        print(f"{key[1]:<40} {moves[key[0]]:>8.1e} {median['parent'] * 1e3:>10.3f} "
              f"{median['change'] * 1e3:>10.3f} {median['change'] / median['parent']:>7.3f} "
              f"{q1:>7.3f} {q3:>7.3f}")
    goodput = {name: sum(rows.values()) / sum(median[name] for median in medians.values())
               for name in SIDES}
    # a round's rows_per_s ratio is its parent seconds over its change seconds
    round_quartiles = quartiles([total["parent"] / total["change"] for total in totals])
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": args.rounds,
                      "rows_per_s": goodput,
                      "change_over_parent": round_quartiles[1],
                      "round_ratio_quartiles": round_quartiles}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
