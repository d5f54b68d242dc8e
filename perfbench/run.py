"""nipsqw benchmark: seeded workloads, oracle-checked, one op at a time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload evolve-lib --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.WORKLOADS`` for why each was chosen):
``evolve-lib``, ``evolve-cli`` and ``scan-cli``.  One client runs a closed
loop in this process, on one thread: the next op starts when the previous
one has finished.  Ops come in rounds of a fixed template.  A run makes a
fixed number of rounds, ``--seconds`` over the workload's nominal round time
(``workloads.NOMINAL_ROUND_S``), so it measures about ``--seconds`` of op
time at seed speed, and the ops, and with them ``attempted`` and ``failed``,
depend only on the seed and ``--seconds``, never on the host's speed.
Every op's output is checked by ``oracle.py`` outside the timed region; a
failed op is one that raised, exited nonzero, or failed its check.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of the time to import
  ``nipsqw.cli``, build the parser and finish one warm-up op, expressed at
  the reference machine speed (see ``make_calibration``);
* ``rows_per_s``: output rows that passed their check per second of op time,
  failed ops included in the time, with each template op's time taken as
  its median over the rounds and expressed at a reference machine speed
  (see ``goodput`` and ``make_calibration``);
* ``passed_frac``: ops that passed over ops attempted;
* ``peak_rss_mb``: peak resident set of this process.

``--trace 1`` runs a fixed number of rounds twice, untraced and traced, and
prints per-layer metrics: for every traced public function its calls,
failed calls, and self and total time as shares of the traced op time
(``trace_op_s``), exact calls-per-row ratios, and ``trace_overhead_frac``.
Spans are written to ``perfbench/out/spans-<workload>.jsonl``.

The last line of standard output is the result object; the line before it
is a report with the environment, the failed ops and their reasons.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
#: fewest rounds in an untraced run; goodput takes per-op medians over them
MIN_ROUNDS = 3
SETUP_TIMEOUT_S = 60
#: time of the calibration kernel on the 2-core x86 VM the benchmark was
#: defined on (measured 3.9-5.1 ms); op times are expressed at this speed
CALIB_REF_S = 0.004


def pinned_env() -> dict:
    """This process's environment with BLAS pinned to one thread and src importable."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    paths = [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def measure_setup(workload: str, calibrate) -> tuple[float, float]:
    """Median time of fresh interpreters running the set-up probe.

    Returns the median at the reference speed (each probe rescaled by the
    calibration kernel run just before and after it) and the raw median.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), "--workload", workload,
             "--work-dir", str(OUT / "probe")],
            cwd=ROOT, env=pinned_env(), capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-300:]}")
        raw.append(elapsed)
        scaled.append(elapsed * 2 * CALIB_REF_S / (before + calibrate()))
    return statistics.median(scaled), statistics.median(raw)


class Record(NamedTuple):
    """One op as run: its time, why it failed (None if it passed), and the
    mean time of the calibration kernel run just before and just after it
    (0 when not calibrated)."""

    op: object
    seconds: float
    reason: str | None
    unexpected: bool
    calib_s: float = 0.0


def make_calibration():
    """A fixed kernel of small dense LAPACK calls and Python arithmetic.

    The host's speed drifts by up to a half over tens of seconds, and the
    drift hits this kernel, the ops and the set-up probes alike.  Running it
    right before and after each op or probe and dividing by it takes the
    drift out; the kernel never touches the package, so a change to the
    package moves only the op and probe times.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rhs = rng.normal(size=6) + 0j

    def calibrate() -> float:
        start = time.perf_counter()
        for _ in range(100):
            values, _ = np.linalg.eig(matrix)
            np.linalg.solve(matrix, rhs)
            total = 0.0
            for value in values:
                total += abs(value)
        return time.perf_counter() - start

    calibrate()  # the first call pays one-off dispatch costs
    return calibrate


def run_ops(runner, ops, oracle, tracer=None, first_id=0, calibrate=None):
    """Run ops one at a time, each checked by the oracle after its timing."""
    records = []
    for index, op in enumerate(ops):
        argv = runner.prepare(op)
        before = calibrate() if calibrate is not None else 0.0
        if tracer is not None:
            tracer.start_op(first_id + index)
        start = time.perf_counter()
        outcome = runner.run(op, argv)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op(outcome.error is not None)
        calib_s = (before + calibrate()) / 2 if calibrate is not None else 0.0
        try:
            reason = oracle.check(op, runner.collect(op, outcome))
        except (OSError, LookupError, ValueError, TypeError, AttributeError) as exc:
            # the output is not in the shape the check expects
            reason = f"unreadable output: {type(exc).__name__}: {exc}"[:200]
        records.append(Record(op, elapsed, reason, outcome.unexpected, calib_s))
    return records


def environment(workloads) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "client": "closed loop, 1 client, 1 thread",
        "workloads": workloads.WORKLOADS,
    }


def failure_report(records) -> dict:
    failures = {}
    for rec in records:
        if rec.reason is not None:
            entry = failures.setdefault(rec.op.label, {"count": 0, "reason": rec.reason})
            entry["count"] += 1
    return failures


def goodput(records, calibrated: bool) -> float:
    """Passed rows per second of op time, from per-template medians.

    Rounds repeat one template, so each template op has one sample per
    round.  The median time of each template op over the rounds filters
    out bursts that slow a few ops, and their sum is the cost of a typical
    round, failed ops included.  Its passed rows (the same in every round)
    divided by that cost is the goodput.  Calibrated, each op time is first
    rescaled to the reference speed of the calibration kernel.
    """
    times, rows = {}, {}
    for rec in records:
        scale = CALIB_REF_S / rec.calib_s if calibrated else 1.0
        times.setdefault(rec.op.label, []).append(rec.seconds * scale)
        rows.setdefault(rec.op.label, []).append(rec.op.rows if rec.reason is None else 0)
    cost = sum(statistics.median(samples) for samples in times.values())
    return sum(statistics.mean(samples) for samples in rows.values()) / cost


def round_count(workloads, workload: str, seconds: float) -> int:
    """Rounds in an untraced run: a count fixed by the arguments alone.

    Stopping once ``--seconds`` had elapsed would make the number of ops,
    and so ``attempted`` and ``failed``, depend on how fast the host was.
    """
    return max(MIN_ROUNDS, round(seconds / workloads.NOMINAL_ROUND_S[workload]))


def measure(args, workloads, oracle) -> tuple[dict, list, dict]:
    """End-to-end run: set-up probes, then timed rounds."""
    calibrate = make_calibration()
    setup_s, raw_setup_s = measure_setup(args.workload, calibrate)
    runner = workloads.Runner(OUT / "work")
    run_ops(runner, [workloads.warmup_op(args.workload)], oracle, calibrate=calibrate)
    records, round_times = [], []
    source = workloads.rounds(args.workload, args.seed)
    for _, ops in zip(range(round_count(workloads, args.workload, args.seconds)), source):
        batch = run_ops(runner, ops, oracle, first_id=len(records), calibrate=calibrate)
        records += batch
        round_times.append(sum(rec.seconds for rec in batch))
    passed = sum(rec.reason is None for rec in records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "rows_per_s": (goodput(records, calibrated=True), "1/s"),
        "passed_frac": (passed / len(records), "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"rounds": len(round_times), "round_s": round_times,
             "uncalibrated_setup_s": raw_setup_s,
             "uncalibrated_rows_per_s": goodput(records, calibrated=False),
             "calib_ms_median": statistics.median(rec.calib_s for rec in records) * 1e3}
    return metrics, records, extra


def measure_traced(args, workloads, oracle, tracing) -> tuple[dict, list, dict]:
    """Fixed rounds, untraced then traced; per-layer metrics from the spans."""
    count = max(1, int(args.seconds // (2 * workloads.NOMINAL_ROUND_S[args.workload])))
    source = workloads.rounds(args.workload, args.seed)
    ops = [op for _, batch in zip(range(count), source) for op in batch]
    runner = workloads.Runner(OUT / "work")
    run_ops(runner, [workloads.warmup_op(args.workload)], oracle)
    plain = run_ops(runner, ops, oracle)
    with tracing.Tracer() as tracer:
        records = run_ops(runner, ops, oracle, tracer=tracer)
    plain_s = sum(rec.seconds for rec in plain)
    traced_s = sum(rec.seconds for rec in records)
    rows = sum(op.rows for op in ops)
    stats = tracer.summary()
    metrics = {}
    for name in tracing.span_names():
        entry = stats[name]
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.failed"] = (entry["failed"], "count")
        metrics[f"{name}.self_frac"] = (entry["self_s"] / traced_s, "frac")
        metrics[f"{name}.total_frac"] = (entry["total_s"] / traced_s, "frac")
    eig_calls = sum(stats[f"matrix_core.eig_general.{band}"]["calls"]
                    for band in tracing.SIZE_BANDS)
    metrics["metric.ketkets.calls_per_row"] = (stats["metric.ketkets"]["calls"] / rows, "1/row")
    metrics["matrix_core.eig_general.calls_per_row"] = (eig_calls / rows, "1/row")
    metrics["nip_evolution.coriolis.calls_per_row"] = (
        stats["nip_evolution.coriolis"]["calls"] / rows, "1/row")
    metrics["trace_op_s"] = (traced_s, "s")
    metrics["trace_overhead_frac"] = (traced_s / plain_s - 1.0, "frac")
    header = {"workload": args.workload, "seed": args.seed, "rounds": count,
              "traced_op_s": traced_s, "untraced_op_s": plain_s}
    tracer.write(OUT / f"spans-{args.workload}.jsonl", header)
    extra = {"rounds": count, "rows": rows, "spans": len(tracer.spans),
             "skipped_trace_names": tracer.skipped,
             "untraced_failures": failure_report(plain)}
    return metrics, records, extra


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("evolve-lib", "evolve-cli", "scan-cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nipsqw" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy loads, so pin before importing it
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import oracle
    import tracer
    import workloads

    if args.trace:
        metrics, records, extra = measure_traced(args, workloads, oracle, tracer)
    else:
        metrics, records, extra = measure(args, workloads, oracle)
    attempted = len(records)
    failed = sum(rec.reason is not None for rec in records)
    durations = sorted(rec.seconds * 1e3 for rec in records)
    report = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload],
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(workloads),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failure_report(records),
        "op_ms": {"median": statistics.median(durations),
                  "p90": durations[int(0.9 * (len(durations) - 1))],
                  "samples": len(durations)},
        **extra,
    }
    print(json.dumps(report))
    result = {
        "correct": not any(rec.unexpected for rec in records),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
