"""Self-tests of the benchmark: determinism, exact counters, and the checker.

    python3 -m pytest perfbench
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import oracle
import tracer
import workloads
from nipsqw import metric, nip_evolution


def take_rounds(workload, seed, count=2):
    source = workloads.rounds(workload, seed)
    return [next(source) for _ in range(count)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_op_generator_is_deterministic_per_seed(workload):
    first = take_rounds(workload, 7)
    assert take_rounds(workload, 7) == first
    assert take_rounds(workload, 8) != first
    # the template does not depend on the seed: same labels and rows, and a
    # label names one op of the round (goodput takes medians per label)
    labels = [op.label for op in first[0]]
    assert len(set(labels)) == len(labels)
    other = take_rounds(workload, 8)
    assert [[(op.label, op.rows) for op in ops] for ops in other] == [
        [(op.label, op.rows) for op in ops] for ops in first
    ]


def run_traced(runner, ops):
    with tracer.Tracer() as tr:
        for index, op in enumerate(ops):
            argv = runner.prepare(op)
            tr.start_op(index)
            outcome = runner.run(op, argv)
            tr.end_op(outcome.error is not None)
    stats = tr.summary()
    return tr, {name: (s["calls"], s["failed"]) for name, s in stats.items()}


def test_work_counters_repeat_exactly(tmp_path):
    runner = workloads.Runner(tmp_path)
    ops = [workloads.warmup_op(name) for name in sorted(workloads.WORKLOADS)]
    ops.append(workloads._drive(np.random.default_rng(3), 7, 4, 1e-2, workloads.KK,
                                "linear", cross=True))
    first_tracer, first = run_traced(runner, ops)
    _, second = run_traced(runner, ops)
    assert first == second
    assert first["op"] == (len(ops), 1)  # the N=7 crossing is refused
    assert first["metric.ketkets"][0] > 0 and first["cli.main"][0] == 2
    assert first["matrix_core.inverse"][1] == 1
    # spans nest: the benchmark never calls ketkets itself, so every ketkets
    # span has a package function as its parent
    names = [span[0] for span in first_tracer.spans]
    parents = {names[span[3]] for span in first_tracer.spans if span[0] == "metric.ketkets"}
    assert parents and "op" not in parents
    # the wrappers are gone again
    assert nip_evolution.ketkets is metric.ketkets
    assert not hasattr(metric.ketkets, "__wrapped__")


def test_tracer_skips_absent_names(monkeypatch):
    monkeypatch.setitem(tracer.TRACED, "metric", ("ketkets", "no_such_function"))
    with tracer.Tracer() as tr:
        pass
    assert tr.skipped == ["metric.no_such_function"]


def crossing_drive(n):
    spec = {"map": workloads.KK, "dt": 1e-2, "steps": 8, "cross": True,
            "psi0": [[1.0, 0.0]] + [[0.5, 0.5]] * (n - 1),
            "profile_kind": "linear", "phi0": np.pi / 2 - 0.04, "omega": 1.0}
    return workloads.Op("drive", n, 9, spec)


def run_and_check(tmp_path, op):
    runner = workloads.Runner(tmp_path)
    outcome = runner.collect(op, runner.run(op, runner.prepare(op)))
    return outcome, oracle.check(op, outcome)


def test_checker_flags_the_silent_n3_crossing(tmp_path):
    outcome, reason = run_and_check(tmp_path, crossing_drive(3))
    assert outcome.error is None  # the package returns it without complaint
    assert reason is not None and "drift" in reason
    # the same drive at N=4 is right, so the checker is not simply strict
    assert run_and_check(tmp_path, crossing_drive(4))[1] is None


def test_checker_flags_a_perturbed_phys_norm(tmp_path):
    op = workloads.warmup_op("evolve-cli")
    outcome, reason = run_and_check(tmp_path, op)
    assert reason is None
    header, data = outcome.output
    data = data.copy()
    data[-1, header.index("phys_norm")] *= 1 + 1e-4
    assert "drift" in oracle.check_evolve_table(op, (header, data))

    drive = workloads.warmup_op("evolve-lib")
    outcome, reason = run_and_check(tmp_path, drive)
    assert reason is None
    ev, tb = outcome.output
    bent = dataclasses.replace(ev[-1], phys_norm=ev[-1].phys_norm * (1 + 1e-4))
    assert oracle.check_drive(drive, (ev[:-1] + [bent], tb)) is not None


def test_benchmark_file_matches_what_the_runs_print():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WORKLOADS
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "rows_per_s", "passed_frac", "peak_rss_mb"}
    per_function = {f"{name}.{field}" for name in tracer.span_names()
                    for field in ("calls", "failed", "self_frac", "total_frac")}
    assert {m["name"] for m in spec["per_layer"]} == per_function | {
        "metric.ketkets.calls_per_row", "matrix_core.eig_general.calls_per_row",
        "nip_evolution.coriolis.calls_per_row", "trace_op_s", "trace_overhead_frac"}


def test_round_count_depends_on_arguments_only():
    import run

    for workload in workloads.WORKLOADS:
        count = run.round_count(workloads, workload, 20)
        assert count == round(20 / workloads.NOMINAL_ROUND_S[workload])
        assert run.round_count(workloads, workload, 0.1) == run.MIN_ROUNDS
