"""Seeded operation lists for the three benchmark workloads, and their runners.

A workload is a repeating *round*: a fixed template of operations whose
structure (sizes, step counts, map kinds, profile kinds, which drives cross
phi = pi/2, which CLI flags are set) never changes, while the continuous
parameters (angles, rates, initial kets, scan ranges) are drawn from the
seeded generator.  Every seed therefore asks for the same amount of work and
the same number of output rows per round, which keeps goodput comparable
across seeds, and the same seed always yields the same operations.

Every input is valid by construction: drives keep |sin phi| >= 0.4 and
static queries keep |r| >= 0.2, except where a scan grid deliberately steps
onto r = 0, which the scans must handle.  So any refusal by the program
counts as a failure.

The runners call the package only through module attributes looked up at
call time (``nip_evolution.evolve``, ``cli.main``), so the tracer's wrappers
are picked up when tracing is on.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nipsqw import cli, hamiltonian, nip_evolution
from nipsqw.errors import NipsqwError

#: why each workload was chosen (mirrored in BENCHMARK.json)
WORKLOADS = {
    "evolve-lib": (
        "Library evolve and textbook_evolve, no CLI: time is in nip_evolution, "
        "metric and matrix_core; holds the N=3/7/8 pi/2 crossings and N>=20 refusals"
    ),
    "evolve-cli": (
        "CLI evolve in process with observables and cross-checks: at seed its time "
        "is the per-row generator and ketkets recompute that only the CLI does"
    ),
    "scan-cli": (
        "CLI epscan, curve, spectrum and metric up to N=64: bypasses nip_evolution, "
        "so stage-pipeline work must read unchanged and scan vectorization shows only here"
    ),
}

#: approximate op time of one untraced round at seed on a 2-core x86 VM
#: (measured 2.2-3.1 s, 1.4-1.9 s and 2.0-2.9 s); sizes the fixed round
#: count of a run, so it must stay as it is for runs to stay comparable
NOMINAL_ROUND_S = {"evolve-lib": 2.5, "evolve-cli": 1.5, "scan-cli": 2.0}

#: smallest coupling |r| (= |sin phi|) a static query asks about
SIN_FLOOR = 0.2


@dataclass(frozen=True)
class Op:
    """One operation: what to run, and how many output rows it must give.

    ``kind`` is ``drive`` (library evolve plus textbook_evolve) or a CLI
    subcommand name.  ``spec`` holds plain values only, so two ops compare
    equal exactly when they ask for the same work.
    """

    kind: str
    n: int
    rows: int
    spec: dict = field(hash=False)

    @property
    def label(self) -> str:
        """Template identity of the op, independent of the drawn parameters."""
        tags = [self.kind, f"n={self.n}"]
        for key in ("map", "profile_kind"):
            if key in self.spec:
                tags.append(str(self.spec[key]))
        if self.spec.get("cross"):
            tags.append("cross")
        if self.spec.get("crosscheck"):
            tags.append("crosscheck")
        return " ".join(tags)


@dataclass
class Outcome:
    """What an op produced: its output, or the error it raised or returned."""

    output: object = None
    error: str | None = None
    unexpected: bool = False


# --------------------------------------------------------------- profiles


def _profile_spec(rng, kind: str, cross: bool, horizon: float) -> dict:
    """Drive angle law on [0, horizon] that crosses pi/2 exactly when asked.

    Crossing drives pass pi/2 between 30% and 70% of the horizon; the others
    start 0.8-1.0 away from the nearer exceptional point and drift towards
    it at half speed, mirrored to the upper half on a coin flip.  Sinusoidal
    laws stay within their first quarter period, so they are monotone too.
    """
    rate = float(rng.uniform(0.5, 1.5)) * (1.0 if rng.random() < 0.5 else -1.0)
    anchor = 0.0
    if cross:
        anchor = float(rng.uniform(0.3, 0.7)) * horizon
        phi_at = lambda t: np.pi / 2 + rate * (t - anchor)  # noqa: E731
    else:
        start = float(rng.uniform(0.8, 1.0))
        rate = -abs(rate) / 2
        if rng.random() < 0.5:
            phi_at = lambda t: start + rate * t  # noqa: E731
        else:
            phi_at = lambda t: np.pi - start - rate * t  # noqa: E731
    slope = float(phi_at(1.0) - phi_at(0.0))
    if kind == "linear":
        return {"profile_kind": "linear", "phi0": float(phi_at(0.0)), "omega": slope}
    if kind == "sin":
        freq = float(rng.uniform(0.5, 1.0)) * np.pi / (2 * horizon)
        amp = slope / freq
        phi0 = float(phi_at(anchor) - amp * np.sin(freq * anchor))
        return {"profile_kind": "sin", "phi0": phi0, "amp": amp, "freq": freq}
    times = np.linspace(0.0, horizon, 6)
    wiggle = 0.1 * abs(slope) * horizon * float(rng.uniform(-1.0, 1.0))
    phis = phi_at(times) + wiggle * np.sin(np.pi * times / horizon)
    return {"profile_kind": "table", "times": times.tolist(), "phis": phis.tolist()}


def phi_of(spec: dict, t):
    """Angle and its rate along a profile spec, for arrays of times."""
    t = np.asarray(t, dtype=float)
    kind = spec["profile_kind"]
    if kind == "linear":
        return spec["phi0"] + spec["omega"] * t, np.full_like(t, spec["omega"])
    if kind == "sin":
        arg = spec["freq"] * t
        return (spec["phi0"] + spec["amp"] * np.sin(arg),
                spec["amp"] * spec["freq"] * np.cos(arg))
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(spec["times"], spec["phis"])
    return spline(t), spline.derivative()(t)


def _library_profile(spec: dict):
    kind = spec["profile_kind"]
    if kind == "linear":
        return hamiltonian.PhiProfile.linear(spec["phi0"], spec["omega"])
    if kind == "sin":
        return hamiltonian.PhiProfile.sinusoidal(spec["phi0"], spec["amp"], spec["freq"])
    return hamiltonian.PhiProfile.tabulated(spec["times"], spec["phis"])


def _cli_profile(spec: dict, table_path: Path) -> str:
    kind = spec["profile_kind"]
    if kind == "linear":
        return f"linear:phi0={spec['phi0']!r},omega={spec['omega']!r}"
    if kind == "sin":
        return f"sin:phi0={spec['phi0']!r},amp={spec['amp']!r},freq={spec['freq']!r}"
    lines = [f"{t!r},{p!r}" for t, p in zip(spec["times"], spec["phis"])]
    table_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return f"table:{table_path}"


def _ket(rng, n: int) -> list:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    return [[float(c.real), float(c.imag)] for c in v]


def _drive(rng, n, steps, dt, map_kind, profile_kind, cross, kind="drive", **flags):
    spec = {"map": map_kind, "dt": dt, "steps": steps, "cross": cross,
            "psi0": _ket(rng, n), **flags}
    spec.update(_profile_spec(rng, profile_kind, cross, steps * dt))
    return Op(kind, n, steps + 1, spec)


# ------------------------------------------------------------------ rounds

_PROFILE_CYCLE = ("linear", "sin", "table")
KK, HR = "ketket_columns", "hermitian_root"


def _evolve_lib_round(rng) -> list[Op]:
    ops = []
    # two-site fast path at the convergence-study step; the sin drive crosses
    for kind in _PROFILE_CYCLE:
        ops.append(_drive(rng, 2, 400, 1e-3, KK, kind, cross=(kind == "sin")))
    # N = 3..8, both maps; one of each size's pair crosses pi/2 (the ketket
    # map on odd N, the Hermitian root on even N)
    for n in range(3, 9):
        for j, map_kind in enumerate((KK, HR)):
            cross = (map_kind == KK) == (n % 2 == 1)
            kind = _PROFILE_CYCLE[(n + j) % 3]
            ops.append(_drive(rng, n, 8, 1e-2, map_kind, kind, cross=cross))
    # short probes at large N
    for n in (12, 16, 20, 24):
        ops.append(_drive(rng, n, 4, 1e-2, KK, "linear", cross=False))
    return ops


def _evolve_cli_round(rng) -> list[Op]:
    ops = [
        _drive(rng, 2, 100, 2e-3, KK, "linear", False, kind="evolve",
               observable=True, crosscheck=True),
        _drive(rng, 2, 100, 2e-3, KK, "sin", False, kind="evolve",
               observable=True, crosscheck=False),
    ]
    for n in range(3, 9):
        map_kind = KK if n % 2 else HR
        ops.append(_drive(rng, n, 8, 1e-2, map_kind, _PROFILE_CYCLE[n % 3], False,
                          kind="evolve", observable=(n != 4),
                          crosscheck=(n in (3, 6))))
    return ops


def _scan_cli_round(rng) -> list[Op]:
    ops = []
    for n, samples in ((4, 201), (8, 151), (16, 101), (32, 41), (64, 9)):
        reach = float(rng.uniform(0.8, 1.0))
        ops.append(Op("epscan", n, samples, {"r_min": -reach, "r_max": reach,
                                              "samples": samples}))
    for n, samples in ((4, 14001), (6, 10001), (8, 7001)):
        ops.append(Op("curve", n, samples, {
            "e_min": float(rng.uniform(0.05, 0.5)),
            "e_max": float(rng.uniform(3.5, 3.95)),
            "samples": samples,
        }))
    for n in (4, 12, 33, 64):
        r = float(rng.uniform(SIN_FLOOR, 1.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        ops.append(Op("spectrum", n, n, {"r": r}))
    for n in (4, 8, 16):
        if n == 8:
            phi = float(rng.uniform(0.3, np.pi - 0.3))
            ops.append(Op("metric", n, n, {"phi": phi}))
        else:
            ops.append(Op("metric", n, n, {"r": float(rng.uniform(SIN_FLOOR, 1.0))}))
    return ops


_ROUNDS = {
    "evolve-lib": _evolve_lib_round,
    "evolve-cli": _evolve_cli_round,
    "scan-cli": _scan_cli_round,
}


def rounds(workload: str, seed: int):
    """Endless, deterministic sequence of rounds for one workload and seed."""
    rng = np.random.default_rng(seed)
    make = _ROUNDS[workload]
    while True:
        yield make(rng)


def warmup_op(workload: str) -> Op:
    """Small fixed op that touches the workload's code paths once."""
    rng = np.random.default_rng(0)
    if workload == "evolve-lib":
        return _drive(rng, 4, 2, 1e-2, KK, "linear", False)
    if workload == "evolve-cli":
        return _drive(rng, 3, 2, 1e-2, KK, "linear", False, kind="evolve",
                      observable=True, crosscheck=True)
    return Op("epscan", 8, 11, {"r_min": -1.0, "r_max": 1.0, "samples": 11})


# ----------------------------------------------------------------- running


def _run_drive(op: Op):
    spec = op.spec
    profile = _library_profile(spec)
    psi0 = np.array([re + 1j * im for re, im in spec["psi0"]])
    t1 = spec["steps"] * spec["dt"]
    ev = nip_evolution.evolve(op.n, profile, psi0, 0.0, t1, spec["dt"],
                              map_kind=spec["map"])
    tb = nip_evolution.textbook_evolve(op.n, profile, psi0, 0.0, t1, spec["dt"],
                                       map_kind=spec["map"])
    return ev, tb


def cli_argv(op: Op, out_path: Path, table_path: Path) -> list[str]:
    """The argument vector the CLI receives for a CLI op.

    Values are attached with '=' so that a leading minus sign is never read
    as a flag.
    """
    spec = op.spec
    if op.kind == "evolve":
        psi = ",".join(f"{re!r},{im!r}" for re, im in spec["psi0"])
        values = {"profile": _cli_profile(spec, table_path), "psi0": psi,
                  "t1": spec["steps"] * spec["dt"], "dt": spec["dt"], "map": spec["map"]}
        if spec["observable"]:
            values["observable"] = "hamiltonian"
    elif op.kind == "epscan":
        values = {key: spec[key] for key in ("r_min", "r_max", "samples")}
    elif op.kind == "curve":
        values = {key: spec[key] for key in ("e_min", "e_max", "samples")}
    else:
        values = {key: spec[key] for key in ("r", "phi") if key in spec}
    argv = [op.kind, f"--n={op.n}"]
    argv += [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
    if spec.get("crosscheck"):
        argv.append("--crosscheck")
    return argv + [f"--out={out_path}"]


_FLAGS = {"true": 1.0, "false": 0.0, "": np.nan}


def _cell(text: str) -> float:
    return _FLAGS[text] if text in _FLAGS else float(text)


class Runner:
    """Runs ops one at a time; CLI ops write their table into ``work_dir``."""

    def __init__(self, work_dir: Path):
        self.work_dir = Path(work_dir)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.out_path = self.work_dir / "op.out"
        self.table_path = self.work_dir / "profile.csv"

    def prepare(self, op: Op):
        """Untimed preparation: the CLI argument vector (and profile table)."""
        if op.kind == "drive":
            return None
        self.out_path.unlink(missing_ok=True)
        return cli_argv(op, self.out_path, self.table_path)

    def run(self, op: Op, argv) -> Outcome:
        """The timed part of an op."""
        try:
            if op.kind == "drive":
                return Outcome(output=_run_drive(op))
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
            if code != 0:
                return Outcome(error=f"exit {code}: {sink.getvalue().strip()[-200:]}")
            return Outcome(output=code)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            return Outcome(error=f"{type(exc).__name__}: {exc}"[:200],
                           unexpected=not isinstance(exc, NipsqwError))

    def collect(self, op: Op, outcome: Outcome) -> Outcome:
        """Untimed: read the table a successful CLI op wrote."""
        if op.kind == "drive" or outcome.error is not None:
            return outcome
        text = self.out_path.read_text(encoding="utf-8")
        if op.kind == "metric":
            outcome.output = json.loads(text)
        else:
            lines = text.strip().splitlines()
            header = lines[0].split(",")
            rows = [[_cell(c) for c in line.split(",")] for line in lines[1:]]
            outcome.output = (header, np.array(rows, dtype=float).reshape(-1, len(header)))
        return outcome
