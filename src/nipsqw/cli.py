"""Command-line front end.

Subcommands cover the whole workflow: spectra at a fixed boundary
value, the implicit coupling curve, metric construction, moving-metric
time evolution with observables and the textbook cross-check, the
coalescence scan, and the two-site identity suite.  Tables are CSV
(or JSON with --format json) written with 17 significant digits so
doubles round-trip; complex quantities occupy paired Re/Im columns.
Summary lines never contaminate a table written to stdout — they go
to stderr instead, and swap to stdout when the table goes to a file.

Exit codes: 0 success, 1 flag misuse, 2 numerical failure
(coalescence, non-convergence), 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import get_tolerances
from .errors import BadOverrides, EPProximity, NipsqwError
from .hamiltonian import (
    PhiProfile,
    RobinParams,
    build_h,
    robin_to_z,
    z_from_phi,
    z_from_r,
)
from .matrix_core import (
    MAX_DIM, _eigen_arrays, adjoint, as_square, eig_hermitian,
    spectral_norm,
)
from .metric import build_metric, dyson_from_ketkets, ketkets, quasi_hermiticity_residual
from .n2_oracle import g_eigs, g_s, omega_s, omega_s_inv, sigma_s, theta_eigs, theta_s
from .nip_evolution import (
    MAP_KINDS, _check_inputs, _expectation_stack, evolve, generator, textbook_evolve,
)
from .spectrum import _curve_stack, ep_scan

FMT = "%.17g"


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"nipsqw: error: {message}\n")


# ------------------------------------------------------------ flag parsing


def _complex_flag(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected re,im — got {text!r}")
    return complex(float(parts[0]), float(parts[1]))


def _robin_flag(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected alpha,beta,h — got {text!r}")
    return tuple(float(part) for part in parts)


def _float_list_flag(text: str) -> np.ndarray:
    values = [float(item) for item in text.split(",") if item.strip()]
    if not values:
        raise ValueError("expected a comma-separated list of numbers")
    return np.array(values, dtype=float)


def _ket_flag(text: str) -> np.ndarray:
    values = _float_list_flag(text)
    if values.size % 2:
        raise ValueError("ket needs an even count of numbers (re,im pairs)")
    return values[0::2] + 1j * values[1::2]


def _observable_flag(text: str):
    if text == "hamiltonian":
        return ("hamiltonian", None)
    if text.startswith("file:"):
        path = text[len("file:"):]
        try:
            data = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
        except OSError as exc:
            raise ValueError(str(exc)) from exc
        if data.shape[1] != 2 * data.shape[0]:
            raise ValueError(
                f"{path}: matrix CSV needs N rows and 2N re,im columns"
            )
        return (Path(path).stem, data[:, 0::2] + 1j * data[:, 1::2])
    raise ValueError(f"observable must be 'hamiltonian' or 'file:PATH', got {text!r}")


def _profile_flag(text: str) -> PhiProfile:
    try:
        return PhiProfile.from_spec(text)
    except OSError as exc:
        raise ValueError(str(exc)) from exc


def _resolve_boundary(args) -> complex:
    if args.z is not None:
        return args.z
    if args.r is not None:
        return z_from_r(args.r)
    if getattr(args, "phi", None) is not None:
        return z_from_phi(args.phi)
    return robin_to_z(RobinParams(*args.robin))


def _flag_problem(args) -> str | None:
    """The usage error among the parsed numbers, or None.

    --n needs two sites to ``MAX_DIM`` (any count above one for curve),
    the numbers of these flags must be finite and the --robin grid spacing
    positive; ``cmd_evolve`` checks its profile, ket, time grid and observables.
    """
    if getattr(args, "n", 2) < 2:
        return f"need at least two sites, got {args.n}"
    if args.subcommand != "curve" and getattr(args, "n", 2) > MAX_DIM:
        return f"need at most {MAX_DIM} sites, got {args.n}"
    for name in ("z", "r", "phi", "robin", "kappa", "e_min", "e_max", "ep_margin", "phi_grid"):
        value = getattr(args, name, None)
        if value is not None and not np.all(np.isfinite(value)):
            return f"--{name.replace('_', '-')} takes finite numbers only"
    if getattr(args, "robin", None) is not None and not args.robin[2] > 0:
        return f"--robin grid spacing must be positive, got {args.robin[2]:g}"
    return None


def _usage_error(message: str) -> int:
    print(f"nipsqw: error: {message}", file=sys.stderr)
    return 1


def _tolerances(args):
    """The process tolerances with --ep-margin applied when it is given."""
    tol = get_tolerances()
    return tol if args.ep_margin is None else tol.replace(ep_margin=args.ep_margin)


# ---------------------------------------------------------------- emission


def _cell(value) -> str:
    if type(value) is float:
        return FMT % (value + 0.0)  # +0.0 folds -0.0 into 0.0
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return FMT % (float(value) + 0.0)


def _json_value(value):
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return float(value)


def _emit_table(header, rows, args) -> None:
    if args.format == "json":
        payload = {
            "columns": list(header),
            "rows": [[_json_value(v) for v in row] for row in rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [",".join(header)]
        lines += [",".join(_cell(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    _write_text(text, args.out)


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _summary(line: str, args) -> None:
    stream = sys.stderr if args.out is None else sys.stdout
    print(line, file=stream)


def _matrix_json(matrix) -> dict:
    a = np.asarray(matrix, dtype=complex)
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def _svg_line_plot(points, x_label, y_label) -> str:
    """Tiny static SVG polyline: one curve, framed axes, corner labels."""
    width, height, pad = 640.0, 480.0, 60.0
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def px(x):
        return pad + (x - x_lo) / x_span * (width - 2 * pad)

    def py(y):
        return height - pad - (y - y_lo) / y_span * (height - 2 * pad)

    path = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in points)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">\n'
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
        f'height="{height - 2 * pad}" fill="none" stroke="black"/>\n'
        f'<polyline points="{path}" fill="none" stroke="blue" stroke-width="1.5"/>\n'
        f'<text x="{width / 2:.0f}" y="{height - pad / 3:.0f}" '
        f'text-anchor="middle">{x_label}</text>\n'
        f'<text x="{pad / 3:.0f}" y="{height / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 {pad / 3:.0f} {height / 2:.0f})">{y_label}</text>\n'
        f'<text x="{pad}" y="{height - pad / 3:.0f}" text-anchor="middle">'
        f"{x_lo:.4g}</text>\n"
        f'<text x="{width - pad}" y="{height - pad / 3:.0f}" text-anchor="middle">'
        f"{x_hi:.4g}</text>\n"
        f'<text x="{pad / 1.5:.0f}" y="{height - pad:.0f}">{y_lo:.4g}</text>\n'
        f'<text x="{pad / 1.5:.0f}" y="{pad:.0f}">{y_hi:.4g}</text>\n'
        "</svg>\n"
    )


# ------------------------------------------------------------- subcommands


def cmd_spectrum(args) -> int:
    h = build_h(args.n, _resolve_boundary(args))
    # A defective point fails the eigenvector gate but keeps its energies,
    # which stay well conditioned; only energies that failed are NaN.
    values, _, _, errors = _eigen_arrays(h[None])
    energies = values[0]
    if np.isnan(energies).any():
        raise errors[0]
    flags = np.abs(energies.imag) <= get_tolerances().tol_real
    rows = [
        (idx + 1, e.real, e.imag, bool(flag))
        for idx, (e, flag) in enumerate(zip(energies, flags))
    ]
    _emit_table(("index", "energy_re", "energy_im", "is_real"), rows, args)
    _summary(f"all_real={str(bool(flags.all())).lower()}", args)
    return 0


def cmd_curve(args) -> int:
    if not args.e_min < args.e_max:
        return _usage_error("--e-min must be below --e-max")
    if args.samples < 2:
        return _usage_error("--samples must be at least 2")
    rows = _curve_stack(args.n, np.linspace(args.e_min, args.e_max, args.samples))
    _emit_table(("energy", "r_squared", "r_plus", "r_minus", "residual"), rows, args)
    if args.svg is not None:
        curve_pts = [(r[0], r[1]) for r in rows if r[1] is not None]
        _write_text(_svg_line_plot(curve_pts, "energy", "coupling^2"), args.svg)
    _summary(f"samples={len(rows)} flat_rows={sum(r[1] is None for r in rows)}", args)
    return 0


def cmd_metric(args) -> int:
    kappa = args.kappa if args.kappa is not None else np.ones(args.n)
    if kappa.size != args.n or np.any(kappa <= 0):
        return _usage_error(f"--kappa needs {args.n} positive weights")
    z = _resolve_boundary(args)
    h = build_h(args.n, z)
    basis = ketkets(h)
    theta = build_metric(basis, kappa)
    omega = np.diag(np.sqrt(kappa.astype(complex))) @ adjoint(basis.vectors)
    payload = {
        "n": args.n,
        "z": {"re": z.real, "im": z.imag},
        "kappa": [float(k) for k in kappa],
        "theta": _matrix_json(theta),
        "omega": _matrix_json(omega),
        "omega_kind": "ketket_columns",
        "h_diag": {
            "re": np.conj(basis.eigenvalues).real.tolist(),
            "im": np.conj(basis.eigenvalues).imag.tolist(),
        },
        "positivity_eigs": np.real(eig_hermitian(theta).eigenvalues).tolist(),
        "qh_residual": quasi_hermiticity_residual(h, theta),
    }
    _write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_evolve(args) -> int:
    try:
        _check_inputs(args.n, args.profile, args.psi0, args.t0, args.t1, args.dt)
    except ValueError as exc:
        return _usage_error(str(exc))
    observables = args.observable or []
    for name, matrix in observables:
        if matrix is not None and matrix.shape != (args.n, args.n):
            return _usage_error(
                f"observable {name!r} is {matrix.shape[0]}x{matrix.shape[1]}, "
                f"need {args.n}x{args.n}"
            )
        if matrix is not None and not np.all(np.isfinite(matrix)):
            return _usage_error(f"observable {name!r} takes finite numbers only")
    tol = _tolerances(args)
    start = (args.n, args.profile, args.psi0, args.t0)
    aborted = None
    try:
        states = evolve(*start, args.t1, args.dt, tol=tol, map_kind=args.map)
    except EPProximity as exc:
        states, aborted = exc.trajectory, exc
        if not states:
            _summary(f"aborted_at={exc.t_fail:.17g}", args)
            raise
    crosscheck = []
    if args.crosscheck:
        partner = textbook_evolve(*start, states[-1].t, args.dt, tol=tol, map_kind=args.map)
        crosscheck = [[float(np.linalg.norm(state.omega @ state.psi - mapped.psi))
                       for state, mapped in zip(states, partner)]]

    # every row's generator spectrum in one solve and each observable
    # column in one stacked pass; the earliest refused row is raised, and
    # within a row an observable's refusal before the spectrum's
    times = np.array([state.t for state in states])
    norms = np.array([state.phys_norm for state in states])
    kets = np.array([state.psi for state in states])
    thetas = np.array([state.theta for state in states])
    spectra, _, _, failures = _eigen_arrays(np.array([state.generator for state in states]))
    if any(matrix is None for _, matrix in observables):
        energy = build_h(args.n, z_from_phi(args.profile(times)[0]))
    stacks = [
        _expectation_stack(
            kets, thetas,
            energy if matrix is None else np.broadcast_to(as_square(matrix), thetas.shape),
        )
        for _, matrix in observables
    ]
    rows = zip(*(errors for _, errors in stacks), failures)
    refusal = next((e for row in rows for e in row if e is not None), None)
    if refusal is not None:
        raise refusal
    pairs = [f"{i}_{part}" for i in range(args.n) for part in ("re", "im")]
    header = ["t", *(f"psi{pair}" for pair in pairs), "phys_norm",
              *(f"expect_{name}" for name, _ in observables), *(f"g{pair}" for pair in pairs)]
    columns = [times, kets.view(float), norms, *(values for values, _ in stacks),
               spectra.view(float), *crosscheck]
    _emit_table(header + ["crosscheck"] * args.crosscheck, np.column_stack(columns).tolist(), args)

    drift = float(np.max(np.abs(norms - norms[0])) / norms[0])
    _summary(f"norm_drift={drift:.17g}", args)
    if aborted is not None:
        _summary(f"aborted_at={aborted.t_fail:.17g}", args)
        raise aborted
    return 0


def cmd_epscan(args) -> int:
    if not -1.0 <= args.r_min <= args.r_max <= 1.0:
        return _usage_error("coupling range must satisfy -1 <= r-min <= r-max <= 1")
    if args.samples < 1:
        return _usage_error("--samples must be at least 1")
    grid = np.linspace(args.r_min, args.r_max, args.samples)
    rows = ep_scan(args.n, grid).tolist()
    _emit_table(("r", "min_gap", "vector_condition"), rows, args)
    fallback = sum(1 for row in rows if not np.isfinite(row[2]))
    _summary(f"samples={len(rows)} defective_rows={fallback}", args)
    return 0


# ------------------------------------------------------- two-site verifier

DEFAULT_PHI_GRID = tuple(np.linspace(0.15, np.pi - 0.15, 7))
DEFAULT_RATES = (0.3, 1.0, 5.0)
IDENTITY_THRESHOLD = 1e-8


@dataclass(frozen=True)
class IdentityResult:
    """One verified two-site identity: its worst residual over the grid."""

    name: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.threshold


def run_identity_suite(phi_grid=None, rates=None, tol=None):
    """Closed-form versus pipeline checks on the two-site problem.

    Every identity is evaluated on the (phi, rate) grid and reduced to
    its worst absolute residual.  Raises EPProximity if the grid
    strays inside the coalescence margin.
    """
    tol = tol if tol is not None else get_tolerances()
    phis = tuple(float(p) for p in (phi_grid if phi_grid is not None else DEFAULT_PHI_GRID))
    rates = tuple(float(w) for w in (rates if rates is not None else DEFAULT_RATES))
    worst = dict.fromkeys(
        ("map_times_inverse", "metric_factorization", "pipeline_map_matches_columns",
         "metric_eigenvalues", "quasi_hermiticity", "coriolis_difference",
         "generator_difference", "generator_eigenvalues"),
        0.0,
    )

    def note(name, residual):
        worst[name] = max(worst[name], residual)

    for phi in phis:
        omega = omega_s(phi)
        note("map_times_inverse", spectral_norm(omega @ omega_s_inv(phi) - np.eye(2)))
        note("metric_factorization", spectral_norm(adjoint(omega) @ omega - theta_s(phi)))
        h = build_h(2, z_from_phi(phi))
        bundle = dyson_from_ketkets(ketkets(h))
        note("pipeline_map_matches_columns", spectral_norm(bundle.omega - omega))
        got_eigs = np.sort(np.real(eig_hermitian(bundle.theta).eigenvalues))
        want_eigs = np.sort(np.array(theta_eigs(phi)))
        note("metric_eigenvalues", float(np.max(np.abs(got_eigs - want_eigs))))
        note("quasi_hermiticity", quasi_hermiticity_residual(h, bundle.theta))
        for rate in rates:
            profile = PhiProfile.linear(phi, rate)
            snap = generator(2, profile, 0.0, tol=tol)  # its Sigma is coriolis()
            note("coriolis_difference", spectral_norm(snap.Sigma - sigma_s(phi, rate)))
            note("generator_difference", spectral_norm(snap.G - g_s(phi, rate)))
            # Both generator eigenvalues share one real part in the strongly
            # non-stationary regime, so a lexicographic sort can swap them on
            # noise; compare the unordered pair by its best pairing instead.
            got = snap.g_eigs
            want = np.array(g_eigs(phi, rate))
            straight = float(np.max(np.abs(got - want)))
            swapped = float(np.max(np.abs(got - want[::-1])))
            note("generator_eigenvalues", min(straight, swapped))
    return [
        IdentityResult(name, residual, IDENTITY_THRESHOLD)
        for name, residual in worst.items()
    ]


def cmd_n2verify(args) -> int:
    results = run_identity_suite(phi_grid=args.phi_grid, tol=_tolerances(args))
    lines = [
        f"{item.name:<32s} {item.residual:12.3e}  "
        f"{'PASS' if item.passed else 'FAIL'}"
        for item in results
    ]
    failures = sum(not item.passed for item in results)
    lines.append(
        f"identities={len(results)} failures={failures} threshold={IDENTITY_THRESHOLD:g}"
    )
    _write_text("\n".join(lines) + "\n", args.out)
    return 3 if failures else 0


# ----------------------------------------------------------------- parser


def _add_boundary_flags(sub, phi=False, robin=False):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--z", type=_complex_flag, metavar="RE,IM",
                       help="corner value z")
    group.add_argument("--r", type=float, help="coupling strength, |r| <= 1")
    if phi:
        group.add_argument("--phi", type=float,
                           help="boundary angle, z = i*cos(phi)")
    if robin:
        group.add_argument("--robin", type=_robin_flag, metavar="ALPHA,BETA,H",
                           help="mixed boundary data on spacing H")


def _add_output_flags(sub, formats=("csv", "json")):
    sub.add_argument("--format", choices=formats, default=formats[0],
                     help="table encoding (default %(default)s)")
    sub.add_argument("--out", metavar="PATH", default=None,
                     help="write the table to a file instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line grammar, built once per process: parsing keeps no state."""
    parser = _Parser(prog="nipsqw", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sp = subs.add_parser("spectrum", help="energies at one boundary value")
    sp.add_argument("--n", type=int, required=True, help="number of sites")
    _add_boundary_flags(sp, robin=True)
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_spectrum)

    cv = subs.add_parser("curve", help="implicit coupling curve r^2(E)")
    cv.add_argument("--n", type=int, required=True)
    cv.add_argument("--e-min", type=float, required=True)
    cv.add_argument("--e-max", type=float, required=True)
    cv.add_argument("--samples", type=int, required=True)
    cv.add_argument("--svg", metavar="PATH", default=None,
                    help="also write a static line plot")
    _add_output_flags(cv)
    cv.set_defaults(handler=cmd_curve)

    mt = subs.add_parser("metric", help="metric and map at one boundary value")
    mt.add_argument("--n", type=int, required=True)
    _add_boundary_flags(mt, phi=True)
    mt.add_argument("--kappa", type=_float_list_flag, metavar="K1,K2,...",
                    default=None, help="positive metric weights (default all ones)")
    mt.add_argument("--out", metavar="PATH", default=None)
    mt.set_defaults(handler=cmd_metric)

    ev = subs.add_parser("evolve", help="moving-metric time evolution")
    ev.add_argument("--n", type=int, required=True)
    ev.add_argument("--profile", type=_profile_flag, required=True,
                    help="constant:phi=F | linear:phi0=F,omega=F | "
                         "sin:phi0=F,amp=F,freq=F | table:CSV")
    ev.add_argument("--psi0", type=_ket_flag, required=True,
                    metavar="RE,IM,...", help="initial ket, re,im pairs")
    ev.add_argument("--t0", type=float, default=0.0)
    ev.add_argument("--t1", type=float, required=True)
    ev.add_argument("--dt", type=float, required=True)
    ev.add_argument("--observable", type=_observable_flag, action="append",
                    help="'hamiltonian' or 'file:PATH' (repeatable)")
    ev.add_argument("--crosscheck", action="store_true",
                    help="append the mapped-integration agreement column")
    ev.add_argument("--map", choices=MAP_KINDS, default="ketket_columns")
    ev.add_argument("--ep-margin", type=float, default=None)
    _add_output_flags(ev)
    ev.set_defaults(handler=cmd_evolve)

    es = subs.add_parser("epscan", help="coalescence diagnostics over a coupling grid")
    es.add_argument("--n", type=int, required=True)
    es.add_argument("--r-min", type=float, required=True)
    es.add_argument("--r-max", type=float, required=True)
    es.add_argument("--samples", type=int, required=True)
    _add_output_flags(es)
    es.set_defaults(handler=cmd_epscan)

    nv = subs.add_parser("n2verify", help="two-site closed-form identity suite")
    nv.add_argument("--ep-margin", type=float, default=None)
    nv.add_argument("--phi-grid", type=_float_list_flag, metavar="P1,P2,...",
                    default=None, help="boundary angles to scan")
    nv.add_argument("--out", metavar="PATH", default=None)
    nv.set_defaults(handler=cmd_n2verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    problem = _flag_problem(args)
    if problem is not None:
        return _usage_error(problem)
    try:
        get_tolerances()  # a malformed override file is a usage error everywhere
        # numbers too large for the arithmetic fail, not print inf and nan
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.handler(args)
    except BadOverrides as exc:
        return _usage_error(str(exc))
    except OSError as exc:  # an unwritable --out or --svg
        return _usage_error(f"{exc.filename}: {exc.strerror}")
    except MemoryError as exc:  # --samples or a time grid beyond memory
        return _usage_error(f"out of memory: {exc}")
    except (NipsqwError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
