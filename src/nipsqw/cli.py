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
import re
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
from .matrix_core import MAX_DIM, _eigen_arrays, _raise_earliest, adjoint, spectral_norm
from .metric import (
    build_metric, dyson_from_ketkets, ketkets, quasi_hermiticity_residual,
)
from .n2_oracle import g_eigs, g_s, omega_s, omega_s_inv, sigma_s, theta_eigs, theta_s
from .nip_evolution import (
    MAP_KINDS, _expectation_stack, evolve, generator, textbook_evolve,
)
from .spectrum import _curve_stack, ep_scan, solve_spectrum

FMT = "%.17g"


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 1, and which reads
    a token that starts with - and a digit, with -. and a digit, or with -inf
    or -nan in any case, as a value: a negative number, exponent or comma
    list after a space, which the flag checks then take or refuse."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"nipsqw: error: {message}\n")


# ------------------------------------------------------------ flag parsing


def _flag(parse):
    """``parse`` as an argparse ``type=``: its ValueError or OSError becomes
    the ArgumentTypeError whose message argparse prints as the reason."""

    def adapter(text: str):
        try:
            return parse(text)
        except (ValueError, OSError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return adapter


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
    return values.view(complex)


def _observable_flag(text: str):
    if text == "hamiltonian":
        return ("hamiltonian", None)
    if text.startswith("file:"):
        path = text[len("file:"):]
        if any(mark in Path(path).stem for mark in ",\r\n"):  # it heads a CSV column
            raise ValueError(f"{path!r}: observable name holds a comma or line break")
        data = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
        if data.shape[1] != 2 * data.shape[0]:
            raise ValueError(
                f"{path}: matrix CSV needs N rows and 2N re,im columns"
            )
        return (Path(path).stem, data.view(complex))
    raise ValueError(f"observable must be 'hamiltonian' or 'file:PATH', got {text!r}")


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
    the numbers of these flags must be finite, --r at most 1 in size,
    --ep-margin non-negative and the --robin grid spacing positive;
    ``cmd_evolve`` checks its profile, ket, time grid and observables.
    """
    if getattr(args, "n", 2) < 2:
        return f"need at least two sites, got {args.n}"
    if args.subcommand != "curve" and getattr(args, "n", 2) > MAX_DIM:
        return f"need at most {MAX_DIM} sites, got {args.n}"
    for name in ("z", "r", "phi", "robin", "kappa", "e_min", "e_max", "ep_margin", "phi_grid"):
        value = getattr(args, name, None)
        if value is not None and not np.all(np.isfinite(value)):
            return f"--{name.replace('_', '-')} takes finite numbers only"
    if getattr(args, "r", None) is not None and not abs(args.r) <= 1.0:
        return f"--r must satisfy |r| <= 1, got {args.r:g}"
    if getattr(args, "ep_margin", None) is not None and args.ep_margin < 0:
        return f"--ep-margin must not be negative, got {args.ep_margin:g}"
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


#: the CSV text of each cell kind
_CELL_TEXT = {1: "", 2: FMT, 3: "false", 4: "true"}


def _csv_text(header, columns, absent) -> str:
    """A table's CSV text in one ``%``: a format string of the header, one
    line per row, spelled by the kinds of that row's cells, and the closing
    newline, applied once to the numbers in row order.  Consecutive rows of
    equal kinds form a run, whose line is spelled once and repeated by the
    run's length.  A number takes 17 significant digits with -0.0 as 0, a
    boolean true or false, and a cell ``absent`` marks is empty."""
    table = np.asarray(columns).T + 0.0  # +0.0 folds -0.0 into 0.0
    flags = [column.dtype == bool for column in columns]
    kinds = np.where(flags, (table != 0) + np.int8(3), np.int8(2))
    if absent is not None:
        kinds[np.asarray(absent).T] = 1
    bounds = np.ones(len(kinds) + 1, dtype=bool)  # where a run of equal rows starts or ends
    bounds[1:-1] = (kinds[1:] != kinds[:-1]).any(axis=1)
    bounds = np.flatnonzero(bounds).tolist()
    runs = [("\n" + ",".join([_CELL_TEXT[kind] for kind in row])) * (end - start)
            for row, start, end in zip(kinds[bounds[:-1]].tolist(), bounds, bounds[1:])]
    head = ",".join(header).replace("%", "%%")
    return "".join([head, *runs, "\n"]) % tuple(table[kinds == 2].tolist())


def _json_cells(column, gap) -> list:
    """One column's JSON values: native numbers, the CSV's spelling of a
    non-finite one (strict JSON has no inf or nan), None where ``gap`` is set."""
    cells = column.astype(object)
    bad = ~np.isfinite(column)
    cells[bad] = [FMT % value for value in column[bad].tolist()]
    if gap is not None:
        cells[gap] = None
    return cells.tolist()


def _emit_table(header, columns, args, absent=None) -> None:
    """Write a table given column by column, each value formatted once.

    ``columns`` holds one 1-D array per header name, and ``absent``, when
    given, one boolean mask per column marking its empty cells.
    """
    if args.format == "json":
        gaps = [None] * len(header) if absent is None else absent
        rows = list(zip(*map(_json_cells, columns, gaps)))
        text = json.dumps({"columns": list(header), "rows": rows}, indent=2, sort_keys=True) + "\n"
    else:
        text = _csv_text(header, columns, absent)
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
    x_lo, x_hi = min(xs, default=0.0), max(xs, default=0.0)  # all flat: an empty frame
    y_lo, y_hi = min(ys, default=0.0), max(ys, default=0.0)
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
    res = solve_spectrum(build_h(args.n, _resolve_boundary(args)))
    columns = (np.arange(1, args.n + 1), res.energies.real, res.energies.imag, res.real_flags)
    _emit_table(("index", "energy_re", "energy_im", "is_real"), columns, args)
    _summary(f"all_real={str(res.all_real).lower()}", args)
    return 0


def cmd_curve(args) -> int:
    if not args.e_min < args.e_max:
        return _usage_error("--e-min must be below --e-max")
    if args.samples < 2:
        return _usage_error("--samples must be at least 2")
    table, absent = _curve_stack(args.n, np.linspace(args.e_min, args.e_max, args.samples))
    _emit_table(("energy", "r_squared", "r_plus", "r_minus", "residual"), table.T, args, absent.T)
    if args.svg is not None:
        curve_pts = table[~absent[:, 1], :2].tolist()
        _write_text(_svg_line_plot(curve_pts, "energy", "coupling^2"), args.svg)
    _summary(f"samples={len(table)} flat_rows={np.count_nonzero(absent[:, 1])}", args)
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
        "h_diag": _matrix_json(np.conj(basis.eigenvalues)),
        "positivity_eigs": np.linalg.eigh(theta).eigenvalues.tolist(),
        "qh_residual": quasi_hermiticity_residual(h, theta),
    }
    _write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_evolve(args) -> int:
    observables = args.observable or []
    for k, (name, matrix) in enumerate(observables):
        if any(name == other for other, _ in observables[:k]):
            return _usage_error(f"two observables head the column expect_{name}")
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
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:  # evolve's input checks
        return _usage_error(str(exc))
    crosscheck = []
    if args.crosscheck:
        partner = textbook_evolve(*start, states.t[-1], args.dt, tol=tol, map_kind=args.map)
        # |Omega psi - psi'| of every row in stacked products that round as
        # np.linalg.norm of each row's gap does: one dot per part, summed
        gap = states.omega @ states.psi[..., None] - partner.psi[..., None]
        re, im = gap.real, gap.imag
        crosscheck = [np.sqrt((re.swapaxes(-1, -2) @ re + im.swapaxes(-1, -2) @ im)[:, 0, 0])]

    # every row's generator spectrum in one solve and each observable
    # column in one stacked pass; the earliest refused row is raised, and
    # within a row an observable's refusal before the spectrum's
    times, norms, kets, thetas = states.t, states.phys_norm, states.psi, states.theta
    spectra, _, _, failures = _eigen_arrays(states.generator)
    if any(matrix is None for _, matrix in observables):
        energy = build_h(args.n, z_from_phi(args.profile(times)[0]))
    stacks = [
        _expectation_stack(
            kets, thetas,
            energy if matrix is None else np.broadcast_to(matrix, thetas.shape),
        )
        for _, matrix in observables
    ]
    _raise_earliest(*(errors for _, errors in stacks), failures)
    pairs = [f"{i}_{part}" for i in range(args.n) for part in ("re", "im")]
    header = ["t", *(f"psi{pair}" for pair in pairs), "phys_norm",
              *(f"expect_{name}" for name, _ in observables), *(f"g{pair}" for pair in pairs)]
    columns = [times, kets.view(float), norms, *(values for values, _ in stacks),
               spectra.view(float), *crosscheck]
    _emit_table(header + ["crosscheck"] * args.crosscheck, np.column_stack(columns).T, args)

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
    rows = ep_scan(args.n, grid)
    _emit_table(("r", "min_gap", "vector_condition"), rows.T, args)
    fallback = np.count_nonzero(~np.isfinite(rows[:, 2]))
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

    @property
    def passed(self) -> bool:
        return self.residual <= IDENTITY_THRESHOLD


def run_identity_suite(phi_grid=None, tol=None):
    """Closed-form versus pipeline checks on the two-site problem.

    Every identity is evaluated on the grid of phi by ``DEFAULT_RATES``
    and reduced to its worst absolute residual.  Raises EPProximity if
    the grid strays inside the coalescence margin, ValueError if it is empty.
    """
    tol = tol if tol is not None else get_tolerances()
    phis = tuple(float(p) for p in (phi_grid if phi_grid is not None else DEFAULT_PHI_GRID))
    if not phis:
        raise ValueError("phi_grid must hold at least one angle")
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
        got_eigs = np.linalg.eigh(bundle.theta).eigenvalues
        want_eigs = np.sort(np.array(theta_eigs(phi)))
        note("metric_eigenvalues", float(np.max(np.abs(got_eigs - want_eigs))))
        note("quasi_hermiticity", quasi_hermiticity_residual(h, bundle.theta))
        for rate in DEFAULT_RATES:
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
    return [IdentityResult(name, residual) for name, residual in worst.items()]


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
    group.add_argument("--z", type=_flag(_complex_flag), metavar="RE,IM",
                       help="corner value z")
    group.add_argument("--r", type=float, help="coupling strength, |r| <= 1")
    if phi:
        group.add_argument("--phi", type=float,
                           help="boundary angle, z = i*cos(phi)")
    if robin:
        group.add_argument("--robin", type=_flag(_robin_flag), metavar="ALPHA,BETA,H",
                           help="mixed boundary data on spacing H")


def _add_output_flags(sub):
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
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
    mt.add_argument("--kappa", type=_flag(_float_list_flag), metavar="K1,K2,...",
                    default=None, help="positive metric weights (default all ones)")
    mt.add_argument("--out", metavar="PATH", default=None)
    mt.set_defaults(handler=cmd_metric)

    ev = subs.add_parser("evolve", help="moving-metric time evolution")
    ev.add_argument("--n", type=int, required=True)
    ev.add_argument("--profile", type=_flag(PhiProfile.from_spec), required=True,
                    help="constant:phi=F | linear:phi0=F,omega=F | "
                         "sin:phi0=F,amp=F,freq=F | table:CSV")
    ev.add_argument("--psi0", type=_flag(_ket_flag), required=True,
                    metavar="RE,IM,...", help="initial ket, re,im pairs")
    ev.add_argument("--t0", type=float, default=0.0)
    ev.add_argument("--t1", type=float, required=True)
    ev.add_argument("--dt", type=float, required=True)
    ev.add_argument("--observable", type=_flag(_observable_flag), action="append",
                    help="'hamiltonian' or 'file:PATH' (repeatable)")
    ev.add_argument("--crosscheck", action="store_true",
                    help="append |Omega psi - psi'| against the textbook solution: "
                    "evolve's own error on the ketket map, its agreement with a "
                    "second RK4 run on hermitian_root")
    ev.add_argument("--map", choices=MAP_KINDS, default="ketket_columns",
                    help="Dyson map (default %(default)s); hermitian_root is a "
                         "different dynamics with the same metric, not a gauge")
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
    nv.add_argument("--phi-grid", type=_flag(_float_list_flag), metavar="P1,P2,...",
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
