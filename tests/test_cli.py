"""End-to-end drives of the command-line entry point, run in process."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nipsqw
from nipsqw import cli, matrix_core, metric, nip_evolution
from nipsqw.cli import IDENTITY_THRESHOLD, _emit_table, main, run_identity_suite
from nipsqw.config import Tolerances
from nipsqw.hamiltonian import PhiProfile, RobinParams, build_h, robin_to_z, z_from_r
from nipsqw.n2_oracle import g_eigs
from nipsqw.nip_evolution import MAP_KINDS
from nipsqw.spectrum import ep_scan


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table_of(out):
    lines = out.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def column(rows, idx):
    return np.array([float(row[idx]) for row in rows])


def rational_r_squared(e):
    """Independent closed-form r^2(E) for the six-site well."""
    p = e**4 - 8 * e**3 + 20 * e**2 - 16 * e + 3
    q = e**4 - 8 * e**3 + 21 * e**2 - 20 * e + 5
    return (e - 2.0) ** 2 * p / q


# ----------------------------------------------------------------- spectrum


def test_spectrum_two_site_rows(capsys):
    code, out, err = invoke(capsys, "spectrum", "--n", "2", "--r", "0.5")
    assert code == 0
    header, rows = table_of(out)
    assert header == ["index", "energy_re", "energy_im", "is_real"]
    assert [row[1] for row in rows] == ["1.5", "2.5"]
    assert [row[2] for row in rows] == ["0", "0"]
    assert "all_real=true" in err


def test_spectrum_six_site_middle_merger(capsys):
    code, out, err = invoke(capsys, "spectrum", "--n", "6", "--r", "0")
    assert code == 0
    _, rows = table_of(out)
    assert len(rows) == 6
    middle = column(rows, 1)[2:4]
    assert abs(middle[0] - middle[1]) <= 1e-8


def test_spectrum_broken_pair_flagged(capsys):
    code, out, err = invoke(capsys, "spectrum", "--n", "2", "--z", "0,3")
    assert code == 0
    _, rows = table_of(out)
    assert {row[3] for row in rows} == {"false"}
    assert "all_real=false" in err


def test_spectrum_robin_matches_explicit_corner_value(capsys):
    z = robin_to_z(RobinParams(alpha=2.0, beta=1.0, grid_h=0.1))
    code_r, out_r, _ = invoke(capsys, "spectrum", "--n", "4", "--robin", "2,1,0.1")
    code_z, out_z, _ = invoke(
        capsys, "spectrum", "--n", "4", "--z", f"{z.real!r},{z.imag!r}"
    )
    assert code_r == code_z == 0
    assert out_r == out_z


def test_spectrum_json_payload(capsys):
    code, out, err = invoke(
        capsys, "spectrum", "--n", "2", "--r", "0.5", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["index", "energy_re", "energy_im", "is_real"]
    assert doc["rows"] == [[1, 1.5, 0.0, True], [2, 2.5, 0.0, True]]


# -------------------------------------------------------------------- curve


def test_curve_six_site_matches_rational_form(capsys):
    code, out, err = invoke(
        capsys,
        "curve", "--n", "6",
        "--e-min", "0.05", "--e-max", "3.95", "--samples", "400",
    )
    assert code == 0
    _, rows = table_of(out)
    assert len(rows) == 400
    checked = 0
    for row in rows:
        e = float(row[0])
        q = e**4 - 8 * e**3 + 21 * e**2 - 20 * e + 5
        if abs(q) <= 1e-2:  # skip samples hugging a pole of the rational form
            continue
        assert float(row[1]) == pytest.approx(rational_r_squared(e), rel=1e-10)
        assert float(row[4]) <= 1e-9
        checked += 1
    assert checked > 380
    assert "samples=400" in err


def test_curve_center_row_has_zero_upper_branch(capsys):
    code, out, _ = invoke(
        capsys, "curve", "--n", "6", "--e-min", "2", "--e-max", "3", "--samples", "2"
    )
    assert code == 0
    _, rows = table_of(out)
    assert float(rows[0][0]) == 2.0
    assert rows[0][2] == "0"


def test_curve_two_site_branch_is_absolute_deviation(capsys):
    code, out, _ = invoke(
        capsys, "curve", "--n", "2", "--e-min", "1.1", "--e-max", "2.9", "--samples", "19"
    )
    assert code == 0
    _, rows = table_of(out)
    for row in rows:
        e = float(row[0])
        assert float(row[2]) == pytest.approx(abs(e - 2.0), abs=1e-10)


def test_curve_out_of_band_rows_keep_empty_branches(capsys):
    code, out, _ = invoke(
        capsys, "curve", "--n", "2", "--e-min", "0.2", "--e-max", "0.8", "--samples", "4"
    )
    assert code == 0
    _, rows = table_of(out)
    for row in rows:
        assert float(row[1]) > 1.0  # r^2 beyond the band
        assert row[2] == "" and row[3] == ""
        assert float(row[4]) <= 1e-9  # residual still reported


def test_curve_flat_row_kept_not_fatal(capsys):
    # The middle level of an odd well does not move with the coupling, so
    # the implicit function has no slope there; the row stays, but empty.
    code, out, err = invoke(
        capsys, "curve", "--n", "3", "--e-min", "1", "--e-max", "3", "--samples", "3"
    )
    assert code == 0
    _, rows = table_of(out)
    assert rows[1][0] == "2"
    assert rows[1][1:] == ["", "", "", ""]
    assert "flat_rows=1" in err


def test_curve_svg_plot_written(capsys, tmp_path):
    target = tmp_path / "band.svg"
    code, _, _ = invoke(
        capsys,
        "curve", "--n", "6",
        "--e-min", "0.05", "--e-max", "3.95", "--samples", "60",
        "--svg", str(target),
    )
    assert code == 0
    body = target.read_text()
    assert body.startswith("<svg") and "<polyline" in body and body.rstrip().endswith("</svg>")


def test_curve_svg_of_only_flat_rows_is_an_empty_frame(capsys, tmp_path):
    # both energies, (3 -+ sqrt 5)/2, are levels of the six-site well that
    # no coupling moves
    target = tmp_path / "flat.svg"
    code, out, err = invoke(
        capsys, "curve", "--n", "6", "--e-min", "0.3819660112501051",
        "--e-max", "2.618033988749895", "--samples", "2", "--svg", str(target),
    )
    assert code == 0, err
    assert "flat_rows=2" in err
    assert '<polyline points=""' in target.read_text()


def test_curve_range_validation(capsys):
    code, _, err = invoke(
        capsys, "curve", "--n", "4", "--e-min", "3", "--e-max", "1", "--samples", "5"
    )
    assert code == 1
    assert "e-min" in err
    code, _, _ = invoke(
        capsys, "curve", "--n", "4", "--e-min", "1", "--e-max", "3", "--samples", "1"
    )
    assert code == 1


# ------------------------------------------------------------------- metric


def test_metric_two_site_third_pi_entries(capsys):
    code, out, _ = invoke(capsys, "metric", "--n", "2", "--phi", "1.0471975512")
    assert code == 0
    doc = json.loads(out)
    theta = np.array(doc["theta"]["re"]) + 1j * np.array(doc["theta"]["im"])
    np.testing.assert_allclose(theta, [[2.0, -1j], [1j, 2.0]], atol=1e-9)


def test_metric_at_exceptional_point_exits_two(capsys):
    code, out, err = invoke(capsys, "metric", "--n", "2", "--phi", "0")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_metric_four_site_residual_small(capsys):
    code, out, _ = invoke(capsys, "metric", "--n", "4", "--r", "0.8")
    assert code == 0
    doc = json.loads(out)
    assert doc["qh_residual"] <= 1e-9


def test_metric_payload_round_trips(capsys):
    code, out, _ = invoke(capsys, "metric", "--n", "4", "--r", "0.8")
    assert code == 0
    doc = json.loads(out)
    omega = np.array(doc["omega"]["re"]) + 1j * np.array(doc["omega"]["im"])
    theta = np.array(doc["theta"]["re"]) + 1j * np.array(doc["theta"]["im"])
    assert np.abs(omega.conj().T @ omega - theta).max() <= 1e-12
    assert min(doc["positivity_eigs"]) > 0
    assert max(abs(v) for v in doc["h_diag"]["im"]) <= 1e-9
    assert doc["omega_kind"] == "ketket_columns"


def test_metric_kappa_weights_validated(capsys):
    code, _, err = invoke(
        capsys, "metric", "--n", "2", "--r", "0.5", "--kappa", "1,2,3"
    )
    assert code == 1 and "kappa" in err
    code, _, _ = invoke(capsys, "metric", "--n", "2", "--r", "0.5", "--kappa", "1,-2")
    assert code == 1


def test_metric_kappa_weights_change_the_metric(capsys):
    _, plain, _ = invoke(capsys, "metric", "--n", "2", "--r", "0.5")
    code, weighted, _ = invoke(
        capsys, "metric", "--n", "2", "--r", "0.5", "--kappa", "2,5"
    )
    assert code == 0
    assert json.loads(plain)["theta"] != json.loads(weighted)["theta"]


# ------------------------------------------------------------------- evolve


def test_evolve_hermitian_limit_norm_column(capsys):
    code, out, err = invoke(
        capsys,
        "evolve", "--n", "2",
        "--profile", "constant:phi=1.5707963268",
        "--psi0", "1,0,0,0", "--t1", "5", "--dt", "0.001",
    )
    assert code == 0
    header, rows = table_of(out)
    norms = column(rows, header.index("phys_norm"))
    assert len(rows) == 5001
    assert norms.max() - norms.min() <= 1e-10 * norms[0]


def test_evolve_linear_drive_norm_drift(capsys):
    code, out, err = invoke(
        capsys,
        "evolve", "--n", "2",
        "--profile", "linear:phi0=1.0,omega=0.1",
        "--psi0", "1,0,0,0", "--t1", "5", "--dt", "0.001",
    )
    assert code == 0
    header, rows = table_of(out)
    norms = column(rows, header.index("phys_norm"))
    assert np.abs(norms - norms[0]).max() / norms[0] <= 1e-8
    drift = float(err.split("norm_drift=")[1].split()[0])
    assert drift <= 1e-8


def test_evolve_crosscheck_column(capsys):
    # the column maps through the same Omega the integration used, for
    # either factorization
    for n, map_kind, profile, t1 in (
        (2, "ketket_columns", "linear:phi0=1.0,omega=0.1", "2"),
        (3, "hermitian_root", "linear:phi0=1.0,omega=0.3", "0.5"),
        (4, "hermitian_root", "linear:phi0=1.0,omega=0.3", "0.5"),
    ):
        code, out, _ = invoke(
            capsys,
            "evolve", "--n", str(n), "--profile", profile,
            "--psi0", ",".join(["1", "0"] + ["0"] * (2 * n - 2)),
            "--t1", t1, "--dt", "0.01", "--crosscheck", "--map", map_kind,
        )
        assert code == 0
        header, rows = table_of(out)
        assert header[-1] == "crosscheck"
        assert column(rows, len(header) - 1).max() <= 1e-6, (n, map_kind)


def test_evolve_two_site_generator_columns_match_closed_form(capsys):
    phi0, rate = 1.0, 0.7
    code, out, _ = invoke(
        capsys,
        "evolve", "--n", "2", "--profile", f"linear:phi0={phi0},omega={rate}",
        "--psi0", "1,0,0,0", "--t1", "1", "--dt", "0.01",
    )
    assert code == 0
    header, rows = table_of(out)
    g0 = column(rows, header.index("g0_re")) + 1j * column(rows, header.index("g0_im"))
    g1 = column(rows, header.index("g1_re")) + 1j * column(rows, header.index("g1_im"))
    want = np.array([g_eigs(phi0 + rate * t, rate) for t in column(rows, 0)])
    # unordered pair: the two eigenvalues can share a real part
    straight = np.maximum(np.abs(g0 - want[:, 0]), np.abs(g1 - want[:, 1]))
    swapped = np.maximum(np.abs(g0 - want[:, 1]), np.abs(g1 - want[:, 0]))
    assert np.minimum(straight, swapped).max() <= 1e-12


def test_evolve_ep_abort_keeps_partial_output(capsys):
    code, out, err = invoke(
        capsys,
        "evolve", "--n", "2",
        "--profile", "linear:phi0=0.5,omega=-0.1",
        "--psi0", "1,0,0,0", "--t1", "10", "--dt", "0.01",
    )
    assert code == 2
    header, rows = table_of(out)
    assert len(rows) > 100
    assert float(rows[-1][0]) < 5.0
    assert "aborted_at=5" in err


def test_evolve_ep_margin_flag_tightens_the_abort(capsys):
    code, out, err = invoke(
        capsys,
        "evolve", "--n", "2",
        "--profile", "linear:phi0=0.5,omega=-0.1",
        "--psi0", "1,0,0,0", "--t1", "10", "--dt", "0.01",
        "--ep-margin", "0.2",
    )
    assert code == 2
    _, rows = table_of(out)
    # sin(phi) hits 0.2 around t = (0.5 - asin(0.2)) / 0.1
    assert float(rows[-1][0]) < 3.1


def test_evolve_observable_columns(capsys, tmp_path):
    target = tmp_path / "ident.csv"
    target.write_text("1,0,0,0\n0,0,1,0\n")
    code, out, _ = invoke(
        capsys,
        "evolve", "--n", "2",
        "--profile", "constant:phi=1.0",
        "--psi0", "1,0,0,0", "--t1", "0.5", "--dt", "0.01",
        "--observable", "hamiltonian", "--observable", f"file:{target}",
    )
    assert code == 0
    header, rows = table_of(out)
    energy = column(rows, header.index("expect_hamiltonian"))
    ident = column(rows, header.index("expect_ident"))
    assert energy.max() - energy.min() <= 1e-9  # conserved under a static well
    np.testing.assert_allclose(ident, 1.0, atol=1e-10)


def test_evolve_rejects_metric_incompatible_observable(capsys, tmp_path):
    target = tmp_path / "proj.csv"
    target.write_text("1,0,0,0\n0,0,0,0\n")
    code, _, err = invoke(
        capsys,
        "evolve", "--n", "2",
        "--profile", "constant:phi=1.0",
        "--psi0", "1,0,0,0", "--t1", "0.5", "--dt", "0.01",
        "--observable", f"file:{target}",
    )
    assert code == 2
    assert "compatibility" in err


def _matrix_csv(path, matrix):
    path.write_text("".join(
        ",".join(f"{part!r}" for entry in row for part in (entry.real, entry.imag)) + "\n"
        for row in matrix.tolist()))
    return f"file:{path}"


def _exact_gate_only(monkeypatch):
    """Send every row of the observable gate to the exact 2-norm residual."""
    monkeypatch.setattr(nip_evolution, "_squares_in_range",
                        lambda norms: np.zeros(norms.shape, dtype=bool))


def test_evolve_observable_gate_reads_as_the_exact_residual(capsys, tmp_path, monkeypatch):
    # file: observables under a static metric, within 1e-6 of the gate on
    # either side and at entry scales of 1e-170, 1e150 and 1e300: the same
    # exit code and bytes as with the exact residual on every row
    argv = ("evolve", "--n", "3", "--profile", "constant:phi=1.0",
            "--psi0", "1,0,0.5,0.5,0,-1", "--t1", "0.05", "--dt", "0.01")
    theta = nip_evolution.evolve(3, PhiProfile.constant(1.0), [1, 0.5 + 0.5j, -1j],
                                 0.0, 0.05, 0.01).theta[0]
    rng = np.random.default_rng(5)
    hermitian = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    compatible = np.linalg.solve(theta, hermitian + hermitian.conj().T)
    kick = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    unit = metric.quasi_hermiticity_residual(compatible + 1e-6 * kick, theta) / 1e-6
    observables = [compatible * scale for scale in (1.0, 1e-170, 1e150, 1e300, 0.0)]
    observables += [compatible + 1e-8 * side / unit * kick for side in (1 - 1e-6, 1 + 1e-6)]
    observables += [np.diag([1.0, 2.0, 3.0]) * 1e150]
    runs = []
    for k, matrix in enumerate(observables):
        runs.append(invoke(capsys, *argv, "--observable", _matrix_csv(tmp_path / f"o{k}.csv",
                                                                        matrix)))
    _exact_gate_only(monkeypatch)
    for k, run in enumerate(runs):
        assert invoke(capsys, *argv, "--observable", f"file:{tmp_path / f'o{k}.csv'}") == run
    codes = [code for code, _, _ in runs]
    assert codes[:3] == [0, 0, 0] and codes[-1] == 2
    assert sum("compatibility residual" in err for _, _, err in runs) >= 2


def test_a_clean_observable_takes_no_exact_residual(capsys, tmp_path, monkeypatch):
    calls = []
    exact = nip_evolution._quasi_hermiticity_stack

    def spy(lams, thetas):
        calls.append(len(lams))
        return exact(lams, thetas)

    monkeypatch.setattr(nip_evolution, "_quasi_hermiticity_stack", spy)
    argv = ("evolve", "--n", "3", "--profile", "linear:phi0=1.0,omega=-0.3",
            "--psi0", "1,0,0.5,0.5,0,-1", "--t1", "1", "--dt", "0.01")
    for map_kind in ("ketket_columns", "hermitian_root"):
        code, out, _ = invoke(capsys, *argv, "--map", map_kind, "--observable", "hamiltonian")
        assert code == 0 and len(table_of(out)[1]) == 101
    assert calls == []
    target = tmp_path / "proj.csv"
    target.write_text("1,0,0,0,0,0\n0,0,0,0,0,0\n0,0,0,0,0,0\n")
    code, _, err = invoke(capsys, *argv, "--observable", f"file:{target}")
    assert code == 2 and "metric compatibility residual" in err
    assert calls


def test_evolve_crosscheck_column_is_each_rows_norm(capsys, monkeypatch):
    # bit for bit the norm of each row's gap, on both maps, and across the
    # edges of a drive split into calls of 4 steps; np.linalg.norm(gap,
    # axis=-1) misses it in 22 of these 459 rows (x86, numpy 2.4)
    cases = [(n, map_kind, False) for n in (2, 3, 5, 8) for map_kind in MAP_KINDS]
    cases.append((3, "hermitian_root", True))
    for n, map_kind, split in cases:
        if split:
            monkeypatch.setattr(nip_evolution, "MAX_DIM", n)
            monkeypatch.setattr(nip_evolution, "STAGE_BLOCK", 8)
        args = (n, PhiProfile.linear(1.1, -0.4), np.full(n, 1 + 0.5j), 0.0, 0.5, 0.01)
        code, out, _ = invoke(capsys, "evolve", f"--n={n}", "--profile=linear:phi0=1.1,omega=-0.4",
                              "--psi0=" + ",".join(["1", "0.5"] * n), "--t1=0.5",
                              "--dt=0.01", f"--map={map_kind}", "--crosscheck")
        assert code == 0
        states = nip_evolution.evolve(*args, map_kind=map_kind)
        partner = nip_evolution.textbook_evolve(*args[:4], states.t[-1], 0.01,
                                                map_kind=map_kind)
        want = [float(np.linalg.norm(omega @ psi - mapped))
                for omega, psi, mapped in zip(states.omega, states.psi, partner.psi)]
        assert [float(row[-1]) for row in table_of(out)[1]] == want, (n, map_kind)
        monkeypatch.undo()


def test_evolve_hermitian_root_map(capsys):
    code, _, err = invoke(
        capsys,
        "evolve", "--n", "3",
        "--profile", "linear:phi0=1.0,omega=0.1",
        "--psi0", "1,0,0,0,0,0", "--t1", "1", "--dt", "0.01",
        "--map", "hermitian_root",
    )
    assert code == 0
    drift = float(err.split("norm_drift=")[1].split()[0])
    assert drift <= 1e-8


def test_evolve_flag_validation(capsys):
    code, _, _ = invoke(
        capsys,
        "evolve", "--n", "2", "--profile", "warp:phi=2",
        "--psi0", "1,0,0,0", "--t1", "1", "--dt", "0.1",
    )
    assert code == 1
    code, _, _ = invoke(
        capsys,
        "evolve", "--n", "2", "--profile", "constant:phi=1.0",
        "--psi0", "1,0,0", "--t1", "1", "--dt", "0.1",
    )
    assert code == 1


def test_evolve_table_profile_matches_its_line(capsys, tmp_path):
    # a cubic spline through samples of a line is that line
    times = np.linspace(0.0, 1.0, 6)
    table = tmp_path / "line.csv"
    np.savetxt(table, np.column_stack([times, 1.2 - 0.3 * times]), delimiter=",")
    common = ("evolve", "--n", "3", "--psi0", "1,0,0.5,0.5,0,-1", "--t1", "1",
              "--dt", "0.05", "--observable", "hamiltonian", "--crosscheck")
    code, out, _ = invoke(capsys, *common, "--profile", f"table:{table}")
    assert code == 0
    header, rows = table_of(out)
    code, out, _ = invoke(capsys, *common, "--profile", "linear:phi0=1.2,omega=-0.3")
    assert code == 0
    want_header, want_rows = table_of(out)
    assert header == want_header
    got = np.array(rows, dtype=float)
    want = np.array(want_rows, dtype=float)
    np.testing.assert_array_equal(got[:, 0], want[:, 0])
    # every column but the rounding-level crosscheck
    got, want = got[:, :-1], want[:, :-1]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_evolve_past_the_table_exits_two(capsys, tmp_path):
    table = tmp_path / "short.csv"
    table.write_text("0,1.0\n1,1.05\n2,1.1\n3,1.15\n")
    argv = ("evolve", "--n", "2", "--profile", f"table:{table}",
            "--psi0", "1,0,0,0", "--dt", "0.1")
    code, out, err = invoke(capsys, *argv, "--t1", "30")
    assert code == 2
    assert out == "" and "outside the table" in err and "Traceback" not in err
    code, out, _ = invoke(capsys, *argv, "--t1", "3")
    assert code == 0
    assert table_of(out)[1][-1][0] == "3"


# ------------------------------------------------------------------- epscan


def test_epscan_two_site_gap(capsys):
    code, out, _ = invoke(
        capsys, "epscan", "--n", "2", "--r-min", "0.5", "--r-max", "0.5", "--samples", "1"
    )
    assert code == 0
    _, rows = table_of(out)
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)


def test_epscan_condition_blowup_toward_coalescence(capsys):
    def condition_at(r):
        _, out, _ = invoke(
            capsys, "epscan", "--n", "2",
            "--r-min", str(r), "--r-max", str(r), "--samples", "1",
        )
        _, rows = table_of(out)
        return float(rows[0][2])

    assert condition_at(1e-6) > 1e3 * condition_at(0.1)


def test_epscan_six_site_defective_sentinel(capsys):
    code, out, err = invoke(
        capsys, "epscan", "--n", "6", "--r-min", "-1", "--r-max", "1", "--samples", "41"
    )
    assert code == 0
    _, rows = table_of(out)
    at_zero = rows[20]
    assert float(at_zero[0]) == 0.0
    assert float(at_zero[1]) <= 1e-8
    assert float(at_zero[2]) == np.inf
    assert "defective_rows=1" in err


def test_epscan_exact_coalescence_is_a_defective_row(capsys):
    code, out, err = invoke(
        capsys, "epscan", "--n", "2", "--r-min", "0", "--r-max", "0", "--samples", "1"
    )
    assert code == 0
    _, rows = table_of(out)
    assert rows == [["0", "0", "inf"]]
    assert "defective_rows=1" in err


def test_defective_energies_come_from_the_one_solve(capsys):
    # the six-site well at r = 0 is refused as defective, yet keeps its energies
    values, _, error = metric._ketket_basis(build_h(6, z_from_r(0.0)))
    assert str(error) == "eigenvector matrix is numerically singular"
    code, out, _ = invoke(capsys, "spectrum", "--n", "6", "--r", "0")
    assert code == 0
    _, rows = table_of(out)
    printed = [complex(float(re), float(im)) for _, re, im, _ in rows]
    np.testing.assert_array_equal(printed, values[::-1])


def test_failed_roots_are_nan_on_every_route(capsys, monkeypatch):
    # the angle solve reports non-convergence for the r = 0.5 well alone,
    # and LAPACK fails the z = 3i well alone
    solve, lapack_eig = metric._well_angles, np.linalg.eig

    def fail_one_angle(n, r):
        angles, converged = solve(n, r)
        converged[np.abs(np.asarray(r) - 0.5) < 1e-12] = False
        return angles, converged

    def fail_one_matrix(a):
        if (np.abs(a[:, 0, 0] - 2.0) == 3.0).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return lapack_eig(a)

    monkeypatch.setattr(metric, "_well_angles", fail_one_angle)
    monkeypatch.setattr(np.linalg, "eig", fail_one_matrix)
    grid = np.array([0.3, 0.5, 0.7])
    stack = build_h(5, [z_from_r(r) for r in grid])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, vectors, errors = metric._well_ketket_stack(stack, grid)
        rows = ep_scan(5, grid)
        on_the_well = invoke(capsys, "spectrum", "--n", "5", "--r", "0.5")
        past_the_circle = invoke(capsys, "spectrum", "--n", "5", "--z", "0,3")
    assert np.isnan(values[1]).all()
    angles_failed = "adjoint eigenproblem did not converge: angle solve exhausted 60 Newton steps"
    assert str(errors[1]) == angles_failed
    for k in (0, 2):
        alone = metric._well_ketket_stack(stack[k:k + 1], grid[k:k + 1])
        for got, want in zip((values, vectors), alone):
            np.testing.assert_array_equal(got[k], want[0])
        assert errors[k] is None and alone[2][0] is None
    assert np.isnan(rows[1, 1]) and rows[1, 2] == np.inf
    rows_alone = np.vstack([ep_scan(5, [r]) for r in grid[::2]])
    np.testing.assert_array_equal(rows[[0, 2]], rows_alone)
    lapack_failed = "adjoint eigenproblem did not converge: Eigenvalues did not converge"
    for (code, out, err), why in ((on_the_well, angles_failed), (past_the_circle, lapack_failed)):
        assert code == 2 and out == ""
        assert err == f"error: {why}\n"


@pytest.mark.parametrize("n", [2, 3, 4, 8, 64])
def test_driven_wells_take_no_eigensolver(capsys, monkeypatch, n):
    # ketkets, ep_scan and the spectrum, metric and epscan commands solve
    # every driven well in closed form, from the coupling alone
    calls = []
    for name in ("eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, lambda *args, name=name: calls.append(name))
    monkeypatch.setattr(matrix_core, "_eig2_closed_form", lambda *args: calls.append("eig2"))
    metric.ketkets(build_h(n, z_from_r(0.4)))
    ep_scan(n, np.linspace(-1.0, 1.0, 9))
    for argv in (("spectrum", "--r", "0.4"), ("metric", "--phi", "2.5"),
                 ("epscan", "--r-min", "-1", "--r-max", "1", "--samples", "9")):
        code, _, _ = invoke(capsys, argv[0], "--n", str(n), *argv[1:])
        assert code == 0, argv
    assert calls == []


def test_epscan_range_validation(capsys):
    code, _, err = invoke(
        capsys, "epscan", "--n", "4", "--r-min", "-2", "--r-max", "1", "--samples", "5"
    )
    assert code == 1
    assert "range" in err


# ----------------------------------------------------------------- n2verify


def test_n2verify_default_grid_passes(capsys):
    code, out, _ = invoke(capsys, "n2verify")
    assert code == 0
    assert "failures=0" in out
    assert out.count("PASS") == 8 and "FAIL" not in out
    for line in out.strip().splitlines()[:-1]:
        assert float(line.split()[1]) <= IDENTITY_THRESHOLD


def test_n2verify_degraded_difference_step_fails(capsys, monkeypatch):
    # a two-site map slope off by 1e-6 per entry must show up as a failed
    # identity
    exact = nip_evolution._two_site_slope

    def perturbed(*args, **kwargs):
        return exact(*args, **kwargs) + 1e-6

    monkeypatch.setattr(nip_evolution, "_two_site_slope", perturbed)
    code, out, _ = invoke(capsys, "n2verify")
    assert code == 3
    status = {line.split()[0]: line.split()[-1] for line in out.splitlines()[:-1]}
    assert status["coriolis_difference"] == "FAIL"
    assert status["map_times_inverse"] == "PASS"  # closed forms stay exact


def test_n2verify_grid_touching_coalescence_exits_two(capsys):
    code, _, err = invoke(capsys, "n2verify", "--phi-grid", "0,0.5")
    assert code == 2
    assert "error" in err


def test_identity_suite_importable():
    results = run_identity_suite()
    assert [r.passed for r in results] == [True] * 8
    names = {r.name for r in results}
    assert "quasi_hermiticity" in names and "coriolis_difference" in names


# ----------------------------------------------------------------- plumbing


def test_output_file_routes_summary_to_stdout(capsys, tmp_path):
    target = tmp_path / "spec.csv"
    code, out, err = invoke(
        capsys, "spectrum", "--n", "2", "--r", "0.5", "--out", str(target)
    )
    assert code == 0
    assert target.read_text().startswith("index,")
    assert "all_real=true" in out
    assert err == ""


def test_reruns_are_byte_identical(capsys):
    args = (
        "evolve", "--n", "2", "--profile", "linear:phi0=1.0,omega=0.1",
        "--psi0", "1,0,0,0", "--t1", "1", "--dt", "0.01", "--crosscheck",
    )
    first = invoke(capsys, *args)
    second = invoke(capsys, *args)
    assert first == second


# ------------------------------------------------------------ table writer

SPECIAL_FLOATS = (-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308)


def _reference_cell(value, gap):
    """Today's CSV text of one cell, the per-cell way."""
    if gap:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "%.17g" % (value + 0.0)


def _reference_json(value, gap):
    if gap:
        return None
    if isinstance(value, float) and not np.isfinite(value):
        return "%.17g" % value
    return value


@st.composite
def _tables(draw):
    """(columns, absent, mirror): float, integer and boolean columns with
    edge values and empty cells, and sometimes a mirrored pair of columns."""
    rows = draw(st.integers(0, 6))
    floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                       st.sampled_from(SPECIAL_FLOATS))
    kinds = draw(st.lists(st.sampled_from(("float", "int", "bool")), min_size=1, max_size=5))
    columns, absent = [], []
    for kind in kinds:
        cells = {"float": floats, "int": st.integers(-1000, 1000), "bool": st.booleans()}[kind]
        columns.append(np.array(draw(st.lists(cells, min_size=rows, max_size=rows)),
                                dtype={"float": float, "int": np.int64, "bool": bool}[kind]))
        gaps = st.lists(st.booleans(), min_size=rows, max_size=rows)
        absent.append(np.array(draw(gaps), dtype=bool) if kind == "float"
                      and draw(st.booleans()) else None)
    mirror = None
    if draw(st.booleans()):  # a non-negative column and its mirror, as r_plus and r_minus
        plus = draw(st.lists(st.one_of(st.floats(min_value=0.0), st.sampled_from((-0.0, 0.0))),
                             min_size=rows, max_size=rows))
        plus = np.array(plus, dtype=float)
        gap = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), dtype=bool)
        mirror = (len(columns), len(columns) + 1)
        columns += [plus, np.where(plus > 0, -plus, 0.0)]
        absent += [gap, gap]
    return columns, absent, mirror


def _write_table(columns, absent, mirror, fmt):
    header = [f"c{k}" for k in range(len(columns))]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        _emit_table(header, columns, argparse.Namespace(format=fmt, out=None),
                    absent, mirror=mirror)
    return header, sink.getvalue()


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=refuse)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_tables())
def test_table_writer_matches_the_per_cell_reference(table):
    columns, absent, mirror = table
    values = [column.tolist() for column in columns]
    gaps = [[False] * len(column) if gap is None else gap.tolist()
            for column, gap in zip(columns, absent)]
    header, csv = _write_table(columns, absent, mirror, "csv")
    lines = [",".join(header)] + [
        ",".join(_reference_cell(v, g) for v, g in zip(row, row_gaps))
        for row, row_gaps in zip(zip(*values), zip(*gaps))
    ]
    assert csv == "\n".join(lines) + "\n"
    _, text = _write_table(columns, absent, mirror, "json")
    rows = [[_reference_json(v, g) for v, g in zip(row, row_gaps)]
            for row, row_gaps in zip(zip(*values), zip(*gaps))]
    assert text == json.dumps({"columns": header, "rows": rows}, indent=2, sort_keys=True) + "\n"
    assert _strict_json(text)["rows"] == rows


@pytest.mark.parametrize("argv", [
    ("spectrum", "--n", "6", "--r", "0"),
    ("spectrum", "--n", "2", "--z", "0,3"),
    ("curve", "--n", "3", "--e-min", "1", "--e-max", "3", "--samples", "3"),
    ("curve", "--n", "2", "--e-min", "0", "--e-max", "5", "--samples", "11"),
    ("epscan", "--n", "4", "--r-min", "-1", "--r-max", "1", "--samples", "3"),
    ("epscan", "--n", "64", "--r-min", "-1", "--r-max", "1", "--samples", "9"),
    ("evolve", "--n", "3", "--profile", "linear:phi0=1.0,omega=0.1", "--psi0", "1,0,0,0.5,0,0",
     "--t1", "0.1", "--dt", "0.05", "--observable", "hamiltonian", "--crosscheck"),
    ("metric", "--n", "4", "--r", "0.8"),
], ids=lambda argv: " ".join(argv[:3]))
def test_json_tables_are_strict_json(capsys, argv):
    code, out, _ = invoke(capsys, *argv, *(("--format", "json") if argv[0] != "metric" else ()))
    assert code == 0
    doc = _strict_json(out)
    if argv[0] == "epscan":  # the defective row at r = 0 keeps the CSV's spelling
        assert [row[0] for row in doc["rows"] if row[2] == "inf"] == [0.0]


def test_epscan_json_writes_a_nan_gap_as_a_string(capsys, monkeypatch):
    rows = np.array([[0.5, np.nan, np.inf], [1.0, -0.0, 2.0]])
    monkeypatch.setattr("nipsqw.cli.ep_scan", lambda n, grid: rows)
    code, out, err = invoke(capsys, "epscan", "--n", "2", "--r-min", "0.5", "--r-max", "1",
                            "--samples", "2", "--format", "json")
    assert code == 0 and "defective_rows=1" in err
    assert '[\n      0.5,\n      "nan",\n      "inf"\n    ]' in out
    assert _strict_json(out)["rows"] == [[0.5, "nan", "inf"], [1.0, -0.0, 2.0]]
    assert "-0.0" in out  # JSON keeps the sign of zero; CSV prints it as 0


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                    reason="the curve's determinant runs in x86 80-bit long double")
def test_curve_table_bytes_are_pinned(capsys):
    # numpy arithmetic only, no LAPACK: the bytes do not depend on the BLAS
    code, out, _ = invoke(capsys, "curve", "--n", "4", "--e-min", "0.05", "--e-max", "3.95",
                          "--samples", "14001")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8ec96dd5612ab3bb73993574b902680bc5920848acde109237caf9b7d587e7ec")


def _readme_commands():
    """Every ``nipsqw ...`` line of the README's sh blocks, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in text.split("```sh\n")[1:]:
        body = block.split("```", 1)[0].replace("\\\n", " ")
        commands += [" ".join(line.split()) for line in body.splitlines()
                     if line.strip().startswith("nipsqw ")]
    return commands


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_commands_run(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)  # the curve example writes band.svg here
    code, _, err = invoke(capsys, *shlex.split(command)[1:])
    assert code == 0, err


def _fresh_process_run(*argv):
    """(exit code, stdout, stderr) of the command in a new interpreter."""
    root = str(Path(nipsqw.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "nipsqw.cli", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    return done.returncode, done.stdout, done.stderr


def test_one_process_runs_commands_as_fresh_ones_do(capsys):
    # the parser is built once per process; an appended flag, a usage error
    # or another subcommand must not carry over into the next command
    evolve = ("evolve", "--n", "3", "--profile", "linear:phi0=1.0,omega=0.1",
              "--psi0", "1,0,0,0.5,0,0", "--t1", "0.1", "--dt", "0.05")
    commands = [
        (*evolve, "--observable", "hamiltonian", "--observable", "hamiltonian"),
        ("epscan", "--n", "4", "--r-min", "0.1", "--r-max", "1", "--samples", "5"),
        ("evolve", "--n", "3", "--t1", "1"),
        (*evolve, "--observable", "hamiltonian"),
    ]
    runs = [invoke(capsys, *argv) for argv in commands]
    assert [code for code, _, _ in runs] == [0, 0, 1, 0]
    assert runs[0][1].splitlines()[0].count("hamiltonian") == 2
    assert runs[3][1].splitlines()[0].count("hamiltonian") == 1
    assert runs == [_fresh_process_run(*argv) for argv in commands]


def test_usage_errors_exit_one(capsys, tmp_path):
    wide = tmp_path / "wide.csv"
    wide.write_text("1,0,0,0,0,0\n0,0,1,0,0,0\n0,0,0,0,1,0\n")
    evolve = ("evolve", "--n", "2", "--profile", "constant:phi=1.0")
    ket = ("--psi0", "1,0,0,0")
    horizon = ("--t1", "1", "--dt", "0.1")
    evolve_errors = (
        (*evolve, *ket, "--t1", "1", "--dt", "0"),
        (*evolve, *ket, "--t1", "1", "--dt", "-0.1"),
        (*evolve, *ket, "--t1", "1", "--dt", "inf"),
        (*evolve, *ket, "--t0", "1", "--t1", "0.5", "--dt", "0.1"),
        (*evolve, *ket, "--t1", "inf", "--dt", "0.1"),
        (*evolve, *ket, "--t1", "nan", "--dt", "0.1"),
        (*evolve, "--psi0", "1,0", *horizon),
        (*evolve, "--psi0", "1,0,0,0,0,0", *horizon),
        (*evolve, "--psi0", "0,0,0,0", *horizon),
        (*evolve, "--psi0", "nan,0,0,0", *horizon),
        (*evolve, *ket, *horizon, "--observable", f"file:{wide}"),
    )
    for argv in evolve_errors:
        code, out, err = invoke(capsys, *argv)
        assert code == 1, argv
        assert out == "" and "Traceback" not in err, argv
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("nipsqw: error: "), argv
    for argv in (
        ("spectrum", "--n", "2"),
        ("spectrum", "--n", "2", "--r", "0.5", "--z", "0,1"),
        ("spectrum", "--n", "2", "--r", "0.5", "--bogus-flag", "1"),
        ("spectrum", "--n", "2", "--z", "nonsense"),
        ("bogus",),
        (),
        ("curve", "--n", "5", "--e-min", "0.1", "--e-max", "3.9", "--samples", "5",
         "--workers", "2"),
        ("epscan", "--n", "4", "--r-min", "0.05", "--r-max", "1", "--samples", "5",
         "--workers", "2"),
        ("n2verify", "--fd-step", "0.1"),
    ):
        code, _, err = invoke(capsys, *argv)
        assert code == 1, argv
        assert "Traceback" not in err, argv


NON_FINITE_ARGV = {
    "spectrum_r": ("spectrum", "--n", "2", "--r", "nan"),
    "spectrum_z": ("spectrum", "--n", "2", "--z", "inf,0"),
    "spectrum_robin": ("spectrum", "--n", "2", "--robin", "nan,1,0.1"),
    "spectrum_robin_spacing": ("spectrum", "--n", "2", "--robin", "1,1,nan"),
    "metric_phi": ("metric", "--n", "2", "--phi", "nan"),
    "metric_kappa": ("metric", "--n", "2", "--r", "0.5", "--kappa", "nan,1"),
    "n2verify_nan": ("n2verify", "--phi-grid", "nan"),
    "n2verify_inf": ("n2verify", "--phi-grid", "inf"),
    "curve_e_max": ("curve", "--n", "3", "--e-min", "0", "--e-max", "inf", "--samples", "3"),
    "evolve_rate": ("evolve", "--n", "2", "--profile", "linear:phi0=1,omega=nan"),
    "evolve_angle": ("evolve", "--n", "2", "--profile", "constant:phi=inf"),
    "evolve_margin": ("evolve", "--n", "2", "--profile", "constant:phi=1",
                      "--ep-margin", "nan"),
    "evolve_observable": ("evolve", "--n", "2", "--profile", "constant:phi=1",
                          "--observable", "file:{nan_csv}"),
}


@pytest.mark.parametrize("argv", NON_FINITE_ARGV.values(), ids=NON_FINITE_ARGV.keys())
def test_non_finite_numbers_are_usage_errors(capsys, tmp_path, argv):
    nan_csv = tmp_path / "nan.csv"
    nan_csv.write_text("nan,0,0,0\n0,0,1,0\n")
    argv = [item.format(nan_csv=nan_csv) for item in argv]
    if argv[0] == "evolve":
        argv += ["--psi0", "1,0,0,0", "--t1", "1", "--dt", "0.1"]
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("nipsqw: error: "), err
    assert "finite numbers only" in lines[0]


@pytest.mark.parametrize("spacing", ["-0.1", "0"])
def test_non_positive_robin_spacing_is_a_usage_error(capsys, spacing):
    code, out, err = invoke(capsys, "spectrum", "--n", "4", "--robin", f"1,1,{spacing}")
    assert code == 1 and out == ""
    assert err == f"nipsqw: error: --robin grid spacing must be positive, got {spacing}\n"


@pytest.mark.parametrize("n", ["1", "0"])
@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--r", "0.5"),
        ("curve", "--e-min", "0", "--e-max", "1", "--samples", "3"),
        ("metric", "--r", "0.5"),
        ("epscan", "--r-min", "0", "--r-max", "1", "--samples", "3"),
        ("evolve", "--profile", "constant:phi=1", "--psi0", "1,0", "--t1", "1", "--dt", "0.1"),
    ],
    ids=lambda argv: argv[0],
)
def test_site_count_below_two_is_a_usage_error(capsys, argv, n):
    code, out, err = invoke(capsys, argv[0], "--n", n, *argv[1:])
    assert code == 1 and out == ""
    assert err == f"nipsqw: error: need at least two sites, got {n}\n"


EVOLVE_2 = ("evolve", "--n", "2", "--psi0", "1,0,0,0", "--t1", "1", "--dt", "0.1")
MALFORMED_ARGV = {
    "robin_count": (("spectrum", "--n", "2", "--robin", "1,1"), "argument --robin: "),
    "empty_kappa": (("metric", "--n", "2", "--r", "0.5", "--kappa", ","), "argument --kappa: "),
    "empty_phi_grid": (("n2verify", "--phi-grid", ""), "argument --phi-grid: "),
    "epscan_no_samples": (("epscan", "--n", "2", "--r-min", "0", "--r-max", "1",
                           "--samples", "0"), "--samples must be at least 1"),
    "observable_missing": ((*EVOLVE_2, "--profile", "constant:phi=1",
                            "--observable", "file:{missing}"), "argument --observable: "),
    "observable_not_nx2n": ((*EVOLVE_2, "--profile", "constant:phi=1",
                             "--observable", "file:{wide}"), "argument --observable: "),
    "observable_kind": ((*EVOLVE_2, "--profile", "constant:phi=1", "--observable", "energy"),
                        "argument --observable: "),
    "table_missing": ((*EVOLVE_2, "--profile", "table:{missing}"), "argument --profile: "),
    "table_three_columns": ((*EVOLVE_2, "--profile", "table:{three}"), "argument --profile: "),
    "profile_item": ((*EVOLVE_2, "--profile", "linear:phi0=1,omega"), "argument --profile: "),
}


def _malformed_files(tmp_path):
    (tmp_path / "wide.csv").write_text("1,0,0\n0,0,1\n")
    (tmp_path / "three.csv").write_text("".join(f"{t},1,2\n" for t in range(4)))
    return {name: str(tmp_path / f"{name}.csv") for name in ("missing", "wide", "three")}


@pytest.mark.parametrize("argv, error", MALFORMED_ARGV.values(), ids=MALFORMED_ARGV.keys())
def test_malformed_flag_values_are_usage_errors(capsys, tmp_path, argv, error):
    files = _malformed_files(tmp_path)
    code, out, err = invoke(capsys, *(item.format(**files) for item in argv))
    assert code == 1 and out == ""
    assert err.splitlines()[-1].startswith(f"nipsqw: error: {error}"), err


FLAG_REASONS = {
    "robin_count": (cli._robin_flag, "1,1", "expected alpha,beta,h"),
    "empty_list": (cli._float_list_flag, ",", "comma-separated list"),
    "observable_missing": (cli._observable_flag, "file:{missing}", "missing.csv not found"),
    "observable_not_nx2n": (cli._observable_flag, "file:{wide}", "N rows and 2N re,im columns"),
    "observable_kind": (cli._observable_flag, "energy", "'hamiltonian' or 'file:PATH'"),
    "table_missing": (cli._profile_flag, "table:{missing}", "missing.csv not found"),
    "table_three_columns": (cli._profile_flag, "table:{three}", "expected two columns t,phi"),
    "profile_item": (cli._profile_flag, "linear:phi0=1,omega", "'omega' is not key=value"),
}


@pytest.mark.parametrize("parse, text, reason", FLAG_REASONS.values(), ids=FLAG_REASONS.keys())
def test_each_malformed_flag_value_names_its_reason(tmp_path, parse, text, reason):
    # argparse reports only the flag and its value; the parser holds the reason
    with pytest.raises(ValueError, match=re.escape(reason)):
        parse(text.format(**_malformed_files(tmp_path)))


def test_tolerance_override_file(capsys, tmp_path, monkeypatch):
    overrides = tmp_path / "tol.cfg"
    overrides.write_text("tol_real = 1e-30\n")
    monkeypatch.setenv("NIPSQW_TOL_OVERRIDES", str(overrides))
    code, _, err = invoke(capsys, "spectrum", "--n", "6", "--z", "0.3,0.5")
    assert code == 0
    # LAPACK's residual imaginary parts of the real levels now trip the gate
    assert "all_real=false" in err


@pytest.mark.parametrize(
    "text, reason",
    [
        ("fd_step = 1e-4\n", "unknown tolerance 'fd_step'"),
        ("tol_real 1e-9\n", "expected key=value"),
        ("tol_real = abc\n", "tol_real is not a number"),
        ("ep_margin = nan\n", "ep_margin must be finite and non-negative"),
        ("eps_pd = -1e-3\n", "eps_pd must be finite and non-negative"),
    ],
    ids=["unknown_key", "no_equals", "not_a_number", "nan_margin", "negative_floor"],
)
def test_bad_override_file_is_a_usage_error(capsys, tmp_path, monkeypatch, text, reason):
    overrides = tmp_path / "tol.cfg"
    overrides.write_text("# header comment\n" + text)
    monkeypatch.setenv("NIPSQW_TOL_OVERRIDES", str(overrides))
    code, out, err = invoke(capsys, "spectrum", "--n", "2", "--r", "0.5")
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    assert lines[0].startswith(f"nipsqw: error: {overrides}:2: ")
    assert reason in lines[0]


@pytest.mark.parametrize("name", ["eps_singular", "eps_pd", "tol_real", "ep_margin"])
def test_tolerances_are_finite_and_non_negative(name):
    # zero turns a guard off and is kept; a NaN, infinite or negative
    # value would turn it off or refuse everything without a word
    assert getattr(Tolerances(**{name: 0.0}), name) == 0.0
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match=f"{name} must be finite and non-negative"):
            Tolerances().replace(**{name: bad})


@pytest.mark.parametrize("command", ["evolve", "n2verify"])
def test_a_negative_ep_margin_is_a_usage_error(capsys, command):
    argv = ["--ep-margin", "-1"]
    if command == "evolve":
        argv += ["--n", "2", "--profile", "constant:phi=1", "--psi0", "1,0,0,0", "--t1", "1",
                 "--dt", "0.5"]
    code, out, err = invoke(capsys, command, *argv)
    assert (code, out) == (1, "")
    assert err == "nipsqw: error: --ep-margin must not be negative, got -1\n"
    assert invoke(capsys, command, *argv[:1], "0", *argv[2:])[0] == 0


def test_missing_override_file_is_a_usage_error(capsys, tmp_path, monkeypatch):
    missing = tmp_path / "absent.cfg"
    monkeypatch.setenv("NIPSQW_TOL_OVERRIDES", str(missing))
    code, _, err = invoke(capsys, "spectrum", "--n", "2", "--r", "0.5")
    assert code == 1
    assert err.splitlines() == [f"nipsqw: error: {missing}: No such file or directory"]


# ------------------------------------------------------------------ any argv

EDGE_NUMBERS = ("0", "-0.7", "3", "nan", "inf", "-inf", "1e308", "-1e308", "1e-308", "", "x")
EDGE_SITES = ("-2", "0", "1", "64", "65", "2.5", "x", "1000000")
EDGE_SAMPLES = ("-1", "0", "1", "1000000000000000", "2.5", "x")
EDGE_LISTS = ("", ",", "1,", "1,2,3", "nan,1", "1,inf", "x,1", "-1,2", "1e308,1", "0,0.5")
EDGE_PROFILES = (
    "constant:phi=0", "constant:phi=", "linear:phi0=1", "linear:phi0=1,omega=0.3,omega=1",
    "sin:phi0=1,amp=0.2,freq=1e308", "bogus:phi=1", "linear", "", "table:{short}",
    "table:{text}", "table:{empty}", "table:{missing}", "table:{folder}",
)
EDGE_OBSERVABLES = ("energy", "file:{text}", "file:{empty}", "file:{ragged}", "file:{missing}",
                    "file:")
EDGE_PATHS = ("{missing}/table.out", "{folder}")


@st.composite
def _argvs(draw):
    """An argument vector over the CLI grammar: each subcommand, its flags
    mostly well formed, some taking an edge value, left out or joined by a
    bogus flag.  Edge values are 0, negative, nan, inf and huge numbers,
    empty and malformed lists and profile specs, and malformed, empty and
    missing files.  Sizes stay small or large enough to fail at once, so
    no draw allocates much.
    """

    def pick(good, bad):  # an edge value one time in eight
        return draw(st.sampled_from(bad if draw(st.integers(0, 7)) == 7 else good))

    def number(*good):
        return pick(good, EDGE_NUMBERS)

    command = draw(st.sampled_from(("spectrum", "curve", "metric", "evolve", "epscan",
                                    "n2verify")))
    # the curve takes any size, where a million sites would only be slow
    sites = pick(("2", "3", "5"), EDGE_SITES[:-1] if command == "curve" else EDGE_SITES)
    size = int(sites) if sites.isdigit() and int(sites) <= 64 else 2
    required = [("--n", sites)] if command != "n2verify" else []
    optional = [("--format", pick(("csv", "json"), ("xml",))),
                ("--out", pick(("{folder}/table.out",), EDGE_PATHS))]
    if command in ("spectrum", "metric"):
        required.append(draw(st.sampled_from((
            ("--z", f"{number('0', '0.3')},{number('0.5', '-0.2')}"),
            ("--r", number("0.3", "-0.7", "1")),
            ("--phi", number("1.2", "0.3")) if command == "metric"
            else ("--robin", f"{number('1', '0.5')},{number('1', '2')},{number('0.1')}"),
        ))))
    if command == "metric":
        optional = [("--kappa", pick((",".join(["1.5"] * size),), EDGE_LISTS)), optional[1]]
    if command == "curve":
        required += [("--e-min", number("0.1", "0.5")), ("--e-max", number("3.5", "3.9")),
                     ("--samples", pick(("2", "7"), EDGE_SAMPLES))]
        optional.append(("--svg", pick(("{folder}/curve.svg",), EDGE_PATHS)))
    if command == "epscan":
        required += [("--r-min", number("-1", "-0.5")), ("--r-max", number("0.5", "1")),
                     ("--samples", pick(("2", "7"), EDGE_SAMPLES))]
    if command == "evolve":
        required += [
            ("--profile", pick(("constant:phi=1.2", "linear:phi0=1,omega=0.3",
                                "linear:phi0=0.3,omega=-0.5", "sin:phi0=1,amp=0.2,freq=3",
                                "table:{table}"), EDGE_PROFILES)),
            ("--psi0", pick((",".join(["1", "0.5"] * size),), ("0,0", "nan,0", "", "1"))),
            ("--t1", number("0.3", "1")),
            ("--dt", number("0.1", "0.25", "1e308")),
        ]
        optional += [("--t0", number("0", "0.2")),
                     ("--observable", pick(("hamiltonian", "file:{matrix}"), EDGE_OBSERVABLES)),
                     ("--crosscheck", None),
                     ("--map", pick(("ketket_columns", "hermitian_root"), ("x",))),
                     ("--ep-margin", number("1e-6", "0.3"))]
    if command == "n2verify":
        optional = [("--phi-grid", pick(("0.5,1.5", "1"), EDGE_LISTS)),
                    ("--ep-margin", number("1e-6", "0.3")), optional[1]]
    argv = [command]
    for flag, value in required + optional:
        odds = 7 if (flag, value) in required else 1  # left out one time in odds + 1
        if draw(st.integers(0, odds)) != odds:
            argv += [flag] if value is None else [f"{flag}={value}"]
    return argv + ["--bogus"] * (draw(st.integers(0, 7)) == 7)


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("argv")
    contents = {
        "table": "0,1.0\n1,1.1\n2,1.2\n",
        "short": "0,1.0\n",
        "text": "a,b\nc,d\n",
        "empty": "",
        "matrix": "1,0,0,0\n0,0,1,0\n",
        "ragged": "1,0\n0,0,1\n",
    }
    for name, text in contents.items():
        (folder / f"{name}.csv").write_text(text)
    files = {name: str(folder / f"{name}.csv") for name in contents}
    return {**files, "missing": str(folder / "absent"), "folder": str(folder)}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_argvs())
@example(["evolve", "--n=2", "--profile=linear:phi0=0.3,omega=-0.5", "--psi0=1,0,0,0",
          "--t1=1", "--dt=0.1"])
@example(["evolve", "--n=2", "--profile=constant:phi=0", "--psi0=1,0,0,0", "--t1=1",
          "--dt=0.1", "--out={folder}/table.out"])
def test_no_argv_ends_in_a_traceback(cli_files, argv):
    # exit codes stay in the contract, and a failure is one error line:
    # "nipsqw: error: " for flag misuse, "error: " for a numerical failure
    argv = [item.format(**cli_files) for item in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if code in (1, 2):
        prefix = "nipsqw: error: " if code == 1 else "error: "
        lines = err.getvalue().splitlines()
        assert sum(line.startswith(prefix) for line in lines) == 1, (argv, lines)
