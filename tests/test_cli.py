"""End-to-end drives of the command-line entry point, run in process."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
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
from nipsqw import cli, matrix_core, metric, n2_oracle, nip_evolution
from nipsqw.cli import IDENTITY_THRESHOLD, _emit_table, main, run_identity_suite
from nipsqw.config import Tolerances, get_tolerances
from nipsqw.errors import NoConvergence
from nipsqw.hamiltonian import PhiProfile, RobinParams, build_h, robin_to_z, z_from_phi, z_from_r
from nipsqw.n2_oracle import g_eigs
from nipsqw.nip_evolution import MAP_KINDS
from nipsqw.spectrum import _curve_stack, ep_scan, solve_spectrum


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


def test_spectrum_keeps_a_far_two_site_pair_apart(capsys):
    code, out, err = invoke(capsys, "spectrum", "--n", "2", "--z", "1e12,0")
    assert code == 0
    _, rows = table_of(out)
    assert [row[1] for row in rows] == ["-999999999999", "-999999999997"]
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


def test_spectrum_refuses_a_robin_corner_that_overflows(capsys):
    # finite flags whose products overflow are a numerical failure, not a traceback
    code, out, err = invoke(capsys, "spectrum", "--n", "3", "--robin", "1e200,1e200,1e200")
    assert code == 2 and out == ""
    assert err == "error: 1 - beta*h - i*alpha*h = (-inf-infj) is not finite\n"


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


def test_curve_far_off_the_band_prints_the_root_of_the_determinant(capsys):
    # det(r^2 = 1) - det(r^2 = 0) cancelled here: the slope of the affine
    # determinant is formed exactly, so r^2 is within an ulp of the root
    code, out, err = invoke(
        capsys, "curve", "--n", "4", "--e-min", "1e5", "--e-max", "1e6", "--samples", "2"
    )
    assert code == 0, err
    _, rows = table_of(out)
    assert [row[:2] for row in rows] == [["100000", "9999600003"], ["1000000", "999996000003"]]


def test_curve_refuses_a_row_past_the_double_range(capsys):
    # the N = 64 rows' residuals resolve only to ~1e365 and ~1e384
    for n, e_min, e_max, samples, first in (("4", "-1e300", "1e300", "5", "-1e+300"),
                                            ("64", "1e6", "2e6", "2", "1000000.0")):
        code, out, err = invoke(capsys, "curve", "--n", n, "--e-min", e_min, "--e-max", e_max,
                                "--samples", samples)
        assert (code, out) == (2, "")
        assert err == f"error: curve leaves the double range at N = {n}, E = {first}\n"


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


def test_metric_refuses_an_end_entry_that_rounds_to_zero(capsys):
    # the far corner's level of a 64-site well at z = 1e4 has a zero end entry
    code, out, err = invoke(capsys, "metric", "--n", "64", "--z", "10000,0")
    assert code == 2 and out == ""
    assert err == "error: end entry of level 63 rounds to zero\n"


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


def test_metric_prints_the_corner_of_a_coupling_near_one(capsys):
    # z.im = sqrt(1 - r^2) without cancellation: 1.4142136208440159e-05 to
    # 50 digits, where sqrt(1.0 - r * r) gives 1.4142136208793713e-05
    code, out, _ = invoke(capsys, "metric", "--n", "4", "--r", "0.9999999999")
    assert code == 0
    assert '"im": 1.414213620844016e-05' in out
    assert json.loads(out)["z"] == {"re": 0.0, "im": 1.414213620844016e-05}


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


def test_evolve_root_map_runs_to_the_margin_with_its_rows(capsys):
    # the root map shares the ketket map's refusals: at N=4 it runs to the
    # margin at t = 1 and prints the 1,000 rows before it; no definiteness
    # floor on Theta (cond 1.4e11 at sin phi = 1e-5) cuts it short
    code, out, err = invoke(
        capsys,
        "evolve", "--n", "4",
        "--profile", "linear:phi0=0.01,omega=-0.01",
        "--psi0", "1,0,1,0,1,0,1,0", "--t1", "1", "--dt", "1e-3",
        "--map", "hermitian_root",
    )
    assert code == 2
    _, rows = table_of(out)
    assert len(rows) == 1000 and float(rows[-1][0]) == 0.999
    assert "aborted_at=1\n" in err
    assert "error: trajectory reached the exceptional-point margin at t = 1," in err
    assert "definiteness" not in err


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


def test_an_observables_refusal_comes_before_the_spectrums_in_its_row(capsys, tmp_path,
                                                                       monkeypatch):
    # the generator spectrum is refused at row 0, where the projector is
    # refused too: its refusal is printed; with a clean observable the
    # spectrum's is
    target = tmp_path / "proj.csv"
    target.write_text("1,0,0,0\n0,0,0,0\n")
    solve = cli._eigen_arrays

    def refuse_the_first_row(stack):
        values, vectors, defect, _ = solve(stack)
        return values, vectors, defect, {0: NoConvergence("spectrum refused")}

    monkeypatch.setattr(cli, "_eigen_arrays", refuse_the_first_row)
    evolve = ("evolve", "--n", "2", "--profile", "constant:phi=1.0", "--psi0", "1,0,0,0",
              "--t1", "0.5", "--dt", "0.01")
    code, out, err = invoke(capsys, *evolve, "--observable", f"file:{target}")
    assert (code, out) == (2, "")
    assert err.startswith("error: metric compatibility residual")
    code, out, err = invoke(capsys, *evolve, "--observable", "hamiltonian")
    assert (code, out, err) == (2, "", "error: spectrum refused\n")


@pytest.mark.parametrize("stem", ["a,b", "a\nb"], ids=["comma", "newline"])
def test_an_observable_name_that_would_split_the_table_is_a_usage_error(capsys, tmp_path, stem):
    # the file's stem heads the observable's column: a comma or a line break
    # in it would shift every column after it
    target = tmp_path / f"{stem}.csv"
    target.write_text("1,0,0,0\n0,0,1,0\n")
    code, out, err = invoke(capsys, "evolve", "--n", "2", "--profile", "constant:phi=1.0",
                            "--psi0", "1,0,0,0", "--t1", "0.1", "--dt", "0.05",
                            "--observable", f"file:{target}")
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == (f"nipsqw: error: argument --observable: {str(target)!r}: "
                                    "observable name holds a comma or line break"), err


@pytest.mark.parametrize("first, second, column", [
    ("hamiltonian", "file:sub/hamiltonian.csv", "expect_hamiltonian"),
    ("file:a/x.csv", "file:b/x.csv", "expect_x"),
], ids=["hamiltonian-and-file", "two-files"])
def test_a_repeated_observable_column_is_a_usage_error(capsys, tmp_path, monkeypatch,
                                                       first, second, column):
    # two columns of one name would let a reader that looks columns up by
    # name take one observable for the other; refused before integrating
    monkeypatch.chdir(tmp_path)
    for flag in (first, second):
        if flag.startswith("file:"):
            Path(flag[5:]).parent.mkdir()
            Path(flag[5:]).write_text("1,0,0,0\n0,0,1,0\n")
    monkeypatch.setattr(cli, "evolve", lambda *args, **kwargs: pytest.fail("integrated"))
    code, out, err = invoke(capsys, "evolve", "--n", "2", "--profile", "constant:phi=1.0",
                            "--psi0", "1,0,0,0", "--t1", "0.1", "--dt", "0.05",
                            "--observable", first, "--observable", second)
    assert (code, out) == (1, "")
    assert err == f"nipsqw: error: two observables head the column {column}\n"


def test_an_observable_name_with_a_percent_sign_heads_its_column(capsys, tmp_path):
    target = tmp_path / "p%d.csv"
    target.write_text("1,0,0,0\n0,0,1,0\n")
    code, out, _ = invoke(capsys, "evolve", "--n", "2", "--profile", "constant:phi=1.0",
                          "--psi0", "1,0,0,0", "--t1", "0.1", "--dt", "0.05",
                          "--observable", f"file:{target}")
    assert code == 0
    assert out.splitlines()[0] == (
        "t,psi0_re,psi0_im,psi1_re,psi1_im,phys_norm,expect_p%d,g0_re,g0_im,g1_re,g1_im")


def test_a_non_ascii_observable_name_heads_its_column_in_utf8(capsys, tmp_path):
    # the table is formatted as bytes; --out writes them as they are, and
    # stdout gets the same text
    observable = _matrix_csv(tmp_path / "énergie.csv", build_h(2, z_from_phi(1.0)))
    argv = ("evolve", "--n", "2", "--profile", "constant:phi=1.0", "--psi0", "1,0,0,0",
            "--t1", "0.1", "--dt", "0.05", "--observable", observable)
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert out.splitlines()[0].split(",")[6] == "expect_énergie"
    target = tmp_path / "table.csv"
    assert invoke(capsys, *argv, "--out", str(target))[0] == 0
    assert target.read_bytes() == out.encode("utf-8")


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
    h = build_h(6, z_from_r(0.0))
    values, _, errors = metric._well_ketket_stack(h[None], [metric._driven_coupling(h)])
    values, error = values[0], errors[0]
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
        assert k not in errors and 0 not in alone[2]
    assert np.isnan(rows[1, 1]) and rows[1, 2] == np.inf
    rows_alone = np.vstack([ep_scan(5, [r]) for r in grid[::2]])
    np.testing.assert_array_equal(rows[[0, 2]], rows_alone)
    lapack_failed = "adjoint eigenproblem did not converge: Eigenvalues did not converge"
    for (code, out, err), why in ((on_the_well, angles_failed), (past_the_circle, lapack_failed)):
        assert code == 2 and out == ""
        assert err == f"error: {why}\n"


@pytest.mark.parametrize("n", [2, 3, 4, 8, 64])
def test_driven_wells_take_no_eigensolver(capsys, monkeypatch, n):
    # ketkets, solve_spectrum, ep_scan and the spectrum, metric and epscan commands solve
    # every driven well in closed form, from the coupling alone
    calls = []
    for name in ("eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, lambda *args, name=name: calls.append(name))
    monkeypatch.setattr(matrix_core, "_eig2_closed_form", lambda *args: calls.append("eig2"))
    metric.ketkets(build_h(n, z_from_r(0.4)))
    solve_spectrum(build_h(n, z_from_r(0.4)))
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


def test_n2verify_passes_at_a_negative_sine(capsys):
    # the oracle states the package's gauge, the family at -phi, so
    # sin phi < 0 passes as the default grid does
    code, out, _ = invoke(capsys, "n2verify", "--phi-grid=-1")
    assert code == 0 and out.count("PASS") == 8 and "failures=0" in out


def test_identity_suite_passes_over_the_whole_circle():
    # 40 angles with |sin phi| >= 0.05, both signs of the sine, rates as by default
    circle = np.linspace(-np.pi + 0.15, np.pi - 0.15, 41)
    grid = circle[np.abs(np.sin(circle)) >= 0.05]
    assert [r.passed for r in run_identity_suite(phi_grid=grid)] == [True] * 8


def test_n2verify_default_grid_is_unmoved_by_the_gauge(capsys, monkeypatch):
    # every default angle has sin phi > 0, where the gauge is the identity
    _, gauged, _ = invoke(capsys, "n2verify")
    monkeypatch.setattr(n2_oracle, "_gauge", lambda phi, phi_dot=0.0: (phi, phi_dot))
    assert invoke(capsys, "n2verify") == (0, gauged, "")


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


def test_identity_suite_refuses_an_empty_grid():
    # an empty grid checks nothing, so it cannot read as eight passes
    for grid in ([], ()):
        with pytest.raises(ValueError, match="at least one angle"):
            run_identity_suite(phi_grid=grid)


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
    """(header, columns, absent): float, integer and boolean columns, up to
    70 of them, with edge values, empty cells and header names holding
    ``%``, and sometimes a non-negative column followed by its mirror, as
    the curve's r_plus and r_minus."""
    rows = draw(st.integers(0, 6))
    floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                       st.sampled_from(SPECIAL_FLOATS))
    width = draw(st.integers(1, 70))
    kinds = draw(st.lists(st.sampled_from(("float", "int", "bool")),
                          min_size=width, max_size=width))
    no_gaps = np.zeros(rows, dtype=bool)
    columns, absent = [], []
    for kind in kinds:
        cells = {"float": floats, "int": st.integers(-1000, 1000), "bool": st.booleans()}[kind]
        columns.append(np.array(draw(st.lists(cells, min_size=rows, max_size=rows)),
                                dtype={"float": float, "int": np.int64, "bool": bool}[kind]))
        gaps = st.lists(st.booleans(), min_size=rows, max_size=rows)
        absent.append(np.array(draw(gaps), dtype=bool) if kind == "float"
                      and draw(st.booleans()) else no_gaps)
    if draw(st.booleans()):
        plus = draw(st.lists(st.one_of(st.floats(min_value=0.0), st.sampled_from((-0.0, 0.0))),
                             min_size=rows, max_size=rows))
        plus = np.array(plus, dtype=float)
        gap = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), dtype=bool)
        columns += [plus, np.where(plus > 0, -plus, 0.0)]
        absent += [gap, gap]
    names = st.sampled_from(("c", "%", "%%", "p%d", "%s%", "x%(a)s", "100%"))
    header = [f"{draw(names)}{k}" for k in range(len(columns))]
    return header, columns, absent


def _write_table(header, columns, absent, fmt):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        _emit_table(header, columns, argparse.Namespace(format=fmt, out=None), absent)
    return sink.getvalue()


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=refuse)


def _gapped_wide_table():
    """70 float columns over 3 rows whose rows' gaps differ only past
    column 63, where a 64-bit key of a row's gaps would wrap."""
    columns = [np.array([1.5, -0.0, np.nan]) * k for k in range(70)]
    absent = [np.array([k > 63, k == 69, False]) for k in range(70)]
    return [f"c{k}" for k in range(70)], columns, absent


def _alternating_table():
    """Cell kinds that change on every row, so that every run is one row long:
    a gap on every other row, a flag that flips and a gap on every third."""
    k = np.arange(9)
    columns = [np.linspace(-1.0, 1.0, 9), k % 2 == 0, k * 0.5, np.full(9, -0.0)]
    absent = [k % 2 == 1, np.zeros(9, dtype=bool), k % 3 == 0, np.zeros(9, dtype=bool)]
    return ["x", "flag", "y%", "zero"], columns, absent


def _curve_table():
    """A real curve table laid out as ``nipsqw curve`` writes it: 401 rows in
    seven runs, whose kinds change where an energy crosses a band edge."""
    table, absent = _curve_stack(4, np.linspace(0.05, 3.95, 401))
    return ["energy", "r_squared", "r_plus", "r_minus", "residual"], list(table.T), list(absent.T)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_tables())
@example(_curve_table())
@example(_gapped_wide_table())
@example(_alternating_table())
@example((["one run", "flag"], [np.arange(6.0), np.ones(6, dtype=bool)], [np.zeros(6, dtype=bool)] * 2))
@example((["100%", "p%d"], [np.zeros(0), np.zeros(0, dtype=bool)], [np.zeros(0, dtype=bool)] * 2))
def test_table_writer_matches_the_per_cell_reference(table):
    header, columns, absent = table
    values = [column.tolist() for column in columns]
    gaps = [gap.tolist() for gap in absent]
    csv = _write_table(header, columns, absent, "csv")
    lines = [",".join(header)] + [
        ",".join(_reference_cell(v, g) for v, g in zip(row, row_gaps))
        for row, row_gaps in zip(zip(*values), zip(*gaps))
    ]
    assert csv == "\n".join(lines) + "\n"
    text = _write_table(header, columns, absent, "json")
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
        "ed52c5b9c2f76ecd04ad12ce98c238e314a88c836e009abc9ebff93c62632dc4")


_NO_BLAS_TABLES = r"""
import sys
from pathlib import Path
from nipsqw.cli import main

out = Path(sys.argv[1])
main(["curve", "--n", "6", "--e-min", "-0.5", "--e-max", "4.5", "--samples", "2001",
      "--out", str(out / "curve.csv")])
main(["spectrum", "--n", "33", "--r", "0.37", "--out", str(out / "spectrum.csv")])
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_tables_that_call_no_blas_do_not_depend_on_the_blas_kernel(tmp_path):
    # the curve's continuant and a driven well's levels, taken from its
    # angles, call no BLAS or LAPACK, so their --out files hold the same
    # bytes under any OpenBLAS kernel; epscan and metric do and may move
    root = str(Path(nipsqw.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env.update(PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    tables = []
    for kernel in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        out = tmp_path / kernel.get("OPENBLAS_CORETYPE", "default")
        out.mkdir()
        subprocess.run([sys.executable, "-c", _NO_BLAS_TABLES, str(out)],
                       env={**env, **kernel}, capture_output=True, timeout=300, check=True)
        tables.append([(out / name).read_bytes() for name in ("curve.csv", "spectrum.csv")])
    assert tables[0] == tables[1]


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


def test_readme_library_tour_prints_what_its_comments_state(capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    exec(text.split("```python\n")[1].split("```", 1)[0], {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "True"  # all_real
    assert float(printed[1]) < 1e-14  # the quasi-Hermiticity residual, ~1e-16
    assert float(printed[2]) < 1e-11  # np.ptp(states.phys_norm), ~1e-13


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


def test_one_process_runs_commands_as_fresh_ones_do(capsys, tmp_path):
    # the parser is built once per process; an appended flag, a usage error
    # or another subcommand must not carry over into the next command
    ident = tmp_path / "ident.csv"
    ident.write_text("1,0,0,0,0,0\n0,0,1,0,0,0\n0,0,0,0,1,0\n")
    evolve = ("evolve", "--n", "3", "--profile", "linear:phi0=1.0,omega=0.1",
              "--psi0", "1,0,0,0.5,0,0", "--t1", "0.1", "--dt", "0.05")
    commands = [
        (*evolve, "--observable", "hamiltonian", "--observable", f"file:{ident}"),
        ("epscan", "--n", "4", "--r-min", "0.1", "--r-max", "1", "--samples", "5"),
        ("evolve", "--n", "3", "--t1", "1"),
        (*evolve, "--observable", "hamiltonian"),
    ]
    runs = [invoke(capsys, *argv) for argv in commands]
    assert [code for code, _, _ in runs] == [0, 0, 1, 0]
    assert runs[0][1].splitlines()[0].count("expect_") == 2
    assert runs[3][1].splitlines()[0].count("expect_") == 1
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
    for argv in (("spectrum", "--n", "2", "--r", "2"), ("metric", "--n", "3", "--r", "-1.5")):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err == f"nipsqw: error: --r must satisfy |r| <= 1, got {argv[-1]}\n"


@pytest.mark.parametrize("argv, code, line", [
    # every parameter is finite, but amp sin(freq t) overflows at t = 0:
    # evolve's own input check, read once, is the usage error
    (("--profile", "sin:phi0=1,amp=1e308,freq=1e308", "--psi0", "1,0,0,0", "--t1", "1",
      "--dt", "0.5"),
     1, "nipsqw: error: profile angle phi or its rate is not finite at t = 0"),
    # <psi|Theta|psi> rounds to zero as a double: evolve refuses the row,
    # before an expectation or the norm drift divides by it
    (("--profile", "constant:phi=0.5", "--psi0", "1e-300,0,0,1e-300", "--t1", "0", "--dt",
      "1", "--observable", "hamiltonian"),
     2, "error: metric norm came out not positive at t = 0"),
    (("--profile", "constant:phi=0.5", "--psi0", "1e-300,0,0,1e-300", "--t1", "0", "--dt",
      "1"),
     2, "error: metric norm came out not positive at t = 0"),
    # re,im pairs are read as complex numbers, not as re + 1j * im, whose
    # 1j * inf = nan + inf j would warn before the usage error
    (("--profile", "constant:phi=1", "--psi0", "1,inf,0,0", "--t1", "1", "--dt", "0.1"),
     1, "nipsqw: error: initial ket must be finite and nonzero"),
], ids=["profile_not_finite_at_a_stage", "norm_underflows", "norm_underflows_unobserved",
        "infinite_imaginary_part"])
def test_an_evolve_refusal_is_one_error_line(capsys, argv, code, line):
    assert invoke(capsys, "evolve", "--n", "2", *argv) == (code, "", line + "\n")


def test_an_infinite_imaginary_part_of_an_observable_is_one_usage_line(capsys, tmp_path):
    # read as a complex view of the re,im columns, as --psi0 is
    matrix = tmp_path / "infimag.csv"
    matrix.write_text("1,0,0,inf\n0,0,1,0\n")
    argv = ("evolve", "--n", "2", "--profile", "constant:phi=1", "--psi0", "1,0,0,0",
            "--t1", "1", "--dt", "0.1", "--observable", f"file:{matrix}")
    line = "nipsqw: error: observable 'infimag' takes finite numbers only\n"
    assert invoke(capsys, *argv) == (1, "", line)


def test_a_linear_algebra_failure_is_not_a_usage_error(monkeypatch):
    # LinAlgError is a ValueError, which cmd_evolve reads as evolve's input
    # checks; it propagates instead, so it never reads as flag misuse
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    argv = ["evolve", "--n", "3", "--profile", "constant:phi=1.2", "--psi0", "1,0,0,0,0,0",
            "--t1", "0.1", "--dt", "0.05", "--map", "hermitian_root"]
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        main(argv)


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


@pytest.mark.parametrize(
    "rows", ["0,1\n1,nan\n2,1.2\n3,1.3\n", "0,1\n1,-1e308\n2,1e308\n3,-1e308\n"],
    ids=["nan", "overflowing spline"],
)
def test_a_table_that_is_not_finite_is_a_usage_error(capsys, tmp_path, rows):
    # a table sample, or the spline through finite ones, that is not finite
    # is refused with the flag, never reaching the integration
    table = tmp_path / "drive.csv"
    table.write_text(rows)
    code, out, err = invoke(capsys, "evolve", "--n", "3", "--profile", f"table:{table}",
                            "--psi0", "1,0,0,0,0,0", "--t1", "1", "--dt", "0.1")
    assert code == 1 and out == "" and "Warning" not in err
    assert err.splitlines()[-1] == (
        "nipsqw: error: argument --profile: "
        "tabulated profile takes finite numbers only, spline included"), err


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


@pytest.mark.parametrize("argv", [("curve", "--e-min", "0", "--e-max", "1"),
                                  ("epscan", "--r-min", "0", "--r-max", "1")],
                         ids=lambda argv: argv[0])
def test_samples_beyond_memory_are_a_usage_error(capsys, argv):
    # 10^15 doubles are 7.1 PiB, which numpy refuses to allocate at once
    code, out, err = invoke(capsys, *argv, "--n", "4", "--samples", "1000000000000000")
    assert code == 1 and out == ""
    assert err.startswith("nipsqw: error: out of memory: ") and err.count("\n") == 1, err


EVOLVE_2 = ("evolve", "--n", "2", "--psi0", "1,0,0,0", "--t1", "1", "--dt", "0.1")
MALFORMED_ARGV = {
    "robin_count": (("spectrum", "--n", "2", "--robin", "1,1"),
                    "argument --robin: expected alpha,beta,h"),
    "empty_kappa": (("metric", "--n", "2", "--r", "0.5", "--kappa", ","),
                    "argument --kappa: expected a comma-separated list of numbers"),
    "empty_phi_grid": (("n2verify", "--phi-grid", ""),
                       "argument --phi-grid: expected a comma-separated list of numbers"),
    "epscan_no_samples": (("epscan", "--n", "2", "--r-min", "0", "--r-max", "1",
                           "--samples", "0"), "--samples must be at least 1"),
    "observable_missing": ((*EVOLVE_2, "--profile", "constant:phi=1",
                            "--observable", "file:{missing}"),
                           "argument --observable: {missing} not found"),
    "observable_not_nx2n": ((*EVOLVE_2, "--profile", "constant:phi=1",
                             "--observable", "file:{wide}"),
                            "argument --observable: {wide}: matrix CSV needs N rows and 2N re,im"),
    "observable_kind": ((*EVOLVE_2, "--profile", "constant:phi=1", "--observable", "energy"),
                        "argument --observable: observable must be 'hamiltonian' or 'file:PATH'"),
    "table_missing": ((*EVOLVE_2, "--profile", "table:{missing}"),
                      "argument --profile: {missing} not found"),
    "table_three_columns": ((*EVOLVE_2, "--profile", "table:{three}"),
                            "argument --profile: {three}: expected two columns t,phi"),
    "profile_item": ((*EVOLVE_2, "--profile", "linear:phi0=1,omegaa"),
                     "argument --profile: profile item 'omegaa' is not key=value"),
    "profile_keys": ((*EVOLVE_2, "--profile", "linear:phi0=1,omegaa=2"),
                     "argument --profile: profile 'linear' takes exactly phi0, omega, got phi0, omegaa"),
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
    assert err.splitlines()[-1].startswith(f"nipsqw: error: {error.format(**files)}"), err


FLAG_REASONS = {
    "robin_count": (cli._robin_flag, "1,1", "expected alpha,beta,h"),
    "empty_list": (cli._float_list_flag, ",", "comma-separated list"),
    "observable_missing": (cli._observable_flag, "file:{missing}", "missing.csv not found"),
    "observable_not_nx2n": (cli._observable_flag, "file:{wide}", "N rows and 2N re,im columns"),
    "observable_kind": (cli._observable_flag, "energy", "'hamiltonian' or 'file:PATH'"),
    "table_missing": (PhiProfile.from_spec, "table:{missing}", "missing.csv not found"),
    "table_three_columns": (PhiProfile.from_spec, "table:{three}", "expected two columns t,phi"),
    "profile_item": (PhiProfile.from_spec, "linear:phi0=1,omega", "'omega' is not key=value"),
}


@pytest.mark.parametrize("parse, text, reason", FLAG_REASONS.values(), ids=FLAG_REASONS.keys())
def test_each_malformed_flag_value_names_its_reason(tmp_path, parse, text, reason):
    # argparse prints the message of an ArgumentTypeError only: the adapter
    # turns each parser's ValueError or OSError into one with its reason
    with pytest.raises(argparse.ArgumentTypeError, match=re.escape(reason)):
        cli._flag(parse)(text.format(**_malformed_files(tmp_path)))


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
        ("eps_singular = -1e-3\n", "eps_singular must be finite and non-negative"),
        ("eps_pd = 1e-10\n", "unknown tolerance 'eps_pd'"),
    ],
    ids=["unknown_key", "no_equals", "not_a_number", "nan_margin", "negative_floor",
         "retired_floor"],
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


@pytest.mark.parametrize("name", ["eps_singular", "tol_real", "ep_margin"])
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


EVOLVE_FLAGS = {"--n": "2", "--profile": "constant:phi=1", "--psi0": "1,0,0,0", "--t1": "0.1",
                "--dt": "0.05"}


@pytest.mark.parametrize("command, given, flag, value", [
    ("spectrum", {"--r": "0.5"}, "--n", "-2"),
    ("spectrum", {"--n": "2"}, "--z", "-0.5,0.3"),
    ("spectrum", {"--n": "3"}, "--z", "-.5,-1e-3"),
    ("spectrum", {"--n": "3"}, "--r", "-1e-3"),
    ("spectrum", {"--n": "3"}, "--robin", "-1,0,0.1"),
    ("metric", {"--n": "2"}, "--phi", "-1.2"),
    ("metric", {"--n": "2", "--r": "0.5"}, "--kappa", "-1,2"),
    ("curve", {"--n": "3", "--e-max": "1", "--samples": "3"}, "--e-min", "-1e-3"),
    ("curve", {"--n": "3", "--e-min": "-2", "--samples": "3"}, "--e-max", "-.5"),
    ("curve", {"--n": "3", "--e-min": "0", "--e-max": "1"}, "--samples", "-3"),
    ("epscan", {"--n": "2", "--r-max": "0.5", "--samples": "3"}, "--r-min", "-1e-1"),
    ("epscan", {"--n": "2", "--r-min": "-1", "--samples": "3"}, "--r-max", "-0.5"),
    ("evolve", EVOLVE_FLAGS, "--psi0", "-1,0,0.5,0"),
    ("evolve", EVOLVE_FLAGS, "--t0", "-1e-3"),
    ("evolve", EVOLVE_FLAGS, "--t1", "-0.1"),
    ("evolve", EVOLVE_FLAGS, "--dt", "-0.05"),
    ("evolve", EVOLVE_FLAGS, "--ep-margin", "-1e-3"),
    ("n2verify", {}, "--phi-grid", "-0.5,0.5"),
    ("n2verify", {}, "--ep-margin", "-1e-3"),
    ("spectrum", {"--n": "3"}, "--r", "-inf"),
    ("spectrum", {"--n": "3"}, "--r", "-nan"),
    ("spectrum", {"--n": "3"}, "--z", "-inf,0"),
])
def test_a_value_may_follow_its_flag_after_a_space(capsys, command, given, flag, value):
    # a number that starts with a minus sign reads the same after a space as
    # after "=": the same stdout, stderr and exit code
    argv = [command, *(f"{name}={text}" for name, text in given.items() if name != flag)]
    spaced = invoke(capsys, *argv, flag, value)
    assert spaced == invoke(capsys, *argv, f"{flag}={value}")
    assert "expected one argument" not in spaced[2]
    assert ("takes finite numbers only" in spaced[2]) == value.startswith(("-inf", "-nan"))


def test_a_flag_is_not_taken_as_the_value_of_another(capsys):
    # only a token that starts with a minus and a digit, a minus, a dot and a
    # digit, or -inf or -nan, reads as a value: a flag after a flag is still a
    # usage error
    for argv, flag in ((("--z", "--r", "0.5"), "--z"), (("--r", "--n", "2"), "--r")):
        code, out, err = invoke(capsys, "spectrum", "--n", "2", *argv)
        assert (code, out) == (1, "")
        assert err.endswith(f"nipsqw: error: argument {flag}: expected one argument\n")
    evolve = [f"{name}={text}" for name, text in EVOLVE_FLAGS.items()]
    code, out, err = invoke(capsys, "evolve", *evolve, "--ep-margin", "-1e-3")
    assert (code, out) == (1, "")
    assert err == "nipsqw: error: --ep-margin must not be negative, got -0.001\n"


def test_missing_override_file_is_a_usage_error(capsys, tmp_path, monkeypatch):
    missing = tmp_path / "absent.cfg"
    monkeypatch.setenv("NIPSQW_TOL_OVERRIDES", str(missing))
    code, _, err = invoke(capsys, "spectrum", "--n", "2", "--r", "0.5")
    assert code == 1
    assert err.splitlines() == [f"nipsqw: error: {missing}: No such file or directory"]


def test_tolerances_follow_the_override_file_from_call_to_call(tmp_path, monkeypatch):
    # without the variable every call shares one default record; with it,
    # every call reads the file again, so a later setting or edit shows
    monkeypatch.delenv("NIPSQW_TOL_OVERRIDES", raising=False)
    assert get_tolerances() is get_tolerances() == Tolerances()
    overrides = tmp_path / "tol.cfg"
    overrides.write_text("tol_real = 1e-3\n")
    monkeypatch.setenv("NIPSQW_TOL_OVERRIDES", str(overrides))
    assert get_tolerances() == Tolerances(tol_real=1e-3)
    overrides.write_text("eps_singular = 0.5\nep_margin = 0\n")
    assert get_tolerances() == Tolerances(eps_singular=0.5, ep_margin=0.0)
    monkeypatch.delenv("NIPSQW_TOL_OVERRIDES")
    assert get_tolerances() == Tolerances()


# ------------------------------------------------------------------ any argv

EDGE_NUMBERS = ("0", "-0.7", "3", "nan", "inf", "-inf", "1e308", "-1e308", "1e-308", "", "x")
EDGE_SITES = ("-2", "0", "1", "64", "65", "2.5", "x", "1000000")
EDGE_SAMPLES = ("-1", "0", "1", "1000000000000000", "2.5", "x")
EDGE_LISTS = ("", ",", "1,", "1,2,3", "nan,1", "1,inf", "x,1", "-1,2", "1e308,1", "0,0.5")
EDGE_PROFILES = (
    "constant:phi=0", "constant:phi=", "linear:phi0=1", "linear:phi0=1,omega=0.3,omega=1",
    "sin:phi0=1,amp=0.2,freq=1e308", "sin:phi0=1,amp=1e308,freq=1e308", "bogus:phi=1",
    "linear", "", "table:{short}", "table:{text}", "table:{empty}", "table:{missing}",
    "table:{folder}",
)
EDGE_OBSERVABLES = ("energy", "file:{text}", "file:{empty}", "file:{ragged}", "file:{missing}",
                    "file:", "file:{infimag}")
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
            ("--psi0", pick((",".join(["1", "0.5"] * size),),
                            ("0,0", "nan,0", "", "1", ",".join(["1e-300"] * 2 * size),
                             ",".join(["1", "inf"] * size)))),
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
        "infimag": "1,0,0,inf\n0,0,1,0\n",
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
@example(["evolve", "--n=2", "--profile=sin:phi0=1,amp=1e308,freq=1e308", "--psi0=1,0,0,0",
          "--t1=1", "--dt=0.5"])
@example(["evolve", "--n=2", "--profile=constant:phi=0.5", "--psi0=1e-300,0,0,1e-300",
          "--t1=0", "--dt=1", "--observable=hamiltonian"])
@example(["evolve", "--n=2", "--profile=constant:phi=0.5", "--psi0=1e-300,0,0,1e-300",
          "--t1=0", "--dt=1"])
@example(["evolve", "--n=2", "--profile=constant:phi=1", "--psi0=1,inf,0,0", "--t1=1",
          "--dt=0.1"])
@example(["evolve", "--n=2", "--profile=constant:phi=1", "--psi0=1,0,0,0", "--t1=1",
          "--dt=0.1", "--observable=file:{infimag}"])
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
    # a numerical failure writes no table, unless a drive reached the
    # exceptional-point margin and printed its prefix
    if code == 2 and "aborted_at=" not in out.getvalue() + err.getvalue():
        assert out.getvalue() == "", argv
