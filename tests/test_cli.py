"""End-to-end drives of the command-line entry point, run in process."""

import json

import numpy as np
import pytest

from nipsqw.cli import IDENTITY_THRESHOLD, main, run_identity_suite
from nipsqw.hamiltonian import RobinParams, robin_to_z
from nipsqw.n2_oracle import g_eigs


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


def test_n2verify_degraded_difference_step_fails(capsys):
    code, out, _ = invoke(capsys, "n2verify", "--fd-step", "0.1")
    assert code == 3
    failing = {line.split()[0] for line in out.splitlines() if "FAIL" in line}
    assert "coriolis_difference" in failing
    assert "map_times_inverse" not in failing  # closed forms stay exact


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


def test_usage_errors_exit_one(capsys):
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
    ):
        code, _, _ = invoke(capsys, *argv)
        assert code == 1, argv


def test_tolerance_override_file(capsys, tmp_path, monkeypatch):
    overrides = tmp_path / "tol.cfg"
    overrides.write_text("tol_real = 1e-30\n")
    monkeypatch.setenv("NIPSQW_TOL_OVERRIDES", str(overrides))
    code, _, err = invoke(capsys, "spectrum", "--n", "6", "--r", "0")
    assert code == 0
    # residual imaginary parts at the defective point now trip the gate
    assert "all_real=false" in err
