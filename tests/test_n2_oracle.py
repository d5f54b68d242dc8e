"""Closed-form two-site oracles: displays, eigenvalues, regime split."""

import numpy as np
import pytest

from nipsqw.errors import EPProximity
from nipsqw.hamiltonian import build_h, z_from_phi
from nipsqw.matrix_core import adjoint, eig_general
from nipsqw.n2_oracle import (
    N2Params,
    g_eigs,
    g_s,
    omega_s,
    omega_s_dot,
    omega_s_inv,
    regime,
    sigma_eigs,
    sigma_s,
    theta_eigs,
    theta_s,
)


def sorted_pair(values):
    return sorted(values, key=lambda v: (v.real, v.imag))


# ------------------------------------------------------------ the Dyson map


def test_omega_inverse_identity():
    product = omega_s(np.pi / 2) @ omega_s_inv(np.pi / 2)
    np.testing.assert_allclose(product, np.eye(2), atol=1e-15)


def test_omega_factorizes_the_metric():
    for phi in np.linspace(0.1, np.pi - 0.1, 15):
        np.testing.assert_allclose(
            adjoint(omega_s(phi)) @ omega_s(phi), theta_s(phi), atol=1e-14
        )


def test_omega_dot_stationary_limit():
    np.testing.assert_allclose(omega_s_dot(0.9, 0.0), np.zeros((2, 2)), atol=0)


def test_omega_dot_finite_difference():
    phi, rate, h = 0.8, 1.3, 1e-6
    fd = (omega_s(phi + rate * h) - omega_s(phi - rate * h)) / (2.0 * h)
    np.testing.assert_allclose(omega_s_dot(phi, rate), fd, atol=1e-8)


def test_forms_take_the_package_gauge_where_the_sine_is_negative():
    # the map, Coriolis and generator forms read (phi, phi_dot) as
    # (-phi, -phi_dot) where sin phi < 0; the metric is even
    for phi in (-1.0, -2.5, 4.0):
        for form in (omega_s, omega_s_inv, theta_s):
            np.testing.assert_array_equal(form(phi), form(-phi))
        for form in (omega_s_dot, sigma_s, g_s):
            np.testing.assert_array_equal(form(phi, 0.7), form(-phi, -0.7))
        for form in (sigma_eigs, g_eigs):
            assert form(phi, 0.7) == form(-phi, -0.7)
        assert theta_eigs(phi) == theta_eigs(-phi)


def test_omega_inverse_guards_the_ep():
    with pytest.raises(EPProximity):
        omega_s_inv(1e-13)


# ----------------------------------------------------------------- the metric


def test_theta_right_angle_is_scalar():
    np.testing.assert_allclose(theta_s(np.pi / 2), 2.0 * np.eye(2), atol=1e-15)
    lo, hi = theta_eigs(np.pi / 2)
    assert lo == pytest.approx(2.0, abs=1e-15)
    assert hi == pytest.approx(2.0, abs=1e-15)


def test_theta_at_sixty_degrees():
    theta = theta_s(np.pi / 3)
    assert theta[0, 1] == pytest.approx(-1j, abs=1e-15)
    assert theta[1, 0] == pytest.approx(1j, abs=1e-15)
    assert theta_eigs(np.pi / 3) == pytest.approx((1.0, 3.0), abs=1e-15)


def test_theta_degenerates_at_the_ep():
    lo, hi = theta_eigs(0.0)
    assert lo == 0.0 and hi == 4.0


# ------------------------------------------------------- Coriolis generator


def test_sigma_right_angle_display():
    expected = np.array([[0.5, -0.5], [0.5, 0.5]])
    np.testing.assert_allclose(sigma_s(np.pi / 2, 1.0), expected, atol=1e-15)
    plus, minus = sigma_eigs(np.pi / 2, 1.0)
    assert plus == pytest.approx(0.5 + 0.5j, abs=1e-15)
    assert minus == pytest.approx(0.5 - 0.5j, abs=1e-15)


def test_sigma_vanishes_when_stationary():
    np.testing.assert_allclose(sigma_s(0.7, 0.0), np.zeros((2, 2)), atol=0)


def test_sigma_eigs_cross_check():
    for phi in np.linspace(0.2, np.pi - 0.2, 9):
        for rate in (0.1, 1.0, 10.0):
            numeric = sorted_pair(eig_general(sigma_s(phi, rate)).eigenvalues)
            exact = sorted_pair(sigma_eigs(phi, rate))
            np.testing.assert_allclose(numeric, exact, atol=1e-12)


def test_sigma_guards_the_ep():
    with pytest.raises(EPProximity):
        sigma_s(np.pi, 1.0)


# ------------------------------------------------------------ full generator


def test_g_compact_form_values():
    plus, minus = g_eigs(np.pi / 3, 0.2)
    assert plus == pytest.approx(1.9 + 0.858293 - 0.0577350j, abs=1e-6)
    assert minus == pytest.approx(1.9 - 0.858293 - 0.0577350j, abs=1e-6)


def test_g_stationary_limit_is_the_hamiltonian():
    phi = 1.1
    np.testing.assert_allclose(
        g_s(phi, 0.0), build_h(2, z_from_phi(phi)), atol=1e-15
    )
    s = np.sin(phi)
    plus, minus = g_eigs(phi, 0.0)
    assert plus == pytest.approx(2.0 + s, abs=1e-15)
    assert minus == pytest.approx(2.0 - s, abs=1e-15)


def test_g_eigs_cross_check_both_regimes():
    for phi in np.linspace(0.2, np.pi - 0.2, 9):
        for rate in (0.1, 1.0, 10.0):
            numeric = sorted_pair(eig_general(g_s(phi, rate)).eigenvalues)
            exact = sorted_pair(g_eigs(phi, rate))
            np.testing.assert_allclose(numeric, exact, atol=1e-12)


# -------------------------------------------------------- analytic identities


def test_coriolis_identity_chain():
    for phi in np.linspace(0.05, np.pi - 0.05, 25):
        for rate in (0.3, 2.0):
            lhs = 1j * omega_s_inv(phi) @ omega_s_dot(phi, rate)
            np.testing.assert_allclose(lhs, sigma_s(phi, rate), atol=1e-13)


def test_generator_is_hamiltonian_minus_coriolis():
    for phi in np.linspace(0.1, np.pi - 0.1, 15):
        for rate in (0.5, 5.0):
            h = build_h(2, z_from_phi(phi))
            np.testing.assert_allclose(
                h - sigma_s(phi, rate), g_s(phi, rate), atol=1e-13
            )


def test_intertwining_with_diagonal_partner():
    for phi in (0.4, 1.0, 2.2):
        h = build_h(2, z_from_phi(phi))
        omega_dag = adjoint(omega_s(phi))
        s = np.sin(phi)
        h_diag = np.diag([2.0 + s, 2.0 - s])
        defect = adjoint(h) @ omega_dag - omega_dag @ h_diag
        assert np.abs(defect).max() <= 1e-13


# ------------------------------------------------------------------- regimes


def test_regime_almost_stationary():
    assert regime(N2Params(np.pi / 3, 0.2)) == "almost_stationary"


def test_regime_strongly_non_stationary():
    params = N2Params(0.1, 10.0)
    assert regime(params) == "strongly_non_stationary"
    plus, minus = g_eigs(params.phi, params.phi_dot)
    # the pair shares its real part and splits along the imaginary axis
    assert plus.real == pytest.approx(minus.real, abs=1e-12)
    assert abs(plus.imag - minus.imag) > 1e-3


def test_regime_boundary_at_equality():
    # sin(pi/2) = 1 exactly, so phi_dot = 2 lands D^2 = sin^2 exactly
    assert regime(N2Params(np.pi / 2, 2.0)) == "boundary"
    plus, minus = g_eigs(np.pi / 2, 2.0)
    assert plus == pytest.approx(minus, abs=1e-15)


def test_regime_dichotomy_generic_domain():
    for phi in np.linspace(0.2, np.pi - 0.2, 9):
        for rate in (0.1, 1.0, 10.0):
            if abs(np.cos(phi)) < 1e-3:
                continue
            label = regime(N2Params(phi, rate))
            g_plus, g_minus = g_eigs(phi, rate)
            s_plus, s_minus = sigma_eigs(phi, rate)
            if label == "almost_stationary":
                assert g_plus.imag == pytest.approx(g_minus.imag, abs=1e-13)
                assert abs(g_plus.real - g_minus.real) > 1e-8
            elif label == "strongly_non_stationary":
                assert g_plus.real == pytest.approx(g_minus.real, abs=1e-13)
                assert abs(g_plus.imag - g_minus.imag) > 1e-8
            # no conjugate doublets and no real eigenvalue off cos phi = 0
            assert abs(g_plus.imag) > 1e-10 and abs(g_minus.imag) > 1e-10
            assert g_plus != pytest.approx(np.conj(g_minus), abs=1e-10)
            assert abs(s_plus.imag) > 1e-10 and abs(s_minus.imag) > 1e-10
            assert s_plus != pytest.approx(np.conj(s_minus), abs=1e-10)


def test_params_expose_stationarity_ratio():
    params = N2Params(np.pi / 2, 1.2)
    assert params.D == pytest.approx(0.6, abs=1e-15)
    with pytest.raises(EPProximity):
        N2Params(0.0, 1.0).D
