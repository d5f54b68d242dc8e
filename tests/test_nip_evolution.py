"""Coriolis generator, moving-metric integration, and its cross-checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nipsqw.errors import EPProximity, NonRealNorm, NotAnObservable
from nipsqw.hamiltonian import PhiProfile, build_h, z_from_phi
from nipsqw.matrix_core import adjoint, eig_general, spectral_norm
from nipsqw.metric import build_metric, dyson_from_ketkets, ketkets
from nipsqw.n2_oracle import N2Params, g_eigs, omega_s, regime, sigma_s, theta_s
from nipsqw import nip_evolution
from nipsqw.nip_evolution import (
    MAP_KINDS,
    EvolutionState,
    coriolis,
    evolve,
    expectation,
    generator,
    physical_norm,
    textbook_evolve,
)


def drift_of(states):
    norms = np.array([s.phys_norm for s in states])
    return np.max(np.abs(norms - norms[0])) / norms[0]


def make_state(psi, theta):
    psi = np.asarray(psi, dtype=complex)
    theta = np.asarray(theta, dtype=complex)
    q = np.vdot(psi, theta @ psi)
    return EvolutionState(
        t=0.0, psi=psi, theta=theta, phys_norm=float(q.real),
        generator=np.zeros_like(theta), omega=np.zeros_like(theta),
    )


# --------------------------------------------------------------- coriolis


def test_coriolis_vanishes_for_stationary_profile():
    for n in (2, 3):
        sigma = coriolis(n, PhiProfile.constant(1.0), t=3.7)
        assert spectral_norm(sigma) <= 1e-8


def test_coriolis_frozen_value_at_half_pi():
    sigma = coriolis(2, PhiProfile.linear(np.pi / 2, 1.0), t=0.0)
    expected = np.array([[0.5, -0.5], [0.5, 0.5]])
    np.testing.assert_allclose(sigma, expected, atol=1e-8)


def test_coriolis_matches_two_site_closed_form():
    worst = 0.0
    for phi in np.linspace(0.15, np.pi - 0.15, 9):
        for rate in (0.3, 1.0, 5.0):
            sigma = coriolis(2, PhiProfile.linear(phi, rate), t=0.0, fd_step=1e-5)
            worst = max(worst, spectral_norm(sigma - sigma_s(phi, rate)))
    assert worst <= 1e-8


def test_coriolis_error_is_second_order_in_step():
    phi, rate = 1.0, 1.0
    exact = sigma_s(phi, rate)

    def err(h):
        return spectral_norm(
            coriolis(2, PhiProfile.linear(phi, rate), t=0.0, fd_step=h) - exact
        )

    ratio = err(2e-3) / err(1e-3)
    assert 3.5 <= ratio <= 4.5


def test_coriolis_explicit_step_is_honored():
    phi, rate = 1.0, 1.0
    exact = sigma_s(phi, rate)
    coarse = spectral_norm(
        coriolis(2, PhiProfile.linear(phi, rate), t=0.0, fd_step=1e-1) - exact
    )
    assert coarse > 1e-5


def test_coriolis_guards_the_coalescence_margin():
    with pytest.raises(EPProximity):
        coriolis(2, PhiProfile.linear(1e-9, 1.0), t=0.0)


# -------------------------------------------------------------- generator


def test_generator_assembles_difference_exactly():
    snap = generator(2, PhiProfile.linear(1.0, 0.5), t=0.25)
    assert snap.t == 0.25
    np.testing.assert_array_equal(snap.G, snap.H - snap.Sigma)
    assert snap.sigma_eigs.shape == (2,)
    assert snap.g_eigs.shape == (2,)


def test_generator_slow_drive_matches_closed_form():
    phi, rate = np.pi / 3, 0.2
    snap = generator(2, PhiProfile.linear(phi, rate), t=0.0)
    got = sorted(snap.g_eigs, key=lambda v: v.real)
    expected = [1.9 - 0.85829 - 0.057735j, 1.9 + 0.85829 - 0.057735j]
    np.testing.assert_allclose(got, expected, atol=1e-5)
    oracle = sorted(g_eigs(phi, rate), key=lambda v: v.real)
    np.testing.assert_allclose(got, oracle, atol=1e-8)


def test_generator_stationary_profile_reduces_to_well():
    phi = 0.9
    snap = generator(2, PhiProfile.constant(phi), t=1.0)
    assert spectral_norm(snap.Sigma) <= 1e-8
    assert spectral_norm(snap.G - snap.H) <= 1e-8
    got = sorted(snap.g_eigs, key=lambda v: v.real)
    np.testing.assert_allclose(got, [2 - np.sin(phi), 2 + np.sin(phi)], atol=1e-8)
    assert np.max(np.abs(np.imag(snap.g_eigs))) <= 1e-8


def test_generator_fast_drive_correction_purely_imaginary():
    # Fast drive at a wide angle: the square root in the closed form
    # turns imaginary, both corrections w = g - (2 - rate/2) lose their
    # real part, and the pair is manifestly non-conjugate.  Here the
    # two imaginary parts straddle zero, so their product is negative.
    phi, rate = np.pi / 3, 10.0
    assert regime(N2Params(phi, rate)) == "strongly_non_stationary"
    snap = generator(2, PhiProfile.linear(phi, rate), t=0.0)
    w = np.sort_complex(snap.g_eigs) - (2.0 - rate / 2.0)
    assert np.max(np.abs(w.real)) <= 1e-8
    np.testing.assert_allclose(
        sorted(w.imag), [-8.59493261, 2.82142992], atol=1e-6
    )
    assert w.imag[0] * w.imag[1] < 0
    assert abs(w[0] - np.conj(w[1])) > 1e-10 * abs(w[0])


def test_generator_fast_drive_imaginary_parts_can_share_a_sign():
    # Same regime at a narrow angle and gentle rate: both corrections
    # sit on the same side of the real axis, so the product of their
    # imaginary parts is positive.
    phi, rate = 0.1, 0.15
    params = N2Params(phi, rate)
    assert regime(params) == "strongly_non_stationary"
    assert params.D < 1.0
    snap = generator(2, PhiProfile.linear(phi, rate), t=0.0)
    w = np.sort_complex(snap.g_eigs) - (2.0 - rate / 2.0)
    assert np.max(np.abs(w.real)) <= 1e-8
    assert w.imag[0] * w.imag[1] > 0


def test_energy_stays_real_while_generators_go_complex():
    profile = PhiProfile.linear(1.0, 0.5)
    for t in (0.0, 1.0, 3.0):
        snap = generator(2, profile, t)
        h_eigs = eig_general(snap.H).eigenvalues
        assert np.max(np.abs(h_eigs.imag)) <= 1e-9
        for pair in (snap.sigma_eigs, snap.g_eigs):
            assert np.min(np.abs(pair.imag)) > 1e-10
            a, b = pair
            assert abs(a - np.conj(b)) > 1e-10 * abs(a)


# ------------------------------------------------------------------ evolve


def test_evolve_hermitian_limit_conserves_everything():
    states = evolve(2, PhiProfile.constant(np.pi / 2), [1.0, 0.0], 0.0, 2.0, 1e-3)
    for s in states[:: len(states) // 10]:
        np.testing.assert_allclose(s.theta, 2.0 * np.eye(2), atol=1e-12)
        plain = float(np.vdot(s.psi, s.psi).real)
        assert abs(s.phys_norm - 2.0 * plain) <= 1e-12
    assert drift_of(states) <= 1e-10


def test_evolve_moving_metric_conserves_physical_norm():
    states = evolve(2, PhiProfile.linear(1.0, 0.1), [1.0, 0.0], 0.0, 5.0, 1e-3)
    assert len(states) == 5001
    assert drift_of(states) <= 1e-8


def test_evolve_fourth_order_convergence():
    profile = PhiProfile.linear(1.0, 0.1)
    coarse = drift_of(evolve(2, profile, [1.0, 0.0], 0.0, 5.0, 1e-3))
    fine = drift_of(evolve(2, profile, [1.0, 0.0], 0.0, 5.0, 5e-4))
    assert coarse / fine >= 12.0


def test_evolve_sampling_grid_and_cache():
    states = evolve(2, PhiProfile.constant(1.2), [1.0, 1.0j], 0.0, 0.35, 0.1)
    np.testing.assert_allclose([s.t for s in states], [0.0, 0.1, 0.2, 0.3, 0.35])
    for s in states:
        assert abs(physical_norm(s) - s.phys_norm) <= 1e-12 * s.phys_norm


def test_evolve_starts_where_asked():
    states = evolve(2, PhiProfile.constant(1.0), [1.0, 0.0], 2.0, 2.25, 0.05)
    assert states[0].t == 2.0
    assert states[-1].t == 2.25


def test_evolve_aborts_at_margin_with_partial_trajectory():
    with pytest.raises(EPProximity) as info:
        evolve(2, PhiProfile.linear(0.5, -0.1), [1.0, 0.0], 0.0, 10.0, 1e-3)
    err = info.value
    assert err.t_fail == pytest.approx(5.0, abs=1e-2)
    assert len(err.trajectory) > 1000
    ts = [s.t for s in err.trajectory]
    assert ts == sorted(ts)
    assert ts[-1] < err.t_fail


def test_evolve_rejects_bad_arguments():
    profile = PhiProfile.constant(1.0)
    with pytest.raises(ValueError):
        evolve(2, profile, [0.0, 0.0], 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        evolve(2, profile, [1.0, 0.0, 0.0], 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        evolve(2, profile, [1.0, 0.0], 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        evolve(2, profile, [1.0, 0.0], 1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        evolve(2, profile, [1.0, 0.0], 0.0, 1.0, 0.1, map_kind="diagonal")


def test_evolve_hermitian_root_map_conserves_its_own_norm():
    profile = PhiProfile.linear(1.0, 0.1)
    states = evolve(
        2, profile, [1.0, 0.0], 0.0, 0.3, 2e-3, map_kind="hermitian_root"
    )
    assert drift_of(states) <= 1e-9
    # same metric as the default factorization, different generator
    reference = evolve(2, profile, [1.0, 0.0], 0.0, 0.3, 2e-3)
    np.testing.assert_allclose(states[0].theta, reference[0].theta, atol=1e-12)
    assert np.max(np.abs(states[-1].psi - reference[-1].psi)) > 1e-6


def test_evolve_three_site_route():
    profile = PhiProfile.linear(1.0, 0.05)
    psi0 = [1.0, 0.5, 0.25j]
    states = evolve(3, profile, psi0, 0.0, 0.5, 5e-3)
    assert drift_of(states) <= 1e-9
    mapped = textbook_evolve(3, profile, psi0, 0.0, 0.5, 5e-3)
    for s, sp in zip(states[::20], mapped[::20]):
        phi, _ = profile(s.t)
        omega = dyson_from_ketkets(ketkets(build_h(3, z_from_phi(phi)))).omega
        assert np.linalg.norm(omega @ s.psi - sp.psi) <= 1e-8


# ------------------------------------------------------- textbook partner


@pytest.mark.parametrize("map_kind", MAP_KINDS)
def test_stage_blocks_do_not_change_the_trajectory(monkeypatch, map_kind):
    # 25 stages: one block at the default size, several at smaller sizes
    profile = PhiProfile.sinusoidal(1.1, 0.3, 0.7)
    psi0 = np.array([1.0, 0.5j, -0.25, 0.5])
    runs = []
    for block in (nip_evolution.STAGE_BLOCK, 7, 1):
        monkeypatch.setattr(nip_evolution, "STAGE_BLOCK", block)
        runs.append([
            integrate(4, profile, psi0, 0.0, 0.12, 0.01, map_kind=map_kind)
            for integrate in (evolve, textbook_evolve)
        ])
    for run in runs[1:]:
        for states, reference in zip(run, runs[0]):
            for state, ref in zip(states, reference):
                np.testing.assert_array_equal(state.psi, ref.psi)
                np.testing.assert_array_equal(state.generator, ref.generator)


def test_textbook_stationary_profile_rotates_phases():
    phi = np.pi / 3
    s = np.sin(phi)
    psi0 = np.array([0.8, 0.6j])
    states = textbook_evolve(2, PhiProfile.constant(phi), psi0, 0.0, 1.0, 1e-3)
    start = states[0].psi
    np.testing.assert_allclose(start, omega_s(phi) @ psi0, atol=1e-12)
    for state in states[::250]:
        expected = start * np.exp(-1j * np.array([2 + s, 2 - s]) * state.t)
        np.testing.assert_allclose(state.psi, expected, atol=1e-9)
    assert drift_of(states) <= 1e-10


def test_textbook_cross_checks_the_moving_frame():
    profile = PhiProfile.linear(1.0, 0.1)
    psi0 = [1.0, 0.0]
    nip = evolve(2, profile, psi0, 0.0, 5.0, 1e-3)
    mapped = textbook_evolve(2, profile, psi0, 0.0, 5.0, 1e-3)
    worst = 0.0
    for s, sp in zip(nip[::250], mapped[::250]):
        phi, _ = profile(s.t)
        worst = max(worst, np.linalg.norm(omega_s(phi) @ s.psi - sp.psi))
    assert worst <= 1e-6
    assert drift_of(mapped) <= 1e-8


# ------------------------------------------------ norms and expectations


def test_physical_norm_doubled_identity():
    state = make_state([1.0, 0.0], 2.0 * np.eye(2))
    assert physical_norm(state) == pytest.approx(2.0, abs=1e-15)


def test_physical_norm_cross_terms_cancel():
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    state = make_state(psi, theta_s(np.pi / 3))
    assert physical_norm(state) == pytest.approx(2.0, abs=1e-12)


def test_physical_norm_rejects_corrupted_metric():
    theta = 2.0 * np.eye(2, dtype=complex)
    theta[0, 0] += 1e-6j
    state = make_state([1.0, 0.0], theta)
    with pytest.raises(NonRealNorm):
        physical_norm(state)


def test_expectation_normalizes_identity():
    state = make_state([0.3, 0.4j], theta_s(1.1))
    assert expectation(state, np.eye(2)) == pytest.approx(1.0, abs=1e-12)


def test_expectation_of_eigenstate_is_its_level():
    phi = np.pi / 3
    h = build_h(2, z_from_phi(phi))
    dec = eig_general(h)
    upper = dec.right_vectors[:, 1]
    theta = dyson_from_ketkets(ketkets(h)).theta
    state = make_state(upper, theta)
    assert expectation(state, h) == pytest.approx(2.0 + np.sin(phi), abs=1e-9)


def test_expectation_rejects_incompatible_operator():
    state = make_state([1.0, 0.0], theta_s(np.pi / 3))
    with pytest.raises(NotAnObservable):
        expectation(state, np.diag([1.0, 2.0]))


# ------------------------------------------------ properties of every state


def _metric_at(n, phi):
    return build_metric(ketkets(build_h(n, z_from_phi(phi))), np.ones(n))


PROPERTY_T1 = 0.2


@st.composite
def _drives(draw):
    """(n, map kind, profile) with phi kept in [0.3, 1.4] or its mirror.

    The window stays clear of both the exceptional point and pi/2.
    """
    n = draw(st.integers(2, 6))
    map_kind = draw(st.sampled_from(MAP_KINDS))
    window = st.floats(0.3, 1.4)
    phi0 = draw(window)
    mirror = draw(st.sampled_from((1.0, -1.0)))  # -1 reflects phi into pi - phi
    start = phi0 if mirror > 0 else np.pi - phi0
    if draw(st.booleans()):
        rate = (draw(window) - phi0) / PROPERTY_T1
        profile = PhiProfile.linear(start, mirror * rate)
    else:
        amp = draw(st.floats(-1.0, 1.0)) * min(phi0 - 0.3, 1.4 - phi0)
        profile = PhiProfile.sinusoidal(start, mirror * amp, draw(st.floats(0.5, 5.0)))
    return n, map_kind, profile


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_drives())
def test_every_state_carries_a_consistent_map_and_generator(drive):
    n, map_kind, profile = drive
    states = evolve(n, profile, np.ones(n), 0.0, PROPERTY_T1, 0.05, map_kind=map_kind)
    delta = 1e-6
    for s in states:
        omega = np.asarray(s.omega, dtype=complex)
        g = np.asarray(s.generator, dtype=complex)
        theta = s.theta
        assert spectral_norm(adjoint(omega) @ omega - theta) <= 1e-10
        # d<psi|Theta|psi>/dt = <psi|i(G^+ Theta - Theta G) + dTheta/dt|psi>
        phi, phi_dot = profile(s.t)
        slope = (_metric_at(n, phi + delta) - _metric_at(n, phi - delta)) / (2 * delta)
        flow = 1j * (adjoint(g) @ theta - theta @ g) + phi_dot * slope
        assert spectral_norm(flow) <= 1e-6
