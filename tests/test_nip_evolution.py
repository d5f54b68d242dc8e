"""Coriolis generator, moving-metric integration, and its cross-checks."""

import hashlib
import numbers
import sys
import threading
from functools import partial
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nipsqw.config import get_tolerances
from nipsqw.errors import (
    DefectiveAtEP,
    EPProximity,
    NipsqwError,
    NoConvergence,
    NonRealNorm,
    NotAnObservable,
    SingularDyson,
)
from nipsqw.hamiltonian import PhiProfile, build_h, z_from_phi
from nipsqw.matrix_core import _eigen_arrays, adjoint, eig_general, spectral_norm
from nipsqw.metric import _pivot_rows, build_metric, dyson_from_ketkets, ketkets
from nipsqw.n2_oracle import N2Params, g_eigs, omega_s, regime, sigma_s, theta_s
from nipsqw import metric, nip_evolution
from nipsqw.nip_evolution import (
    MAP_KINDS,
    EvolutionState,
    Trajectory,
    coriolis,
    evolve,
    expectation,
    generator,
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
            sigma = coriolis(2, PhiProfile.linear(phi, rate), t=0.0)
            worst = max(worst, spectral_norm(sigma - sigma_s(phi, rate)))
    assert worst <= 1e-12


def _differenced_coriolis(n, phi, rate, h):
    """i rate Omega^-1 dOmega/dphi with the slope a central difference of
    the ketket map built here; the side bases share the centre's order
    and gauge."""
    omega_inv = dyson_from_ketkets(ketkets(build_h(n, z_from_phi(phi)))).omega_inv
    upper = adjoint(ketkets(build_h(n, z_from_phi(phi + h))).vectors)
    lower = adjoint(ketkets(build_h(n, z_from_phi(phi - h))).vectors)
    slope = (upper - lower) / ((phi + h) - (phi - h))
    return 1j * rate * (omega_inv @ slope)


def test_coriolis_error_is_second_order_in_step():
    # the analytic slope against the difference quotient: the gap closes
    # at second order in the step
    phi, rate = 1.0, 1.3
    for n in range(2, 9):
        exact = coriolis(n, PhiProfile.linear(phi, rate), t=0.0)

        def err(h):
            return spectral_norm(_differenced_coriolis(n, phi, rate, h) - exact)

        coarse, fine = err(2e-3), err(1e-3)
        assert fine <= 1e-5 * spectral_norm(exact), n
        assert 3.5 <= coarse / fine <= 4.5, (n, coarse / fine)


def test_coriolis_explicit_step_is_honored():
    # a coarse step leaves a visible gap to the closed form, so the
    # comparison above measures the step it is given
    phi, rate = 1.0, 1.0
    exact = sigma_s(phi, rate)
    coarse = spectral_norm(_differenced_coriolis(2, phi, rate, 1e-1) - exact)
    fine = spectral_norm(_differenced_coriolis(2, phi, rate, 1e-3) - exact)
    assert coarse > 1e-5
    assert coarse > 100 * fine


def _mp_adjoint_h(n, phi):
    """H^dagger of the N-site well in mpmath arithmetic."""
    h = mpmath.matrix(n, n)
    for i in range(n):
        h[i, i] = 2
        if i + 1 < n:
            h[i, i + 1] = h[i + 1, i] = -1
    z = mpmath.mpc(0, mpmath.cos(phi))
    h[0, 0] = 2 - z
    h[n - 1, n - 1] = 2 - mpmath.conj(z)
    return h.H


def _mp_maps(n, phi, levels):
    """(ketket map, Hermitian root) in the gauge of double-precision levels.

    Each mpmath eigenvector is paired to the level with the nearest
    eigenvalue and scaled so its entry in that level's pivot row is one.
    """
    values, vectors = mpmath.eig(_mp_adjoint_h(n, phi))
    v = mpmath.matrix(n, n)
    for k, row in enumerate(_pivot_rows(n).tolist()):
        j = min(range(n), key=lambda i: abs(complex(values[i]) - levels[k]))
        for r in range(n):
            v[r, k] = vectors[r, j] / vectors[row, j]
    return v.H, mpmath.sqrtm(v * v.H)


@pytest.mark.parametrize(
    "n, phi",
    [
        (3, 0.7), (3, np.pi / 2 - 5e-10), (4, 2.3), (5, 1.1), (6, 0.5), (6, 2.6),
        (7, np.pi / 2), (8, np.pi / 2),
    ],
)
def test_map_slope_matches_a_high_precision_difference(n, phi):
    # at pi/2 some diagonal entries of the N=3, 7 and 8 ketkets vanish;
    # the end-row gauge does not see them.  At unit rate the kernel's
    # Sigma = i Omega^-1 dOmega/dphi, so its slope is -i Omega Sigma.
    levels = ketkets(build_h(n, z_from_phi(phi))).eigenvalues
    with mpmath.workdps(40):
        step = mpmath.mpf("1e-12")
        upper = _mp_maps(n, mpmath.mpf(phi) + step, levels)
        lower = _mp_maps(n, mpmath.mpf(phi) - step, levels)
        quotients = [
            np.array((hi - lo) / (2 * step), dtype=complex).reshape(n, n)
            for hi, lo in zip(upper, lower)
        ]
    for hermitian_map, reference in zip((False, True), quotients):
        _, sigma, _, omega = nip_evolution._stage_stack(
            n, np.array([phi]), np.ones(1), get_tolerances(), hermitian_map=hermitian_map
        )
        slope = -1j * (omega[0] @ sigma[0])
        gap = spectral_norm(slope - reference) / spectral_norm(reference)
        assert gap <= 1e-11, (hermitian_map, gap)


def test_the_stage_path_runs_no_svd(monkeypatch):
    # the stage path refuses on the per-level c-products and checks the
    # eigenpair residual against |H|_F, so a healthy ketket block needs no
    # SVD.  The root map takes one per solved block, of its ketket map, for
    # the root and for no check: the drive is one block of 61 stages, and
    # the textbook integration reads it kept
    svd, taken = np.linalg.svd, []

    def spied(a, *args, **kwargs):
        taken.append(a)
        return svd(a, *args, **kwargs)

    inner = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    monkeypatch.setattr(np.linalg, "svd", spied)
    monkeypatch.setattr(inner, "svd", spied)
    profile = PhiProfile.linear(1.3, 0.2)  # crosses pi/2 at t = 1.35
    for n in (3, 8):
        psi0 = np.arange(1, n + 1) + 0.3j
        runs = {}
        for map_kind in MAP_KINDS:
            for integrate in (evolve, textbook_evolve):
                states = integrate(n, profile, psi0, 0.0, 1.5, 0.05, map_kind=map_kind)
                assert len(states) == 31 and drift_of(states) < 1e-6
                runs[integrate, map_kind] = states
            assert len(taken) == (1 if map_kind == "hermitian_root" else 0)
        (omega,) = taken
        assert omega.shape == (61, n, n)
        np.testing.assert_array_equal(omega[::2], runs[evolve, "ketket_columns"].omega)
        taken.clear()
        assert np.isfinite(coriolis(n, profile, 1.35)).all()
        assert np.isfinite(generator(n, profile, 1.35).g_eigs).all()
        basis = ketkets(build_h(n, z_from_phi(1.3)))
        assert np.isfinite(dyson_from_ketkets(basis).omega_inv).all()
        assert taken == []


@pytest.mark.parametrize("n", [3, 6])
def test_stage_refusal_is_the_per_level_condition_bound(monkeypatch, n):
    # a stage is refused exactly when N / min_j |v_j^T v_j| over its unit
    # adjoint eigenvectors reaches the ceiling, before any SingularDyson
    phis, rates, tol = np.array([0.05]), np.ones(1), get_tolerances()
    vectors = eig_general(adjoint(build_h(n, z_from_phi(0.05)))).right_vectors
    bound = n / np.abs(np.sum(vectors * vectors, axis=0)).min()
    monkeypatch.setattr(metric, "COND_CEILING", bound * (1 + 1e-9))
    nip_evolution._stage_stack(n, phis, rates, tol)
    monkeypatch.setattr(metric, "COND_CEILING", bound * (1 - 1e-9))
    with pytest.raises(DefectiveAtEP, match="numerically singular"):
        nip_evolution._stage_stack(n, phis, rates, tol.replace(eps_singular=0.5))


def test_kernel_refuses_with_its_earliest_refused_stage(monkeypatch):
    # a failed angle solve becomes DefectiveAtEP; of two refusals in one
    # block the earlier stage's wins, even when a later step refuses it
    phis, rates, tol = np.linspace(0.8, 1.2, 5), np.ones(5), get_tolerances()
    solve, dyson = metric._well_angles, nip_evolution._dyson_stack

    def no_convergence_at_3(n, r):
        angles, converged = solve(n, r)
        if len(r) > 3:
            converged[3] = False
        return angles, converged

    def singular_at_1(vectors, tol):
        omega, omega_inv, theta, cprods, errors = dyson(vectors, tol)
        if len(vectors) > 1:
            errors[1] = SingularDyson("injected")
        return omega, omega_inv, theta, cprods, errors

    monkeypatch.setattr(metric, "_well_angles", no_convergence_at_3)
    with pytest.raises(DefectiveAtEP, match="angle solve exhausted"):
        nip_evolution._stage_stack(4, phis, rates, tol)
    monkeypatch.setattr(nip_evolution, "_dyson_stack", singular_at_1)
    with pytest.raises(SingularDyson):
        nip_evolution._stage_stack(4, phis, rates, tol)


def _mp_levels(n, phi):
    """Descending levels of H^dagger and their end-row-gauged columns, 50 digits.

    Each level is a root of det(H^dagger - E), run as the continuant of the
    rows of ``_mp_adjoint_h`` and polished by Newton's method from LAPACK's
    values; its column solves the first N-1 rows from v_0 = 1.  Neither
    step uses the angle form of the closed-form solve.
    """
    with mpmath.workdps(50):
        a = _mp_adjoint_h(n, mpmath.mpf(phi))
        seeds = np.linalg.eigvals(np.array(a.tolist(), dtype=complex))
        levels, columns = [], []
        for seed in sorted(seeds, key=lambda e: -e.real):
            e = mpmath.mpc(seed)
            for _ in range(60):
                p_prev, p, q_prev, q = 0, 1, 0, 0
                for k in range(n):
                    off = a[k, k - 1] * a[k - 1, k] if k else 0
                    p_prev, p, q_prev, q = (
                        p, (a[k, k] - e) * p - off * p_prev,
                        q, (a[k, k] - e) * q - p - off * q_prev,
                    )
                step = p / q
                e -= step
                if abs(step) < mpmath.mpf(10) ** -45:
                    break
            v = [mpmath.mpf(1), -(a[0, 0] - e) / a[0, 1]]
            for k in range(1, n - 1):
                v.append(-(a[k, k - 1] * v[k - 1] + (a[k, k] - e) * v[k]) / a[k, k + 1])
            levels.append(complex(e))
            columns.append(v)
        gauged = [
            [complex(entry / v[row]) for entry in v]
            for v, row in zip(columns, _pivot_rows(n).tolist())
        ]
    return np.array(levels), np.array(gauged).T


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16, 24])
def test_closed_form_wells_match_fifty_digits_down_to_the_margin(n):
    # the closed-form solve against a 50-digit solve of the same matrix, on
    # both sides of pi/2 and down to the exceptional-point margin, where
    # LAPACK's levels are off by up to 3e-9
    sines = np.geomspace(0.5, get_tolerances().ep_margin, 6)
    phis = np.concatenate([np.arcsin(sines), np.pi - np.arcsin(sines)])
    h = build_h(n, z_from_phi(phis))
    values, vectors, errors = metric._well_ketket_stack(h, np.sin(phis))
    assert errors == {}
    for phi, got_values, got_vectors in zip(phis, values, vectors):
        want_values, want_vectors = _mp_levels(n, phi)
        assert np.abs(got_values - want_values).max() <= 1e-14, phi
        gaps = np.linalg.norm(got_vectors - want_vectors, axis=0)
        assert (gaps <= 1e-12 * np.linalg.norm(want_vectors, axis=0)).all(), phi


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, 24),
    st.floats(0.3, np.pi - 0.3),
    st.sampled_from((1.0, -1.0)),
    st.floats(-2.0, 2.0),
    st.booleans(),
    st.booleans(),
)
def test_the_closed_form_stage_matches_the_general_route(
    n, phi, sign, rate, textbook, hermitian_map
):
    # the same stage with LAPACK's bases of H^dagger, in the same gauge, in
    # place of the closed form
    def lapack_bases(h, r):
        values, vectors, _, failures = _eigen_arrays(h.conj().swapaxes(-1, -2))
        return metric._gauged_bases(values[:, ::-1], vectors[:, :, ::-1], failures)

    # the two-site ketket map is closed-form itself and takes no well solve
    assume(n > 2 or hermitian_map)
    phis, rates, tol = np.array([sign * phi]), np.array([rate]), get_tolerances()
    got = nip_evolution._stage_stack(n, phis, rates, tol, textbook, hermitian_map)
    nip_evolution._map_block.cache_clear()  # else the memo answers with the closed form
    with mock.patch.object(nip_evolution, "_well_ketket_stack", lapack_bases):
        want = nip_evolution._stage_stack(n, phis, rates, tol, textbook, hermitian_map)
    for name, a, b in zip(("H", "Sigma", "Theta", "Omega"), got, want):
        assert spectral_norm(a[0] - b[0]) <= 1e-11 * spectral_norm(b[0]), name


@pytest.mark.parametrize("sine", [1e-4, 1e-5, 1e-6])
@pytest.mark.parametrize("rate", [0.7, -1.3])
def test_two_site_coriolis_keeps_the_closed_form_near_coalescence(sine, rate):
    # the two-site well takes its coupling from the angle, so the rounding
    # of cos phi in H's corner no longer reaches kappa
    for phi in (np.arcsin(sine), np.pi - np.arcsin(sine)):
        want = sigma_s(phi, rate)
        got = coriolis(2, PhiProfile.linear(phi, rate), 0.0)
        assert spectral_norm(got - want) <= 1e-9 * spectral_norm(want), phi


@pytest.mark.parametrize("rate", [0.7, -1.3])
def test_two_site_coriolis_is_the_sigma_evolve_applies(rate):
    # coriolis at two sites takes the closed-form map evolve applies, cast
    # to complex128: it holds the oracle to 1e-13 at sin phi = 2e-6, and
    # gives evolve's G under a raised eps_singular below |sin phi|
    for phi in (np.arcsin(2e-6), np.pi - np.arcsin(2e-6)):
        got, want = coriolis(2, PhiProfile.linear(phi, rate), 0.0), sigma_s(phi, rate)
        assert got.dtype == np.complex128
        assert spectral_norm(got - want) <= 1e-13 * spectral_norm(want), phi
    tol = get_tolerances().replace(eps_singular=0.2)
    profile = PhiProfile.linear(0.3, 0.5)
    want = generator(2, profile, 0.0, tol=tol).G
    got = evolve(2, profile, np.array([1.0, 0.5j]), 0.0, 0.01, 0.01, tol=tol)[0].generator
    assert spectral_norm(got - want) <= 1e-15 * spectral_norm(want)


@pytest.mark.parametrize("map_kind", MAP_KINDS)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_two_sites_refuse_a_level_at_the_condition_floor(map_kind):
    # both two-site levels have s_j = |sin phi|: each map refuses the first
    # stage at or below eps_singular, on a drive that starts there and one
    # that reaches it (phi = 0.3 at t = 1.2, not yet at 1.16); the ketket
    # map also on a drive that lands on phi = 0 under the default floor,
    # before anything divides by zero (the root's well solve refuses there)
    psi0 = np.array([1.0, 0.5j])
    drives = [(0.5, PhiProfile.linear(0.3, 0.5), 0.01), (0.3, PhiProfile.linear(0.9, -0.5), 1.2)]
    if map_kind == "ketket_columns":
        drives.append((1e-12, PhiProfile.linear(0.1, -1.0), 0.2))
    for integrate in (evolve, textbook_evolve):
        for eps, law, t1 in drives:
            tol = get_tolerances().replace(eps_singular=eps, ep_margin=0.0)
            with pytest.raises(SingularDyson, match=f"condition at or below {eps:g}$"):
                integrate(2, law, psi0, 0.0, t1, 0.02, tol=tol, map_kind=map_kind)
        tol = get_tolerances().replace(eps_singular=0.3)
        integrate(2, PhiProfile.linear(0.9, -0.5), psi0, 0.0, 1.16, 0.02, tol=tol,
                  map_kind=map_kind)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_two_site_coriolis_at_the_exceptional_point_is_refused():
    # with the margin off, phi = 0 and pi reach the condition floor: a
    # refusal, where the closed form divided by 1 - e^2 = 0 and gave NaN
    tol = get_tolerances().replace(ep_margin=0.0)
    for phi in (0.0, np.pi):
        for call in (coriolis, generator):
            with pytest.raises(SingularDyson, match="at or below 1e-12"):
                call(2, PhiProfile.linear(phi, 1.0), 0.0, tol=tol)


@pytest.mark.parametrize("n", [2, 3])
def test_coriolis_and_generator_refuse_non_finite_input(n):
    # an overflowing rate, or a t that is not finite, is refused by name
    # before it can reach the map or the eigensolver
    cases = [(PhiProfile.sinusoidal(1.0, 1e308, 10.0), 0.0),
             (PhiProfile.linear(1.0, 0.5), np.inf), (PhiProfile.linear(1.0, 0.5), np.nan),
             (PhiProfile.constant(1.0), -np.inf)]
    for profile, t in cases:
        for call in (coriolis, generator):
            with pytest.raises(ValueError, match="must be finite"):
                call(n, profile, t)


@pytest.mark.parametrize("textbook", [False, True])
def test_two_site_kernel_matches_the_generic_kernel(textbook):
    # the extended-precision closed form of the two-site ketket map against
    # the generic kernel's pieces, on both sides of pi/2 and of -pi/2 and
    # down to the exceptional-point margin; where sin phi < 0 the generic
    # gauge is the two-site family at -phi
    sines = np.geomspace(0.9, get_tolerances().ep_margin, 13)
    upper = np.concatenate([np.arcsin(sines), np.pi - np.arcsin(sines)])
    phis = np.concatenate([upper, -upper, upper + np.pi])
    rates = np.where(np.arange(len(phis)) % 2, 0.7, -1.3)
    got = nip_evolution._stage_stack(2, phis, rates, get_tolerances(), textbook)
    h = build_h(2, z_from_phi(phis))
    values, vectors, errors = metric._well_ketket_stack(h, np.sin(phis))
    omega, omega_inv, theta, cprods, more = metric._dyson_stack(vectors, get_tolerances())
    assert errors == more == {}
    if textbook:
        second = omega @ h @ omega_inv
    else:
        slope = metric._ketket_slope(phis, values, vectors, cprods).conj().swapaxes(-1, -2)
        second = 1j * (omega_inv @ (slope * rates[:, None, None]))
    want = h, second, theta, omega
    for name, a, b in zip(("H", "Sigma", "Theta", "Omega"), got, want):
        for phi, a_k, b_k in zip(phis, a.astype(complex), b):
            assert spectral_norm(a_k - b_k) <= 1e-9 * spectral_norm(b_k), (name, phi)


@pytest.mark.parametrize("phi0", [-1.0, -0.5, 1.0, 4.0])
def test_two_site_evolve_applies_the_generator_snapshots(phi0):
    # the two-site ketket route and generator() pick one gauge at any sign
    # of sin phi
    profile = PhiProfile.linear(phi0, 0.3)
    for state in evolve(2, profile, np.array([1.0, 0.5j]), 0.0, 0.5, 0.05):
        want = generator(2, profile, state.t).G
        assert spectral_norm(state.generator - want) <= 1e-12 * spectral_norm(want), state.t


def test_coriolis_guards_the_coalescence_margin():
    with pytest.raises(EPProximity):
        coriolis(2, PhiProfile.linear(1e-9, 1.0), t=0.0)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_coriolis_at_odd_n_is_finite_where_sin_phi_vanishes(n):
    # no pair of an odd N meets at sin phi = 0, so the margin lets it pass;
    # dH/dphi is proportional to sin phi, so there Sigma vanishes
    sigma = coriolis(n, PhiProfile.linear(0.0, 1.0), t=0.0)
    assert np.isfinite(sigma).all() and spectral_norm(sigma) <= 1e-12
    with pytest.raises(EPProximity, match=f"where levels {n // 2 + 1} and {n // 2 + 2} meet"):
        coriolis(n + 1, PhiProfile.linear(0.0, 1.0), t=0.0)


# -------------------------------------------------------------- generator


def test_generator_raises_its_eigen_solve_refusal(monkeypatch):
    # a refused spectrum of Sigma or G is raised, not returned as numbers
    solve, refusal = nip_evolution._eigen_arrays, NoConvergence("refused spectrum")

    def refusing(stack):
        values, vectors, defects, _ = solve(stack)
        return values, vectors, defects, {1: refusal}

    monkeypatch.setattr(nip_evolution, "_eigen_arrays", refusing)
    with pytest.raises(NoConvergence) as caught:
        generator(3, PhiProfile.linear(1.0, 0.5), 0.0)
    assert caught.value is refusal


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
        assert abs(np.vdot(s.psi, s.theta @ s.psi).real - s.phys_norm) <= 1e-12 * s.phys_norm


def test_the_last_row_is_at_the_horizon_end():
    # t1 = t0 + k dt for t0 in [-2, 2], dt log-uniform in [1e-4, 1e-1] and
    # k <= 2,000: the grid t0 + k dt/2, in extended precision, ended off t1
    # on about a quarter of such horizons (0.30000000000000004 for t1 = 0.3,
    # dt = 0.1), by up to 1.2e-13 relative; the last stage time is t1 itself
    rng = np.random.default_rng(55)
    t0, dt = rng.uniform(-2.0, 2.0, 4000), 10.0 ** rng.uniform(-4.0, -1.0, 4000)
    t1 = t0 + rng.integers(0, 2001, 4000) * dt
    for start, end, step in zip(t0.tolist(), t1.tolist(), dt.tolist()):
        steps, taus = nip_evolution._stage_times(start, end, step)
        assert float(taus[-1]) == end and len(taus) == 2 * len(steps) + 1
    profile, psi0 = PhiProfile.constant(1.0), np.array([1.0, 0.5j])
    for start, step, k in zip(t0[:300].tolist(), dt[:300].tolist(),
                              rng.integers(0, 41, 300).tolist()):
        end = start + k * step
        for integrate in (evolve, textbook_evolve):
            states = integrate(2, profile, psi0, start, end, step)
            assert states.t[-1] == end and len(states) == k + 1, (start, end, step)
    assert evolve(2, PhiProfile.linear(1.0, -0.1), psi0, 0.0, 0.3, 0.1).t[-1] == 0.3
    assert evolve(2, PhiProfile.linear(1.0, -0.1), psi0, 0.0, 0.9, 0.3).t[-1] == 0.9


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


@pytest.mark.parametrize("n", [2, 4])
def test_margin_abort_keeps_the_prefix_before_the_first_refused_stage(n):
    # the prefix ends at the last step whose stages all clear the margin,
    # and it is the trajectory a run to that step returns
    profile, dt, psi0 = PhiProfile.linear(0.5, -0.25), 0.01, np.ones(n)
    with pytest.raises(EPProximity) as info:
        evolve(n, profile, psi0, 0.0, 10.0, dt)
    taus = np.arange(2001) * (np.longdouble(dt) / 2)
    phis, _ = profile(taus.astype(float))
    first_bad = int(np.argmax(np.abs(np.sin(phis)) < get_tolerances().ep_margin))
    prefix = info.value.trajectory
    assert [s.t for s in prefix] == taus[: first_bad : 2].astype(float).tolist()
    assert info.value.t_fail == float(taus[first_bad])
    for state, ref in zip(prefix, evolve(n, profile, psi0, 0.0, prefix[-1].t, dt), strict=True):
        np.testing.assert_array_equal(state.psi, ref.psi)


@pytest.mark.parametrize("floor", [0.0, 1.0])
def test_the_real_value_gate_names_each_refused_value(floor):
    # the gate value by value, as a loop: a value passes when |Im| <=
    # IMAG_GATE max(floor, |Re|) and both parts fit a double; in extended
    # precision a part may be finite and still past the double range
    big, beyond = np.finfo(float).max, np.longdouble("1e400")
    values = np.array([1.0, 1 + 1e-11j, 1 + 1e-9j, 1e-12j, 0.0, np.nan, complex(big, 1.0),
                       complex(1.0, np.inf), complex(-np.inf, 0.0), -2.0 + 3e-10j,
                       1e-300 + 1e-300j])
    extended = np.append(values.astype(np.clongdouble),
                         [1j * beyond + 1, beyond + 0j, 2 + 1j * beyond / 1e300])
    for stack in (values, extended):
        want = {}
        for k, value in enumerate(stack):
            re, im = abs(value.real), abs(value.imag)
            if not (re <= big and im <= big):
                want[k] = "non-finite"
            elif not im <= nip_evolution.IMAG_GATE * max(floor, re):
                want[k] = f"complex ({complex(value):.3e})"
        got = nip_evolution._unreal(stack, floor)
        assert got == want and list(got) == sorted(want)
    assert want[len(values)] == want[len(values) + 1] == "non-finite"
    assert nip_evolution._unreal(values[:1]) == {}


def test_a_complex_norm_names_its_earliest_state(monkeypatch):
    # every stage from t = 0.225 on gets a complex metric; 0.225 is a
    # half step, so the first refused state is t = 0.23, in the second
    # call of 16 steps
    kernel, calls = nip_evolution._stage_stack, []

    def corrupted(n, phis, rates, tol, textbook=False, hermitian_map=False):
        calls.append(len(phis))
        h, sigma, theta, omega = kernel(n, phis, rates, tol, textbook, hermitian_map)
        bad = (phis >= 1.0 + 0.1 * 0.2225)[:, None, None]
        return h, sigma, theta + 1e-6j * bad * np.eye(n), omega

    _steps_per_call(monkeypatch, 3, 16)
    monkeypatch.setattr(nip_evolution, "_stage_stack", corrupted)
    with pytest.raises(NonRealNorm, match=r"came out complex .* at t = 0\.23$"):
        evolve(3, PhiProfile.linear(1.0, 0.1), np.ones(3), 0.0, 0.6, 0.01)
    assert calls == [33, 33]


@pytest.mark.parametrize("map_kind", MAP_KINDS)
@pytest.mark.parametrize("integrate", [evolve, textbook_evolve])
def test_a_refusal_in_a_later_block_still_raises(monkeypatch, integrate, map_kind):
    # the smallest per-level reciprocal condition of the N=3 ketket map
    # levels off near 1/3; with this floor the map is first refused near
    # t = 2.45, in the eighth call of 16 steps, which is solved once
    _steps_per_call(monkeypatch, 3, 16)
    tol = get_tolerances().replace(ep_margin=0.0, eps_singular=0.4)
    profile, psi0 = PhiProfile.linear(1.0, -0.25), np.ones(3)
    states = integrate(3, profile, psi0, 0.0, 2.0, 0.02, tol=tol, map_kind=map_kind)
    assert len(states) == 101
    blocks = _spy_on_wells(monkeypatch)
    with pytest.raises(SingularDyson, match="reciprocal condition at or below 0.4"):
        integrate(3, profile, psi0, 0.0, 3.0, 0.02, tol=tol, map_kind=map_kind)
    assert blocks == [33] * 8


@pytest.mark.parametrize("integrate", [evolve, textbook_evolve])
@pytest.mark.parametrize("n", [2, 3])
def test_an_empty_horizon_returns_the_initial_state(n, integrate):
    states = integrate(n, PhiProfile.linear(1.0, 0.1), np.ones(n), 0.5, 0.5, 0.1)
    assert len(states) == 1
    assert states[0].t == 0.5
    psi, theta = states[0].psi, states[0].theta
    assert np.vdot(psi, theta @ psi).real == pytest.approx(states[0].phys_norm, rel=1e-12)


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
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            evolve(2, profile, [bad, 0.0], 0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            evolve(2, profile, [1.0, 0.0], 0.0, 1.0, bad)
        with pytest.raises(ValueError):
            evolve(2, profile, [1.0, 0.0], 0.0, bad, 0.1)
    with pytest.raises(ValueError):
        evolve(2, profile, [1.0, 0.0], -np.inf, 1.0, 0.1)
    with pytest.raises(ValueError):
        evolve(2, profile, [1.0, 0.0], 0.0, 1.0, 2.0**-53)
    # checked before the profile is evaluated, so no RuntimeWarning fires
    bad_profiles = (PhiProfile.linear(np.nan, 0.1), PhiProfile.linear(1.0, np.inf),
                    PhiProfile.sinusoidal(1.0, np.nan, 1.0))
    for integrate in (evolve, textbook_evolve):
        for bad in bad_profiles:
            with pytest.raises(ValueError, match="finite numbers only"):
                integrate(3, bad, [1.0, 0.0, 0.0], 0.0, 1.0, 0.1)


@pytest.mark.parametrize(
    "value", [np.nan, np.inf, -np.inf, np.float64(-np.inf), np.float32(np.nan),
              complex(np.nan, 0.0), complex(1.0, np.inf), 1j, True, "0.5", None])
def test_profile_parameters_are_refused_as_numpy_refuses_them(value):
    # what numpy's isfinite refuses is refused, and so is a complex value it
    # lets through: the constructor takes real numbers only and keeps them as
    # floats, and _check_inputs refuses those that are not finite
    if not isinstance(value, numbers.Real):
        with pytest.raises(ValueError, match="'linear' takes real numbers only"):
            PhiProfile("linear", {"phi0": 1.0, "omega": value})
        return
    profile = PhiProfile("linear", {"phi0": 1.0, "omega": value})
    assert type(profile.params["omega"]) is float
    assert repr(profile.params["omega"]) == repr(float(value))
    check = partial(nip_evolution._check_inputs, 3, profile, np.ones(3), 0.0, 1.0, 0.1)
    if np.isfinite(value):
        check()
    else:
        with pytest.raises(ValueError, match=r"^profile .* takes finite numbers only$"):
            check()


def test_a_complex_drive_rate_is_refused_not_dropped():
    # a complex rate is refused: dropping its imaginary part would run the
    # drive of omega = 0 with only a ComplexWarning
    with pytest.raises(ValueError, match="real numbers only"):
        evolve(3, PhiProfile("linear", {"phi0": 1.0, "omega": 0.5j}), np.ones(3), 0.0, 0.1, 0.05)


@pytest.mark.parametrize("map_kind", MAP_KINDS)
@pytest.mark.parametrize("n", [2, 3, 8])
def test_textbook_norms_equal_the_identity_metric_product(monkeypatch, n, map_kind):
    # the textbook route takes |psi|^2 without its identity metric; the
    # product with the broadcast identity gives the same bits
    blocks, norms = [], nip_evolution._metric_norms

    def spy(kets, thetas=None):
        blocks.append(kets)
        return norms(kets, thetas)

    monkeypatch.setattr(nip_evolution, "_metric_norms", spy)
    psi0 = np.linspace(1.0, 0.5, n) + 0.25j * np.arange(n)
    states = textbook_evolve(n, PhiProfile.linear(1.2, 0.4), psi0, 0.0, 0.5, 0.01,
                             map_kind=map_kind)
    (kets,) = blocks
    identity = np.broadcast_to(np.eye(n, dtype=complex), (len(kets), n, n))
    want = (kets.conj()[:, None, :] @ (identity @ kets[..., None]))[:, 0, 0]
    assert states.phys_norm.tobytes() == want.real.astype(float).tobytes()


@pytest.mark.parametrize("integrate", [evolve, textbook_evolve])
def test_a_non_finite_norm_is_refused_at_its_state(integrate):
    # dt = 3 is far past RK4's stability limit for this generator, so the
    # norm grows until it leaves the double range at t = 177; textbook
    # takes RK4 only on the root map
    map_kind = "hermitian_root" if integrate is textbook_evolve else "ketket_columns"
    psi0 = np.arange(1, 4) + 0.3j
    with pytest.raises(NonRealNorm, match=r"came out non-finite at t = 177$"):
        integrate(3, PhiProfile.constant(1.3), psi0, 0.0, 600.0, 3.0, map_kind=map_kind)


def test_the_exact_textbook_route_keeps_its_norm_at_any_step():
    # the ketket textbook route takes no RK4 step, so the dt = 3 drive that
    # overflows RK4 keeps its norm to rounding
    psi0 = np.arange(1, 4) + 0.3j
    states = textbook_evolve(3, PhiProfile.constant(1.3), psi0, 0.0, 600.0, 3.0)
    assert len(states) == 201 and drift_of(states) <= 1e-13


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


@pytest.mark.parametrize("map_kind", MAP_KINDS)
@pytest.mark.parametrize("n", [2, 3, 6])
def test_a_table_of_a_line_drives_like_the_line(n, map_kind):
    # a cubic spline through samples of a line is that line
    times = np.linspace(0.0, 1.0, 6)
    table = PhiProfile.tabulated(times, 1.2 - 0.3 * times)
    line = PhiProfile.linear(1.2, -0.3)
    psi0 = np.arange(1, n + 1) + 0.5j
    got = evolve(n, table, psi0, 0.0, 1.0, 0.05, map_kind=map_kind)
    want = evolve(n, line, psi0, 0.0, 1.0, 0.05, map_kind=map_kind)
    assert [s.t for s in got] == [s.t for s in want]
    got_psi = np.array([s.psi for s in got])
    want_psi = np.array([s.psi for s in want])
    assert np.max(np.abs(got_psi - want_psi)) <= 1e-12 * np.max(np.abs(want_psi))


@pytest.mark.parametrize("map_kind", MAP_KINDS)
@pytest.mark.parametrize("n", [3, 7, 8])
def test_evolve_crosses_the_hermitian_angle_at_fourth_order(n, map_kind):
    # at phi = pi/2 a diagonal entry of some ketkets vanishes for these
    # N; the map must stay smooth there, so the drift keeps RK4's order
    profile = PhiProfile.linear(1.4, 0.1)
    psi0 = np.ones(n) / np.sqrt(n)

    def drift(dt):
        return drift_of(evolve(n, profile, psi0, 0.0, 3.0, dt, map_kind=map_kind))

    fine = drift(0.01)
    assert fine <= 1e-8
    assert drift(0.02) / fine >= 8.0


@pytest.mark.parametrize("map_kind", MAP_KINDS)
@pytest.mark.parametrize("phi0", [-0.5, np.pi - 0.5], ids=["zero", "pi"])
@pytest.mark.parametrize("n", [3, 5, 7])
def test_an_odd_well_crosses_sin_phi_zero_at_fourth_order(n, phi0, map_kind):
    # only an even N has a pair of levels that meets at sin phi = 0, so an
    # odd N drives through phi = 0 or pi under the default margin, and its
    # gap to the textbook solution falls 2^4-fold with the step
    profile, psi0 = PhiProfile.linear(phi0, 1.0), np.ones(n, dtype=complex)

    def gap(dt):
        states = evolve(n, profile, psi0, 0.0, 1.0, dt, map_kind=map_kind)
        partner = textbook_evolve(n, profile, psi0, 0.0, 1.0, dt, map_kind=map_kind)
        assert drift_of(states) <= 1e-8
        mapped = (states.omega @ states.psi[..., None])[..., 0]
        return np.max(np.linalg.norm(mapped - partner.psi, axis=1)
                      / np.linalg.norm(partner.psi, axis=1))

    fine = gap(0.01)
    assert fine <= 1e-8
    assert 14.0 <= gap(0.02) / fine <= 18.0


def ketket_map_exact(n, profile, psi0, t1, dt):
    """psi(t) = Omega(t)^-1 exp(-i int Lambda dt) Omega(0) psi0 on the dt grid.

    Under the ketket map Omega H Omega^-1 is the real diagonal Lambda of
    descending energies, and i d(Omega psi)/dt = Lambda (Omega psi), so
    the map evolution is exact given the static solves: the energies by
    LAPACK at 8 Gauss-Legendre nodes per step, the maps by ``ketkets``.
    """
    times = np.linspace(0.0, t1, round(t1 / dt) + 1)
    nodes, weights = np.polynomial.legendre.leggauss(8)
    at = (times[:-1, None] + dt / 2 * (1.0 + nodes)).ravel()
    energies = np.linalg.eigvals(build_h(n, z_from_phi(profile(at)[0])))
    energies = np.sort(energies.real)[:, ::-1].reshape(len(times) - 1, 8, n)
    steps = dt / 2 * np.einsum("k,skj->sj", weights, energies)
    phases = np.vstack([np.zeros(n), np.cumsum(steps, axis=0)])
    maps = [dyson_from_ketkets(ketkets(build_h(n, z_from_phi(profile(t)[0])))) for t in times]
    start = maps[0].omega @ psi0
    return np.array([m.omega_inv @ (np.exp(-1j * p) * start) for m, p in zip(maps, phases)])


@pytest.mark.parametrize("n", [3, 8, 16])
def test_evolve_matches_the_exact_ketket_map_solution_at_fourth_order(n):
    # a linear drive through pi/2; the reference pins the trajectory,
    # phase included, and RK4's error falls 2^4-fold with the step
    profile = PhiProfile.linear(0.9, 0.6)
    psi0 = np.ones(n, dtype=complex)
    exact = ketket_map_exact(n, profile, psi0, 2.0, 0.01)

    def error(dt, stride):
        got = np.array([s.psi for s in evolve(n, profile, psi0, 0.0, 2.0, dt)])
        want = exact[::stride]
        return np.max(np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1))

    fine = error(0.01, 1)
    assert fine <= 1e-8
    assert 14.0 <= error(0.02, 2) / fine <= 18.0


@pytest.mark.parametrize("n", [3, 8, 16])
def test_the_ketket_textbook_route_is_the_exact_map_solution(n):
    # Omega psi of the reference is the mapped solution; textbook_evolve
    # takes its phases by Simpson's rule, whose error falls 2^4-fold with
    # the step, far below RK4's
    profile = PhiProfile.linear(0.9, 0.6)
    psi0 = np.ones(n, dtype=complex)
    times = np.linspace(0.0, 2.0, 201)
    omegas = [dyson_from_ketkets(ketkets(build_h(n, z_from_phi(profile(t)[0])))).omega
              for t in times]
    exact = np.einsum("tij,tj->ti", omegas, ketket_map_exact(n, profile, psi0, 2.0, 0.01))

    def error(dt, stride):
        got = textbook_evolve(n, profile, psi0, 0.0, 2.0, dt).psi
        want = exact[::stride]
        return np.max(np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1))

    fine = error(0.01, 1)
    assert fine <= 1e-11
    assert 14.0 <= error(0.02, 2) / fine <= 18.0


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 10), st.floats(0.5, np.pi - 0.5), st.floats(-0.5, 0.5))
def test_evolve_keeps_every_ketket_level_invariant(n, phi0, rate):
    # Omega(t) psi(t) = exp(-i int Lambda dt) Omega(0) psi0 exactly, so each
    # |(Omega psi)_j| is conserved on its own.  Omega = V^dagger comes from
    # the ketkets and psi from a solve, so the reference shares no inverse
    # with evolve; phi stays in [0.25, pi - 0.25] and may cross pi/2
    profile = PhiProfile.linear(phi0, rate)
    psi0 = np.ones(n) + 0.5j * np.arange(n)
    states = evolve(n, profile, psi0, 0.0, 0.5, 0.01)
    times = np.array([s.t for s in states])
    widths = np.diff(times)[:, None]
    nodes, weights = np.polynomial.legendre.leggauss(8)
    at = (times[:-1, None] + widths / 2 * (1.0 + nodes)).ravel()
    energies = np.linalg.eigvals(build_h(n, z_from_phi(profile(at)[0])))
    energies = np.sort(energies.real)[:, ::-1].reshape(len(widths), 8, n)
    steps = widths / 2 * np.einsum("k,skj->sj", weights, energies)
    phases = np.vstack([np.zeros(n), np.cumsum(steps, axis=0)])
    omegas = np.array([adjoint(ketkets(build_h(n, z_from_phi(profile(t)[0]))).vectors)
                       for t in times])
    mapped = np.exp(-1j * phases) * (omegas[0] @ psi0)
    exact = np.linalg.solve(omegas, mapped[..., None])[..., 0]
    got = np.array([s.psi for s in states])
    error = np.linalg.norm(got - exact, axis=1) / np.linalg.norm(exact, axis=1)
    assert error.max() <= 1e-7
    levels = np.abs(np.einsum("tij,tj->ti", omegas, got))
    drift = np.abs(levels - np.abs(mapped[0])).max() / np.linalg.norm(mapped[0])
    assert drift <= 1e-7


@pytest.mark.parametrize("n", range(3, 9))
def test_evolve_generators_are_the_generator_snapshots(n):
    # one route: the integrator's stage kernel and generator() agree
    profile = PhiProfile.linear(0.9, 0.2)
    psi0 = np.ones(n) / np.sqrt(n)
    for state in evolve(n, profile, psi0, 0.0, 0.5, 0.05):
        snap = generator(n, profile, state.t)
        gap = spectral_norm(state.generator - snap.G) / spectral_norm(snap.G)
        assert gap <= 1e-13, (state.t, gap)


@pytest.mark.parametrize("map_kind", MAP_KINDS)
@pytest.mark.parametrize("integrate", [evolve, textbook_evolve])
@pytest.mark.parametrize("n", [2, 3])
def test_states_hold_double_precision_matrices(n, integrate, map_kind):
    psi0 = np.ones(n) / np.sqrt(n)
    states = integrate(n, PhiProfile.linear(1.0, 0.1), psi0, 0.0, 0.05, 0.01,
                       map_kind=map_kind)
    for field in ("psi", "theta", "generator", "omega"):
        assert getattr(states[-1], field).dtype == np.complex128, field
    assert np.linalg.eigvals(states[-1].generator).shape == (n,)


# ------------------------------------------------------------ trajectory

TRAJECTORY_FIELDS = ("t", "psi", "theta", "phys_norm", "generator", "omega")


def assert_same_states(states, reference):
    """Row by row: the same field values, bit for bit, and the same types."""
    assert len(states) == len(reference)
    for state, ref in zip(states, reference, strict=True):
        for field in TRAJECTORY_FIELDS:
            got, want = getattr(state, field), getattr(ref, field)
            assert type(got) is type(want), field
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("map_kind", MAP_KINDS)
@pytest.mark.parametrize("integrate", [evolve, textbook_evolve])
@pytest.mark.parametrize("n", [2, 3])
def test_trajectory_rows_are_the_states_of_its_stacks(n, integrate, map_kind):
    # 40 steps: several stage blocks on the generic kernel
    states = integrate(n, PhiProfile.linear(1.0, 0.1), np.ones(n) + 0.5j, 0.0, 0.4, 0.01,
                       map_kind=map_kind)
    assert isinstance(states, Trajectory)
    assert len(states) == 41 == len(states.t)
    assert states.psi.shape == (41, n)
    for field in ("theta", "generator", "omega"):
        assert getattr(states, field).shape == (41, n, n)
    assert states.t.dtype == states.phys_norm.dtype == np.float64
    rows = list(states)
    for k, state in enumerate(rows):
        assert isinstance(state, EvolutionState)
        assert type(state.t) is float and type(state.phys_norm) is float
        assert state.t == states.t[k] and state.phys_norm == states.phys_norm[k]
        for field in ("psi", "theta", "generator", "omega"):
            value = getattr(state, field)
            assert value.dtype == np.complex128, field
            np.testing.assert_array_equal(value, getattr(states, field)[k])
        norm = np.vdot(state.psi, state.theta @ state.psi).real
        assert norm == pytest.approx(state.phys_norm, rel=1e-12)
    assert_same_states([states[k] for k in range(len(states))], rows)
    assert_same_states([states[k - len(states)] for k in range(len(states))], rows)
    if integrate is textbook_evolve:
        # one broadcast identity, not a copy per state
        assert states.theta is states.omega
        assert states.theta.strides[0] == 0
        np.testing.assert_array_equal(states.theta[7], np.eye(n))


def test_trajectory_slices_and_indices():
    states = evolve(3, PhiProfile.linear(1.0, 0.1), np.ones(3), 0.0, 0.2, 0.01)
    rows = list(states)
    for part in (slice(None, None, -1), slice(3, 17, 4), slice(-5, None), slice(30, 40)):
        sliced = states[part]
        assert isinstance(sliced, Trajectory)
        assert_same_states(sliced, rows[part])
    assert_same_states([states[-1], states[np.int64(-21)]], [rows[20], rows[0]])
    for k in (21, -22):
        with pytest.raises(IndexError):
            states[k]
    # adding states gives a list, as list concatenation does
    joined = states[:-1] + [rows[-1]]
    assert isinstance(joined, list)
    assert_same_states(joined, rows)


@pytest.mark.parametrize("integrate", [evolve, textbook_evolve])
@pytest.mark.parametrize("n", [2, 3])
def test_trajectory_rows_are_read_only(n, integrate):
    # states are frozen, and so are the stacks their arrays view
    states = integrate(n, PhiProfile.linear(1.0, 0.1), np.ones(n), 0.0, 0.05, 0.01)
    before = [np.copy(getattr(states, field)) for field in TRAJECTORY_FIELDS]
    for field in TRAJECTORY_FIELDS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(states, field)[...] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            getattr(states[1:], field)[0] = 7.0
    for field in ("psi", "theta", "generator", "omega"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(states[0], field)[...] = 7.0
    for field, copy in zip(TRAJECTORY_FIELDS, before):
        np.testing.assert_array_equal(getattr(states, field), copy)


@pytest.mark.parametrize("n", [2, 4])
def test_the_margin_prefix_is_the_trajectory_of_a_run_that_stops_short(n):
    profile, dt, psi0 = PhiProfile.linear(0.5, -0.25), 0.01, np.ones(n) + 0.25j
    with pytest.raises(EPProximity) as info:
        evolve(n, profile, psi0, 0.0, 10.0, dt)
    prefix = info.value.trajectory
    assert isinstance(prefix, Trajectory) and len(prefix) > 100
    assert_same_states(prefix, evolve(n, profile, psi0, 0.0, prefix[-1].t, dt))
    # a drive that starts inside the margin completes no state
    with pytest.raises(EPProximity, match="profile starts inside") as info:
        evolve(n, PhiProfile.constant(0.0), psi0, 0.0, 1.0, dt)
    assert isinstance(info.value.trajectory, Trajectory)
    assert len(info.value.trajectory) == 0
    assert info.value.trajectory.psi.shape == (0, n)


# ------------------------------------------------------- textbook partner


def _steps_per_call(monkeypatch, n, steps):
    """Make the integrator split an N-site drive into calls of ``steps`` steps.

    With ``MAX_DIM`` set to N the block rule reads ``STAGE_BLOCK // 2``
    steps per call at this N.
    """
    monkeypatch.setattr(nip_evolution, "MAX_DIM", n)
    monkeypatch.setattr(nip_evolution, "STAGE_BLOCK", 2 * steps)


@pytest.mark.parametrize("map_kind", MAP_KINDS)
def test_stage_blocks_do_not_change_the_trajectory(monkeypatch, map_kind):
    # one call under the default rule against split calls: 12 steps at N=4
    # in calls of 3 steps and of 1 step; 48 steps at N=2 in calls of 1, 7,
    # 16 and 32 steps, which cut the two-site march's 16-step runs mid-way.
    # At N=2 the ketket map is the two-site closed form
    profile = PhiProfile.sinusoidal(1.1, 0.3, 0.7)
    for n, t1, splits in ((2, 0.48, (1, 7, 16, 32)), (4, 0.12, (3, 1))):
        psi0 = np.array([1.0, 0.5j, -0.25, 0.5])[:n]
        runs = []
        for steps in (None, *splits):
            monkeypatch.undo()
            if steps is not None:
                _steps_per_call(monkeypatch, n, steps)
            nip_evolution._map_block.cache_clear()
            runs.append([
                integrate(n, profile, psi0, 0.0, t1, 0.01, map_kind=map_kind)
                for integrate in (evolve, textbook_evolve)
            ])
        for run in runs[1:]:
            for states, reference in zip(run, runs[0], strict=True):
                assert len(states) == round(t1 / 0.01) + 1
                assert_same_states(states, reference)


@pytest.mark.parametrize("map_kind", MAP_KINDS)
def test_the_run_march_is_the_per_step_march_to_rounding(map_kind):
    # 100 two-site steps, so six full 16-step runs and an open one: the
    # march's rows against psi_{k+1} = R_k psi_k taken one step at a time
    # over the same R_k, in extended precision, from a run start and from
    # mid-run with the carried head and prefix; and evolve's rows
    profile, psi0 = PhiProfile.sinusoidal(1.2, 0.4, 2.0), np.array([1.0, 0.5j])
    steps, taus = nip_evolution._stage_times(0.0, 0.1, 1e-3)
    phis, rates = profile(taus.astype(float))
    h, sigma, _, _ = nip_evolution._stage_stack(
        2, phis, rates, get_tolerances(), hermitian_map=map_kind == "hermitian_root")
    propagators = nip_evolution._propagators(h - sigma, steps).astype(np.clongdouble)
    kets = [psi0.astype(np.clongdouble)]
    for step in propagators:
        kets.append(step @ kets[-1])
    want = np.array(kets)
    scale = np.abs(want).max(axis=-1)
    rows, head, prefix = nip_evolution._run_march(propagators, 0, want[0], None)
    assert (np.abs(rows - want[1:]).max(axis=-1) <= 1e-15 * scale[1:]).all()
    cut = 37
    first, head, prefix = nip_evolution._run_march(propagators[:cut], 0, want[0], None)
    rest, _, _ = nip_evolution._run_march(propagators[cut:], cut, head, prefix)
    assert _same_bits(np.concatenate([first, rest]), rows)
    got = evolve(2, profile, psi0, 0.0, 0.1, 1e-3, map_kind=map_kind).psi
    assert (np.abs(got - want).max(axis=-1) <= 1e-15 * scale).all()


def _stack_digest(states):
    digest = hashlib.sha256()
    for field in TRAJECTORY_FIELDS:
        digest.update(np.ascontiguousarray(getattr(states, field)).tobytes())
    return digest.hexdigest()


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                    reason="the two-site map runs in x86 80-bit long double")
@pytest.mark.parametrize("steps", [None, 1, 7, 16, 32])
def test_two_site_stack_bytes_are_pinned(monkeypatch, steps):
    # numpy clongdouble arithmetic only, no BLAS; the norms are checked in
    # that dtype, not on the stored complex128 copy of Theta.  Calls of 1,
    # 7, 16 and 32 steps and the default 16,384 give one digest, however
    # they cut the march's 16-step runs.  Re-pinned
    # when Sigma came from the kept connection, the march went to 16-step
    # runs and the last stage time became t1 itself: psi moved at most
    # 1.1e-16 and phys_norm 1.4e-16 of their largest entries, the textbook
    # psi 4.4e-17, in the last row only; t, Theta and Omega kept their bytes
    if steps is not None:
        _steps_per_call(monkeypatch, 2, steps)
    args = (2, PhiProfile.sinusoidal(1.2, 0.4, 2.0), np.array([1.0, 0.5j]), 0.0, 0.4, 1e-3)
    assert _stack_digest(evolve(*args)) == (
        "4545f507f72b35287532525b307d0f0ea1c9c3dc3c6d649383a18ddbaa427d33")
    assert _stack_digest(textbook_evolve(*args)) == (
        "2a0de224c88f9620a27c0574056e7969e791fe161e1eb52c8842e68ce760faf7")


# ------------------------------------------------------------ map memo

STATE_FIELDS = ("psi", "theta", "generator", "omega")


def _kept_arrays(n, profile, psi0, t0, t1, dt, map_kind="ketket_columns"):
    """The five arrays of the memo's entry for a one-block drive of these
    integration arguments: H, Theta, Omega, the textbook generator and the
    connection, read back through ``_map_block`` under the key the stage kernel
    builds from the drive's stage angles, which must find them kept."""
    _, taus = nip_evolution._stage_times(t0, t1, dt)
    phis = profile(np.asarray(taus, dtype=float))[0]
    before = nip_evolution._map_block.cache_info()
    arrays = nip_evolution._map_block(
        n, map_kind == "hermitian_root", get_tolerances(), phis.tobytes())
    after = nip_evolution._map_block.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    return list(arrays)


def _spy_on_wells(monkeypatch):
    """Blocks handed to the closed-form well solve, as stage counts."""
    solve, blocks = nip_evolution._well_ketket_stack, []

    def counted(h, r):
        blocks.append(len(h))
        return solve(h, r)

    monkeypatch.setattr(nip_evolution, "_well_ketket_stack", counted)
    return blocks


@pytest.mark.parametrize("map_kind", MAP_KINDS)
def test_both_integrations_of_a_drive_share_each_well_solve(monkeypatch, map_kind):
    # 16 steps at N=5: one call of 33 stages for both integrations
    blocks = _spy_on_wells(monkeypatch)
    profile, psi0 = PhiProfile.linear(1.2, 0.4), np.ones(5)
    for integrate in (evolve, textbook_evolve):
        integrate(5, profile, psi0, 0.0, 0.16, 0.01, map_kind=map_kind)
    assert blocks == [33]


@pytest.mark.parametrize("map_kind", MAP_KINDS)
def test_textbook_evolve_reads_the_same_warm_or_cold(map_kind):
    profile, psi0 = PhiProfile.sinusoidal(1.1, 0.3, 0.7), np.array([1.0, 0.5j, -0.25, 0.5])
    args = (4, profile, psi0, 0.0, 0.12, 0.01)
    evolve(*args, map_kind=map_kind)
    warm = textbook_evolve(*args, map_kind=map_kind)
    nip_evolution._map_block.cache_clear()
    cold = textbook_evolve(*args, map_kind=map_kind)
    for state, ref in zip(warm, cold, strict=True):
        for field in STATE_FIELDS:
            np.testing.assert_array_equal(getattr(state, field), getattr(ref, field))
        assert (state.t, state.phys_norm) == (ref.t, ref.phys_norm)


def _spy_on_roots(monkeypatch):
    """Blocks whose ketket map was factorized for the Hermitian root, as
    stage counts: the stage path's one SVD."""
    svd, blocks = np.linalg.svd, []

    def counted(omega, *args, **kwargs):
        blocks.append(len(omega))
        return svd(omega, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return blocks


def test_both_integrations_of_a_root_map_drive_share_its_root(monkeypatch):
    # 16 steps at N=5, one call of 33 stages: whichever integration runs
    # first takes the root and its slope, and the others read them back;
    # warm and cold agree
    blocks = _spy_on_roots(monkeypatch)
    args = (5, PhiProfile.linear(1.2, 0.4), np.ones(5), 0.0, 0.16, 0.01)
    for order in ((evolve, textbook_evolve, evolve), (textbook_evolve, evolve, textbook_evolve)):
        nip_evolution._map_block.cache_clear()
        warm = [integrate(*args, map_kind="hermitian_root") for integrate in order]
        assert blocks == [33]
        kept = _kept_arrays(*args, map_kind="hermitian_root")
        assert len(kept) == 5 and not any(array.flags.writeable for array in kept)
        for integrate, states in zip(order, warm):
            nip_evolution._map_block.cache_clear()
            assert_same_states(states, integrate(*args, map_kind="hermitian_root"))
        blocks.clear()


def test_a_refused_root_is_not_kept(monkeypatch):
    # the root map's block is refused at the first stage by the well
    # route's floor (there min_j s_j = 0.877), before its SVD, so nothing is
    # kept and each repeat solves the block again and raises afresh
    wells, roots = _spy_on_wells(monkeypatch), _spy_on_roots(monkeypatch)
    tol = get_tolerances().replace(eps_singular=0.9)
    args = (3, PhiProfile.linear(1.2, 0.4), np.ones(3), 0.0, 0.04, 0.01)
    refusals = []
    for integrate in (evolve, evolve, textbook_evolve):
        with pytest.raises(SingularDyson) as info:
            integrate(*args, tol=tol, map_kind="hermitian_root")
        refusals.append(info.value)
    assert wells == [9, 9, 9] and roots == []
    assert len({id(refusal) for refusal in refusals}) == 3


def test_the_two_maps_of_a_drive_keep_separate_entries(monkeypatch):
    # 16 steps at N=5: each map's pair of integrations solves the wells of
    # its one block once, and only the root map takes a root; every run
    # reads as a cold one
    wells, roots = _spy_on_wells(monkeypatch), _spy_on_roots(monkeypatch)
    args = (5, PhiProfile.linear(1.2, 0.4), np.ones(5), 0.0, 0.16, 0.01)
    calls = [(integrate, map_kind) for map_kind in ("ketket_columns", "hermitian_root")
             for integrate in (evolve, textbook_evolve)]
    warm = [integrate(*args, map_kind=map_kind) for integrate, map_kind in calls]
    assert wells == [33, 33] and roots == [33]
    for (integrate, map_kind), states in zip(calls, warm):
        nip_evolution._map_block.cache_clear()
        assert_same_states(states, integrate(*args, map_kind=map_kind))


def _mp_root(omega):
    """The Hermitian root of Omega^dagger Omega for a double Omega, in
    60-digit arithmetic, rounded to double."""
    with mpmath.workdps(60):
        w = mpmath.matrix(omega.tolist())
        values, vectors = mpmath.eighe(w.H * w)
        root = vectors * mpmath.diag([mpmath.sqrt(value) for value in values]) * vectors.H
        return np.array(root.tolist(), dtype=complex)


@pytest.mark.parametrize(("n", "coupling"), [
    (4, 1e-3), (4, 1e-4), (4, 1e-5), (8, 1e-4), (8, 1e-6),
])
def test_the_root_map_is_the_60_digit_root_of_its_ketket_map(n, coupling):
    # the root is the polar factor of the ketket map, so its error stays at
    # rounding while Theta's condition grows to 5.8e13 (N=8 at |sin phi| =
    # ep_margin); an eigh of Theta would square the map's condition and
    # lose cond(Theta) times the rounding here
    phis, tol = np.array([np.arcsin(coupling)]), get_tolerances()
    omega = nip_evolution._stage_stack(n, phis, np.ones(1), tol)[3][0]
    root = nip_evolution._stage_stack(n, phis, np.ones(1), tol, hermitian_map=True)[3][0]
    reference = _mp_root(omega)
    assert spectral_norm(root - reference) <= 1e-14 * spectral_norm(reference)


def test_a_root_map_drive_to_the_margin_keeps_its_prefix():
    # N=4 from sin phi = 0.01 down at rate 0.01: both maps run to the
    # margin at t = 1 and return the same 1,000 rows of time and metric
    args = (4, PhiProfile.linear(0.01, -0.01), np.ones(4), 0.0, 1.0, 1e-3)
    prefixes = {}
    for map_kind in MAP_KINDS:
        with pytest.raises(EPProximity, match="margin at t = 1,") as info:
            evolve(*args, map_kind=map_kind)
        prefixes[map_kind] = info.value.trajectory
        assert len(prefixes[map_kind]) == 1000 and drift_of(prefixes[map_kind]) < 1e-9
    root, ketket = prefixes["hermitian_root"], prefixes["ketket_columns"]
    np.testing.assert_array_equal(root.t, ketket.t)
    np.testing.assert_array_equal(root.theta, ketket.theta)


@pytest.mark.parametrize("map_kind", MAP_KINDS)
def test_another_threads_block_never_answers_for_this_one(map_kind):
    # two drives of one shape (N=5, 16 steps): while one thread loops over
    # the first, the other's every psi of the second is bit for bit its
    # serial psi.  On the root map one thread runs evolve and the other
    # textbook_evolve; on the ketket map both alternate them
    def run(integrate, profile):
        return integrate(5, profile, np.ones(5), 0.0, 0.16, 0.01, map_kind=map_kind).psi

    theirs, mine = PhiProfile.linear(1.2, 0.4), PhiProfile.linear(0.8, -0.3)
    if map_kind == "hermitian_root":
        their_calls, my_calls = (evolve,), (textbook_evolve,)
    else:
        their_calls = my_calls = (evolve, textbook_evolve)
    serial = [run(integrate, mine).tobytes() for integrate in my_calls]
    stop, failures = threading.Event(), []

    def loop():
        try:
            while not stop.is_set():
                for integrate in their_calls:
                    run(integrate, theirs)
        except Exception as exc:  # noqa: BLE001 - reported by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    worker = threading.Thread(target=loop)
    try:
        worker.start()
        wrong = sum(
            run(my_calls[k % len(my_calls)], mine).tobytes() != serial[k % len(my_calls)]
            for k in range(300)
        )
    finally:
        stop.set()
        worker.join()
        sys.setswitchinterval(interval)
    assert (wrong, failures) == (0, [])


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("integrate", [evolve, textbook_evolve])
def test_a_profile_angle_that_is_not_finite_is_refused_at_its_time(n, integrate):
    # phi = 0.5 + 1e308 t overflows at the stage t = 2, which is refused by
    # name before any well solve: N = 3 would exhaust the angle solve's
    # Newton steps there, and N = 4 report a complex norm or the margin
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite at t = 2$"):
        integrate(n, PhiProfile.linear(0.5, 1e308), np.ones(n), 0.0, 3.0, 1.0)


def _same_bits(a, b):
    """Equal values, NaNs and signs of zero in both parts of two arrays."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and all(
        np.array_equal(x, y, equal_nan=True) and (np.signbit(x) == np.signbit(y)).all()
        for x, y in ((a.real, b.real), (a.imag, b.imag))
    )


def test_two_site_map_matches_its_three_transcendental_reference():
    # one exponential e = exp(-i phi) per stage gives the mirror sign from
    # Im e = -sin phi and cos phi from Re e: bit for bit what the long-double
    # sin for the mirror, exp at the mirrored angle and complex cos give,
    # the sign rule at sin phi = 0 included.  Theta and the connection are
    # written in closed form: Theta is Omega^dagger Omega to the bit, and
    # Omega times the connection is the map's angle derivative to rounding
    cld = np.clongdouble
    rng = np.random.default_rng(29)
    phis = np.concatenate([
        [0.0, -0.0, np.pi, -np.pi, np.pi / 2, -np.pi / 2, 1e-300, -1e-300],
        rng.uniform(-7.0, 7.0, 400),
    ])
    angles = phis.astype(np.longdouble)
    mirror = np.where(np.sin(angles) < 0, -1.0, 1.0)
    e = np.exp(cld(-1j) * (mirror * angles).astype(cld))
    z = 1j * np.cos((mirror * angles).astype(cld))
    with np.errstate(divide="ignore", invalid="ignore"):  # the map is singular at sin phi = 0
        h, theta, omega, mapped, connection = nip_evolution._two_site_map(phis)
        lower = np.where(mirror < 0, -e, e) / (1.0 - e * e)
    assert _same_bits(h[:, 0, 0], 2.0 - z) and _same_bits(h[:, 1, 1], 2.0 + z)
    assert _same_bits(omega[:, 0, 1], -1j * e) and _same_bits(omega[:, 1, 0], 1j * e)
    assert _same_bits(np.diagonal(mapped, axis1=1, axis2=2),
                      np.stack([2.0 - e.imag, 2.0 + e.imag], axis=-1))
    assert _same_bits(theta, omega.conj().swapaxes(-1, -2) @ omega)
    assert _same_bits(connection[:, 1, 0], lower) and _same_bits(connection[:, 0, 1], -lower)
    regular = np.abs(np.sin(phis)) > 1e-3
    derivative = np.zeros_like(omega)
    derivative[:, 0, 1], derivative[:, 1, 0] = -mirror * e, mirror * e
    omega, connection, derivative = omega[regular], connection[regular], derivative[regular]
    gap = np.abs(omega @ connection - derivative).max(axis=(-1, -2))
    assert (gap <= 1e-15 * np.abs(derivative).max(axis=(-1, -2))).all()


def _spy_on_two_site_maps(monkeypatch):
    """Blocks handed to the closed-form two-site map, as stage counts."""
    build, blocks = nip_evolution._two_site_map, []

    def counted(phis):
        blocks.append(len(phis))
        return build(phis)

    monkeypatch.setattr(nip_evolution, "_two_site_map", counted)
    return blocks


def test_both_integrations_of_a_two_site_drive_share_its_map(monkeypatch):
    # 400 steps are one closed-form block of 801 stages for both calls
    blocks = _spy_on_two_site_maps(monkeypatch)
    profile, psi0 = PhiProfile.sinusoidal(1.2, 0.4, 2.0), np.array([1.0, 0.5j])
    for integrate in (evolve, textbook_evolve):
        integrate(2, profile, psi0, 0.0, 0.4, 1e-3)
    assert blocks == [801]
    kept = _kept_arrays(2, profile, psi0, 0.0, 0.4, 1e-3)
    assert len(kept) == 5 and not any(array.flags.writeable for array in kept)


def test_two_site_calls_are_bounded_by_the_block_rule(monkeypatch):
    # 400 steps in calls of 32 steps: 13 calls of at most 65 stages each
    _steps_per_call(monkeypatch, 2, 32)
    blocks = _spy_on_two_site_maps(monkeypatch)
    evolve(2, PhiProfile.sinusoidal(1.2, 0.4, 2.0), np.array([1.0, 0.5j]), 0.0, 0.4, 1e-3)
    assert len(blocks) == 13 and max(blocks) <= 2 * 32 + 1


def test_a_long_drive_is_one_call_for_both_integrations(monkeypatch):
    # the default rule takes 7,281 steps per call at N=3
    blocks = _spy_on_wells(monkeypatch)
    profile, psi0 = PhiProfile.linear(0.9, 0.6), np.ones(3)
    for integrate in (evolve, textbook_evolve):
        integrate(3, profile, psi0, 0.0, 1.0, 1e-3)
    assert blocks == [2001]


def test_a_two_site_drive_reads_the_same_warm_or_cold():
    profile, psi0 = PhiProfile.linear(2.0, -0.5), np.array([1.0, 0.5j])
    args = (2, profile, psi0, 0.0, 0.4, 1e-3)
    nip_evolution._map_block.cache_clear()
    cold_evolve = evolve(*args)
    warm_textbook, warm_evolve = textbook_evolve(*args), evolve(*args)
    nip_evolution._map_block.cache_clear()
    assert_same_states(warm_textbook, textbook_evolve(*args))
    assert_same_states(warm_evolve, cold_evolve)


def test_the_two_site_route_and_the_kernel_keep_separate_maps(monkeypatch):
    # 10 steps: both routes solve the same 21 stage angles in one block,
    # and neither reads the other's kept arrays
    wells, maps = _spy_on_wells(monkeypatch), _spy_on_two_site_maps(monkeypatch)
    profile, psi0 = PhiProfile.linear(1.2, 0.4), np.array([1.0, 0.5j])
    args = (2, profile, psi0, 0.0, 0.1, 0.01)
    runs = []
    for _ in range(2):
        nip_evolution._map_block.cache_clear()
        runs.append([integrate(*args, map_kind=map_kind)
                     for map_kind in ("ketket_columns", "hermitian_root", "ketket_columns")
                     for integrate in (evolve, textbook_evolve)])
    assert maps == [21, 21, 21, 21] and wells == [21, 21]
    for states, reference in zip(*runs):
        assert_same_states(states, reference)
    assert_same_states(runs[0][0], runs[0][4])


def test_a_refused_block_is_solved_again(monkeypatch):
    # the N=3 map is first refused at the sixth stage; the refused block is
    # solved once per call and never kept
    blocks = _spy_on_wells(monkeypatch)
    tol = get_tolerances().replace(ep_margin=0.0, eps_singular=0.4)
    phis = np.linspace(0.6, 0.2, 9)
    refusals = []
    for _ in range(2):
        with pytest.raises(SingularDyson) as info:
            nip_evolution._stage_stack(3, phis, np.ones(9), tol)
        refusals.append(info.value)
    assert refusals[0] is not refusals[1]
    assert blocks == [9, 9]


def test_a_refused_block_does_not_evict_the_last_clean_one(monkeypatch):
    # clean, refused, clean: the refused block keeps nothing, so the clean
    # block is read back, not solved again
    blocks = _spy_on_wells(monkeypatch)
    tol = get_tolerances().replace(ep_margin=0.0, eps_singular=0.4)
    clean, refused = np.linspace(0.6, 0.9, 7), np.linspace(0.6, 0.2, 9)
    first = nip_evolution._stage_stack(3, clean, np.ones(7), tol)
    with pytest.raises(SingularDyson):
        nip_evolution._stage_stack(3, refused, np.ones(9), tol)
    again = nip_evolution._stage_stack(3, clean, np.ones(7), tol)
    assert blocks == [7, 9]
    for a, b in zip(first, again, strict=True):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize(("stages", "raised"), [
    ({"well": 5, "dyson": 3}, "dyson"),
    ({"well": 2, "dyson": 2}, "well"),
    ({"well": 4, "dyson": 2}, "dyson"),
    ({"dyson": 0, "well": 1}, "dyson"),
])
def test_a_block_raises_its_earliest_stages_first_check(monkeypatch, stages, raised):
    # on the root map the well solve and the Dyson map each refuse a stage
    # of one 7-stage block: the earliest refused stage wins, and at one
    # stage the check that runs first
    refusals = {"well": DefectiveAtEP("well"), "dyson": SingularDyson("dyson")}
    for check, name in (("well", "_well_ketket_stack"), ("dyson", "_dyson_stack")):
        if check in stages:
            def injected(*args, solve=getattr(nip_evolution, name), check=check):
                *arrays, errors = solve(*args)
                errors[stages[check]] = refusals[check]
                return *arrays, errors

            monkeypatch.setattr(nip_evolution, name, injected)
    phis, tol = np.linspace(0.8, 1.2, 7), get_tolerances()
    with pytest.raises(NipsqwError) as info:
        nip_evolution._stage_stack(3, phis, np.ones(7), tol, hermitian_map=True)
    assert info.value is refusals[raised]


@pytest.mark.parametrize("map_kind", MAP_KINDS)
@pytest.mark.parametrize("n", [2, 5])
def test_a_one_block_drive_solves_its_slope_once(monkeypatch, n, map_kind):
    # the connection is solved with the clean block (its slope on the well
    # route, in closed form by the two-site map): whichever integration of
    # a one-block drive runs first solves it, and the other reads it kept.
    # A block refused under eps_singular 0.4 solves none
    calls = []
    for name in ("_ketket_slope", "_root_slope", "_two_site_map"):
        slope = getattr(nip_evolution, name)

        def counted(*args, name=name, slope=slope):
            calls.append(name)
            return slope(*args)

        monkeypatch.setattr(nip_evolution, name, counted)
    args = (n, PhiProfile.linear(1.2, 0.4), np.ones(n), 0.0, 0.16, 0.01)
    once = {
        "ketket_columns": ["_ketket_slope"] if n > 2 else ["_two_site_map"],
        "hermitian_root": ["_ketket_slope", "_root_slope"],
    }[map_kind]
    for order in ((evolve, textbook_evolve), (textbook_evolve, evolve)):
        nip_evolution._map_block.cache_clear()
        for integrate in order:
            integrate(*args, map_kind=map_kind)
            assert calls == once
        calls.clear()
    tol = get_tolerances().replace(ep_margin=0.0, eps_singular=0.4)
    args = (n, PhiProfile.linear(0.6, -2.5), np.ones(n), 0.0, 0.16, 0.01)
    for integrate in (evolve, textbook_evolve):
        with pytest.raises(SingularDyson):
            integrate(*args, tol=tol, map_kind=map_kind)
    assert calls == []


@pytest.mark.parametrize("integrate", [evolve, textbook_evolve])
def test_kept_arrays_are_read_only(integrate):
    # the kernel hands out the kept H, Theta and Omega and reads the kept
    # slope, on both maps and at two sites too; trajectories hold
    # read-only copies
    for n, map_kind in [(n, map_kind) for n in (2, 3) for map_kind in MAP_KINDS]:
        nip_evolution._map_block.cache_clear()
        args = (n, PhiProfile.linear(1.0, 0.1), np.ones(n), 0.0, 0.1, 0.01)
        states = integrate(*args, map_kind=map_kind)
        kept = _kept_arrays(*args, map_kind=map_kind)
        assert not any(array.flags.writeable for array in kept)
        for field in STATE_FIELDS:
            stack = getattr(states, field)
            assert not any(np.shares_memory(stack, array) for array in kept)
            with pytest.raises(ValueError, match="read-only"):
                stack[...] = 7.0
        again = integrate(*args, map_kind=map_kind)
        nip_evolution._map_block.cache_clear()
        for state, ref in zip(again, integrate(*args, map_kind=map_kind), strict=True):
            for field in STATE_FIELDS:
                np.testing.assert_array_equal(getattr(state, field), getattr(ref, field))
        h, _, theta, omega = nip_evolution._stage_stack(
            n, np.array([1.0]), np.ones(1), get_tolerances(), integrate is textbook_evolve,
            map_kind == "hermitian_root",
        )
        for array in (h, theta, omega):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 7.0


def test_textbook_stationary_profile_rotates_phases():
    # a constant drive keeps the levels 2 +- |sin phi|, so each mapped
    # component only turns, with no step error over 1,000 steps; where
    # sin phi < 0 the map is the closed-form family at -phi, as omega_s states
    psi0 = np.array([0.8, 0.6j])
    for phi in (np.pi / 3, 2.5, -0.7, 1e-3):
        s = abs(np.sin(phi))
        states = textbook_evolve(2, PhiProfile.constant(phi), psi0, 0.0, 10.0, 0.01)
        start, levels = states.psi[0], np.array([2 + s, 2 - s])
        np.testing.assert_allclose(start, omega_s(phi) @ psi0, atol=1e-12)
        want = start * np.exp(-1j * np.outer(states.t, levels))
        assert np.abs(states.psi - want).max() <= 1e-13 * np.linalg.norm(start), phi
        assert np.abs(states.generator - np.diag(levels)).max() <= 1e-15, phi
        assert drift_of(states) <= 1e-13, phi


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


def test_a_row_past_the_gate_and_not_real_is_not_an_observable():
    # Lambda = [[1, 1], [0, 1]] against Theta = I fails the gate, and its
    # expectation at psi = (1, i) is 1 + i/2: the gate's refusal is kept
    lams = np.array([np.eye(2), [[1.0, 1.0], [0.0, 1.0]]], dtype=complex)
    thetas = np.broadcast_to(np.eye(2, dtype=complex), lams.shape)
    kets = np.array([[1.0, 1j], [1.0, 1j]])
    values, errors = nip_evolution._expectation_stack(kets, thetas, lams)
    assert values[1] == 1.0 and list(errors) == [1]
    assert str(errors[1]).startswith("metric compatibility residual")
    assert type(errors[1]) is NotAnObservable
    with pytest.raises(NotAnObservable):
        expectation(make_state(kets[1], thetas[1]), lams[1])


def _near_the_gate(rng, n, residual):
    """(Lambda, Theta) of exact quasi-Hermiticity residual ``residual``, and its
    tight twin: Lambda = I + i d v v^dagger against Theta = I, where the
    Frobenius bound is within rounding of the 2-norm residual."""
    theta = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    theta = theta @ theta.conj().T + n * np.eye(n)
    hermitian = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    base = np.linalg.solve(theta, hermitian + hermitian.conj().T)
    kick = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    rows = []
    for lam_of, metric_of in ((lambda d: base + d * kick, theta),
                              (lambda d: np.eye(n) + 1j * d * np.outer(v, v.conj()), np.eye(n))):
        # the residual is linear in d, well above its rounding floor
        d = 1e-6
        d *= residual / metric.quasi_hermiticity_residual(lam_of(d), metric_of)
        rows.append((lam_of(d), metric_of))
    return rows


def test_the_observable_bound_is_sound_at_the_gate(monkeypatch):
    # rows within 1e-6 of the gate on either side, at entry scales of 1e-170
    # and 1e150 and beyond what the bound takes, and zero operators: a row is
    # refused exactly when its exact residual exceeds 1e-8, quoting it
    rng = np.random.default_rng(23)
    pairs = []
    for n in (2, 3, 5):
        for side in (1 - 1e-6, 1 + 1e-6):
            pairs += _near_the_gate(rng, n, 1e-8 * side)
    scaled = [(scale * lam, theta_scale * theta) for lam, theta in pairs
              for scale, theta_scale in ((1e-170, 1.0), (1e150, 1.0), (1e150, 1e150),
                                         (1e-170, 1e-170))]
    zero = [(np.zeros_like(theta), theta) for _, theta in pairs[:4]]
    rows = pairs + scaled + zero
    exact_calls = []
    exact = nip_evolution._quasi_hermiticity_stack

    def spy(lams, thetas):
        exact_calls.append(len(lams))
        return exact(lams, thetas)

    monkeypatch.setattr(nip_evolution, "_quasi_hermiticity_stack", spy)
    for n in (2, 3, 5):
        group = [(lam, theta) for lam, theta in rows if len(lam) == n]
        lams, thetas = (np.array(stack) for stack in zip(*group))
        kets = np.ones((len(group), n), dtype=complex)
        with np.errstate(over="raise", invalid="raise", divide="raise"):  # as the CLI runs
            _, errors = nip_evolution._expectation_stack(kets, thetas, lams)
        for k, gap in enumerate(exact(lams, thetas).tolist()):
            error = errors.get(k)
            assert isinstance(error, NotAnObservable) == (gap > 1e-8), gap
            if gap > 1e-8:
                assert str(error) == f"metric compatibility residual {gap:.3e} exceeds 1e-08"
        assert sum(isinstance(error, NotAnObservable) for error in errors.values()) >= 4
    # the tight rows just under the gate cleared without the exact residual
    assert sum(exact_calls) < len(rows)


def test_the_observable_bound_needs_the_product_of_its_norms_in_range():
    # |Lambda|_F and |Theta|_F of 1e-100 are each in range, but at their
    # product of 1e-200 every square of M sinks below the denormals, where a
    # bound of 0 would clear rows past the gate: those take the exact route
    rng = np.random.default_rng(29)
    for n in (2, 3):
        pairs = _near_the_gate(rng, n, 1e-8 * (1 + 1e-6)) + _near_the_gate(rng, n, 1e-6)
        for scale, theta_scale in ((1e-100, 1e-100), (1e100, 1e100), (1e-100, 1e100)):
            lams = np.array([scale * lam for lam, _ in pairs])
            thetas = np.array([theta_scale * theta for _, theta in pairs])
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                _, errors = nip_evolution._expectation_stack(
                    np.ones((len(pairs), n), dtype=complex), thetas, lams)
            for k, gap in enumerate(metric._quasi_hermiticity_stack(lams, thetas)):
                error = errors.get(k)
                assert gap > 1e-8 and f"residual {gap:.3e} exceeds" in str(error)


def test_a_gate_row_whose_norms_overflow_raises_as_the_exact_residual_does():
    # M = 0, but |Lambda|_2 |Theta|_2 = 1e600: the bound would clear the row,
    # the exact residual overflows, so the row takes the exact route
    lams = np.diag([1e300, 1e-300]).astype(complex)[None]
    thetas = np.diag([1e-300, 1e300]).astype(complex)[None]
    kets = np.ones((1, 2), dtype=complex)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError) as exact:
            metric._quasi_hermiticity_stack(lams, thetas)
        with pytest.raises(FloatingPointError) as gate:
            nip_evolution._expectation_stack(kets, thetas, lams)
    assert str(gate.value) == str(exact.value)
    with np.errstate(over="ignore"):  # the exact residual reads 0 / inf
        assert nip_evolution._expectation_stack(kets, thetas, lams)[1] == {}


def test_an_overflowing_mismatch_takes_the_residual_at_a_scale_that_fits():
    # Lambda^dagger Theta overflows: the exact residual scales Lambda and
    # Theta by powers of two, so the gate reads the true residual and the
    # expectation, not the SVD of a non-finite M, is what is refused
    state = evolve(2, PhiProfile.linear(1.0, 0.3), [1, 0.5], 0, 0.02, 0.01)[0]
    with pytest.warns(RuntimeWarning):  # the overflowing matmul
        with pytest.raises(NonRealNorm, match="expectation came out non-finite"):
            expectation(state, np.diag([1e308, 1e308]))
    h = build_h(3, 0.5j) / 2
    theta = build_metric(ketkets(build_h(3, 0.8j)), np.ones(3))
    with pytest.warns(RuntimeWarning):  # the overflowing matmul
        residual = metric.quasi_hermiticity_residual(1e308 * h, theta)
    assert residual == pytest.approx(metric.quasi_hermiticity_residual(h, theta), rel=1e-14)


@pytest.mark.parametrize("integrate", [evolve, textbook_evolve])
def test_a_ket_whose_metric_norm_underflows_is_refused(integrate):
    # <psi|Theta|psi> of a ket of 1e-200 entries is about 1e-400, which
    # rounds to zero as a double: the first row is refused, not returned
    # with a zero norm that a later quotient divides by
    with pytest.raises(NonRealNorm, match="^metric norm came out not positive at t = 0$"):
        integrate(3, PhiProfile.linear(1.0, 0.1), np.full(3, 1e-200), 0, 0.1, 0.05)


def test_a_ket_whose_metric_norm_underflows_has_no_expectation():
    # a state built by hand may still hold such a ket: its expectation is
    # refused as non-finite rather than divided by zero
    state = make_state(np.full(3, 1e-200), _metric_at(3, 1.0))
    assert state.phys_norm == 0.0
    with pytest.raises(NonRealNorm, match="^expectation came out non-finite$"):
        expectation(state, build_h(3, z_from_phi(1.0)))


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


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, 6),
    st.floats(0.8, np.pi - 0.8),
    st.floats(-0.3, 0.3),
    st.floats(0.005, 0.05),
    st.integers(1, 24),
)
def test_evolve_is_classic_rk4_on_the_generator(n, phi0, rate, dt, steps):
    # the textbook k1..k4 on vectors, with G(t) from generator() at t,
    # t + dt/2 and t + dt; phi stays in [0.2, pi - 0.2], and runs of more
    # than 16 steps cross a stage block
    profile = PhiProfile.linear(phi0, rate)
    psi = np.ones(n) + 0.5j * np.arange(n)
    states = evolve(n, profile, psi, 0.0, steps * dt, dt)
    assert len(states) == steps + 1
    g = [generator(n, profile, k * dt / 2).G for k in range(2 * steps + 1)]
    for k, state in enumerate(states):
        if k:
            g0, g_half, g1 = g[2 * k - 2 : 2 * k + 1]
            k1 = -1j * (g0 @ psi)
            k2 = -1j * (g_half @ (psi + dt / 2 * k1))
            k3 = -1j * (g_half @ (psi + dt / 2 * k2))
            k4 = -1j * (g1 @ (psi + dt * k3))
            psi = psi + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.linalg.norm(state.psi - psi) <= 1e-12 * np.linalg.norm(psi), k
