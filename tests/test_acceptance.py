"""Top-level acceptance drives for the leaky-well library.

Each test reproduces one headline behaviour end to end — closed-form
spectra, the implicit band curve, metric construction, the moving-metric
integrator — and stamps a single pass/fail line with its elapsed time.
"""

import time

import numpy as np

from nipsqw.hamiltonian import PhiProfile, build_h, z_from_phi, z_from_r
from nipsqw.matrix_core import eig_general
from nipsqw.metric import (
    build_metric,
    dyson_from_ketkets,
    ketkets,
    quasi_hermiticity_residual,
)
from nipsqw.n2_oracle import N2Params, g_eigs, g_s, regime, sigma_eigs, sigma_s
from nipsqw.nip_evolution import coriolis, evolve, textbook_evolve
from nipsqw.spectrum import ep_scan, spectral_curve
from nipsqw.n2_oracle import omega_s

RNG_SEED = 20260819


def _stamp(label: str, ok: bool, elapsed: float) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label} ({elapsed:.2f}s)")
    assert ok, label


def _pair_distance(got, want) -> float:
    """Distance between two unordered eigenvalue pairs."""
    got = np.asarray(got)
    want = np.asarray(want)
    straight = np.abs(got - want).max()
    swapped = np.abs(got - want[::-1]).max()
    return float(min(straight, swapped))


def test_two_site_spectrum_is_the_symmetric_pair():
    start = time.perf_counter()
    worst = 0.0
    for r in np.linspace(0.02, 1.0, 50):
        energies = eig_general(build_h(2, z_from_r(r))).eigenvalues
        ordered = energies[np.argsort(energies.real)]
        worst = max(worst, np.abs(ordered - np.array([2.0 - r, 2.0 + r])).max())
    elapsed = time.perf_counter() - start
    _stamp(
        "two-site energies sit at 2 -/+ r (50 couplings, 1e-12)",
        worst <= 1e-12 and elapsed < 1.0,
        elapsed,
    )


def test_six_site_characteristic_polynomial_coefficients():
    start = time.perf_counter()
    worst = 0.0
    # 13 energies, where 7 fix a sextic: det(E - H) by LU against the sextic,
    # in units of the sextic's rounding scale sum |c_k| |E|^k
    energies = np.linspace(-1.0, 5.0, 13)
    for r in (0.0, 0.3, 1.0):
        rr = r * r
        want = np.array([
            1.0,
            -12.0,
            56.0 - rr,
            -128.0 + 8.0 * rr,
            147.0 - 21.0 * rr,
            -76.0 + 20.0 * rr,
            12.0 - 5.0 * rr,
        ])
        h = build_h(6, z_from_r(r))
        got = np.array([np.linalg.det(e * np.eye(6) - h) for e in energies])
        scale = np.polyval(np.abs(want), np.abs(energies))
        worst = max(worst, (np.abs(got - np.polyval(want, energies)) / scale).max())
    elapsed = time.perf_counter() - start
    _stamp(
        "six-site characteristic polynomial matches its printed sextic (1e-9)",
        worst <= 1e-9 and elapsed < 1.0,
        elapsed,
    )


def test_six_site_band_curve_matches_the_rational_form():
    start = time.perf_counter()
    worst_rel = 0.0
    worst_det = 0.0
    checked = 0
    for e in np.linspace(0.05, 3.95, 400):
        p = e**4 - 8 * e**3 + 20 * e**2 - 16 * e + 3
        q = e**4 - 8 * e**3 + 21 * e**2 - 20 * e + 5
        point = spectral_curve(6, e)
        if abs(q) > 1e-2:  # keep clear of the rational form's poles
            want = (e - 2.0) ** 2 * p / q
            worst_rel = max(worst_rel, abs(point.r_squared - want) / max(abs(want), 1e-300))
            checked += 1
        if point.r_plus is not None:
            h = build_h(6, z_from_r(point.r_plus))
            det = np.linalg.det(h - e * np.eye(6))
            worst_det = max(worst_det, abs(det))
    center = spectral_curve(6, 2.0)
    elapsed = time.perf_counter() - start
    _stamp(
        "six-site band curve reproduces the closed rational form (400 pts, rel 1e-10)",
        worst_rel <= 1e-10
        and checked >= 380
        and center.r_plus == 0.0
        and worst_det <= 1e-9
        and elapsed < 2.0,
        elapsed,
    )


def test_metric_pipeline_reproduces_the_closed_form_metric():
    start = time.perf_counter()
    edge = float(np.arcsin(1e-3))
    worst_entry = 0.0
    worst_eig = 0.0
    for phi in np.linspace(edge, np.pi - edge, 100):
        basis = ketkets(build_h(2, z_from_phi(phi)))
        theta = build_metric(basis, np.ones(2))
        want = np.array([
            [2.0, -2j * np.cos(phi)],
            [2j * np.cos(phi), 2.0],
        ])
        worst_entry = max(worst_entry, np.abs(theta - want).max())
        eigs = np.linalg.eigvalsh(theta)
        split = np.sort([2.0 - 2.0 * np.cos(phi), 2.0 + 2.0 * np.cos(phi)])
        worst_eig = max(worst_eig, np.abs(eigs - split).max())
    elapsed = time.perf_counter() - start
    _stamp(
        "two-site metric pipeline hits the closed form entrywise (100 angles, 1e-10)",
        worst_entry <= 1e-10 and worst_eig <= 1e-10 and elapsed < 1.0,
        elapsed,
    )


def test_metric_makes_the_well_quasi_hermitian_at_every_size():
    start = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for n in range(2, 9):
        for r in (0.2, 0.5, 0.9):
            h = build_h(n, z_from_r(r))
            basis = ketkets(h)
            weight_choices = [np.ones(n)] + [rng.uniform(0.2, 5.0, n) for _ in range(2)]
            for kappa in weight_choices:
                theta = build_metric(basis, kappa)
                worst = max(worst, quasi_hermiticity_residual(h, theta))
    elapsed = time.perf_counter() - start
    _stamp(
        "every weighted metric makes the well self-adjoint (N=2..8, 1e-9)",
        worst <= 1e-9 and elapsed < 2.0,
        elapsed,
    )


def test_differenced_coriolis_matches_the_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for phi in np.linspace(0.15, np.pi - 0.15, 24):
        for rate in (0.1, 1.0, 10.0):
            profile = PhiProfile.linear(phi0=phi, omega=rate)
            sigma = coriolis(2, profile, 0.0)
            worst = max(worst, np.abs(sigma - sigma_s(phi, rate)).max())

    def error_at(step):
        # central difference of the pipeline's ketket map at phi = 0.8
        def omega_at(angle):
            return dyson_from_ketkets(ketkets(build_h(2, z_from_phi(angle))))
        centre = omega_at(0.8)
        slope = (omega_at(0.8 + step).omega - omega_at(0.8 - step).omega) / (2 * step)
        return np.abs(1j * (centre.omega_inv @ slope) - sigma_s(0.8, 1.0)).max()

    ratio = error_at(2e-3) / error_at(1e-3)
    elapsed = time.perf_counter() - start
    _stamp(
        "analytic Coriolis term matches the closed form (1e-12), "
        "a difference quotient converges to it at second order",
        worst <= 1e-12 and 3.5 <= ratio <= 4.5 and elapsed < 2.0,
        elapsed,
    )


def test_generator_eigenvalues_split_into_a_non_conjugate_doublet():
    start = time.perf_counter()
    cases = [
        (np.pi / 3, 0.2, "almost_stationary"),
        (2.0, 0.3, "almost_stationary"),
        (np.pi / 3, 10.0, "strongly_non_stationary"),
        (0.4, 6.0, "strongly_non_stationary"),
    ]
    worst_pair = 0.0
    worst_flat = 0.0
    for phi, rate, expected_regime in cases:
        assert regime(N2Params(phi, rate)) == expected_regime
        numeric = eig_general(g_s(phi, rate)).eigenvalues
        closed = np.array(g_eigs(phi, rate))
        worst_pair = max(worst_pair, _pair_distance(numeric, closed))
        if expected_regime == "strongly_non_stationary":
            # both eigenvalues keep the same real part 2 - phi_dot / 2
            worst_flat = max(
                worst_flat, np.abs(numeric.real - (2.0 - rate / 2.0)).max()
            )
    conjugate_safe = True
    for phi in np.linspace(0.15, np.pi - 0.15, 24):
        for rate in (0.1, 1.0, 10.0):
            for pair in (sigma_eigs(phi, rate), g_eigs(phi, rate)):
                plus, minus = pair
                conjugate_safe &= abs(plus.imag) > 1e-8
                conjugate_safe &= abs(minus.imag) > 1e-8
                conjugate_safe &= abs(plus - np.conj(minus)) > 1e-8
    elapsed = time.perf_counter() - start
    _stamp(
        "generator eigenvalues match closed form and never pair as conjugates (1e-12)",
        worst_pair <= 1e-12
        and worst_flat <= 1e-12
        and conjugate_safe
        and elapsed < 1.0,
        elapsed,
    )


def test_moving_metric_evolution_conserves_the_physical_norm():
    start = time.perf_counter()
    profile = PhiProfile.linear(phi0=1.0, omega=0.1)
    psi0 = np.array([1.0, 0.0])

    def drift(states):
        norms = np.array([s.phys_norm for s in states])
        return np.abs(norms - norms[0]).max() / norms[0]

    states = evolve(2, profile, psi0, 0.0, 5.0, 1e-3)
    fine = evolve(2, profile, psi0, 0.0, 5.0, 5e-4)
    primes = textbook_evolve(2, profile, psi0, 0.0, 5.0, 1e-3)
    worst_cross = max(
        float(np.linalg.norm(omega_s(profile(s.t)[0]) @ s.psi - p.psi))
        for s, p in zip(states, primes)
    )
    ratio = drift(states) / drift(fine)
    elapsed = time.perf_counter() - start
    _stamp(
        "moving-metric run conserves the physical norm (1e-8, order-4, crosscheck 1e-6)",
        drift(states) <= 1e-8
        and ratio >= 12.0
        and worst_cross <= 1e-6
        and elapsed < 5.0,
        elapsed,
    )


def test_eigenvector_conditioning_blows_up_at_the_coalescence():
    start = time.perf_counter()
    near = ep_scan(2, np.array([1e-6]))[0]
    away = ep_scan(2, np.array([0.1]))[0]
    merged = ep_scan(6, np.array([0.0]))[0]
    roots = np.roots([1.0, -12.0, 56.0, -128.0, 147.0, -76.0, 12.0])  # the sextic at r = 0
    gaps = np.diff(np.sort(roots.real))
    outer_ok = min(gaps[0], gaps[1], gaps[3], gaps[4]) > 0.1
    elapsed = time.perf_counter() - start
    _stamp(
        "conditioning explodes and the middle pair merges at the coalescence",
        near[2] > 1e3 * away[2]
        and merged[1] <= 1e-8
        and outer_ok
        and elapsed < 1.0,
        elapsed,
    )


def test_the_well_is_parity_time_symmetric_for_every_corner_value():
    start = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED)
    asymmetric = 0
    for _ in range(20):
        z = complex(rng.standard_normal(), rng.standard_normal())
        for n in range(2, 9):
            h = build_h(n, z)
            asymmetric += not (h == h.conj()[::-1, ::-1]).all()
    elapsed = time.perf_counter() - start
    _stamp(
        "index flip plus conjugation leaves the well invariant for any corner",
        asymmetric == 0 and elapsed < 1.0,
        elapsed,
    )
