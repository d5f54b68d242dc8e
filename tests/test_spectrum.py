"""Secular function, eigenvector ansatz, implicit curve, coalescence scans."""

import numpy as np
import pytest

from nipsqw.errors import NoSlope, NotAnEigenvalue, OutOfRange
from nipsqw.hamiltonian import build_h, z_from_r
from nipsqw.matrix_core import spectral_norm
from nipsqw.spectrum import (
    chebyshev_eigvec,
    ep_scan,
    secular_value,
    solve_spectrum,
    spectral_curve,
)


def rational_r_squared(e):
    """Independent closed-form r^2(E) for the six-site well."""
    p = e**4 - 8 * e**3 + 20 * e**2 - 16 * e + 3
    q = e**4 - 8 * e**3 + 21 * e**2 - 20 * e + 5
    return (e - 2.0) ** 2 * p / q


# ----------------------------------------------------------- solve_spectrum


def test_solve_spectrum_two_site_real_pair():
    res = solve_spectrum(build_h(2, z_from_r(0.5)))
    np.testing.assert_allclose(res.energies, [1.5, 2.5], atol=1e-12)
    assert res.all_real
    assert res.real_flags.tolist() == [True, True]


def test_solve_spectrum_real_boundary():
    res = solve_spectrum(build_h(2, 1.0))
    np.testing.assert_allclose(res.energies, [0.0, 2.0], atol=1e-14)
    assert res.all_real


def test_solve_spectrum_broken_pair():
    res = solve_spectrum(build_h(2, 3j))
    assert not res.all_real
    # discriminant (Im z)^2 - 1 = 8 puts the pair at 2 +- i(sqrt(8)-3)...
    assert np.all(np.abs(res.energies.imag) > 0.1)


def test_reality_region_small_couplings():
    for n in range(2, 7):
        for r in np.linspace(0.05, 1.0, 12):
            assert solve_spectrum(build_h(n, z_from_r(r))).all_real


# ------------------------------------------------------------ secular_value


def test_secular_zero_at_two_site_eigenvalue():
    assert abs(secular_value(2, 0.8j, 1.4)) <= 1e-12


def test_secular_zero_at_six_site_coalescence():
    assert abs(secular_value(6, 1j, 2.0)) <= 1e-10


def test_secular_off_spectrum_value():
    # direct hand evaluation of the 2x2 boundary determinant gives 0.32
    s = secular_value(2, 0.8j, 1.0)
    assert s == pytest.approx(0.32, abs=1e-12)
    assert abs(s) > 1e-3


def test_secular_needs_two_sites():
    with pytest.raises(OutOfRange):
        secular_value(1, 0.5j, 1.0)


def test_secular_agrees_with_eigensolver():
    # boundary values in the unbroken neighbourhood of z = 1
    z_grid = [1.0, 0.8, 1.2, 1.0 + 0.2j, 1.0 - 0.2j, 0.9 + 0.1j]
    for n in range(2, 9):
        for z in z_grid:
            h = build_h(n, z)
            bound = 1e-8 * spectral_norm(h) ** (n - 1)
            res = solve_spectrum(h)
            for e, flag in zip(res.energies, res.real_flags):
                if flag:
                    assert abs(secular_value(n, z, e)) <= bound


# --------------------------------------------------------- chebyshev_eigvec


def test_eigvec_at_coalescence_direction():
    sol = chebyshev_eigvec(2, 1j, 2.0)
    direction = sol.components / sol.components[0]
    np.testing.assert_allclose(direction, [1.0, -1j], atol=1e-12)


def test_eigvec_dirichlet_middle_mode():
    sol = chebyshev_eigvec(3, 0.0, 2.0)
    direction = sol.components / sol.components[0]
    np.testing.assert_allclose(direction, [1.0, 0.0, -1.0], atol=1e-12)


def test_eigvec_rejects_off_spectrum_energy():
    with pytest.raises(NotAnEigenvalue):
        chebyshev_eigvec(2, 0.8j, 1.0)


def test_eigvec_matrix_residual_rows():
    for n, z in [(2, 0.8j), (4, 0.5j), (6, 1.0), (7, 0.3 + 0.4j)]:
        h = build_h(n, z)
        res = solve_spectrum(h)
        for e in res.energies:
            sol = chebyshev_eigvec(n, z, complex(e))
            c = sol.components
            defect = np.linalg.norm(h @ c - complex(e) * c)
            assert defect <= 1e-9 * spectral_norm(h) * np.linalg.norm(c)


def test_eigvec_coefficients_reproduce_components():
    # generic case: the two polynomial families are independent and the
    # stored (a, b) regenerate the site amplitudes through the recurrence
    sol = chebyshev_eigvec(2, 0.8j, 1.4)
    assert max(abs(sol.a), abs(sol.b)) == pytest.approx(1.0, abs=1e-14)
    t = [1.0, sol.y]
    u = [1.0, 2.0 * sol.y]
    rebuilt = np.array([sol.a * t[k] + sol.b * u[k] for k in range(2)])
    np.testing.assert_allclose(rebuilt, sol.components, atol=1e-13)


# ------------------------------------------------------------ spectral_curve


def test_curve_center_energy_pins_coalescence():
    pt = spectral_curve(6, 2.0)
    assert pt.r_squared == pytest.approx(0.0, abs=1e-14)
    assert pt.r_plus == 0.0
    assert pt.r_minus == 0.0


def test_curve_two_site_inversion():
    pt = spectral_curve(2, 2.5)
    assert pt.r_squared == pytest.approx(0.25, abs=1e-14)
    assert pt.r_plus == pytest.approx(0.5, abs=1e-14)
    assert pt.r_minus == pytest.approx(-0.5, abs=1e-14)


def test_curve_matches_rational_form():
    # E = 0.5 sits outside the reachable band (r^2 > 1) yet the rebuilt
    # determinant must still vanish along the principal branch; E = 0.9
    # lands inside and exposes the +/- coupling pair.
    outside = spectral_curve(6, 0.5)
    assert outside.r_squared == pytest.approx(rational_r_squared(0.5), rel=1e-10)
    assert outside.r_squared > 1.0
    assert outside.residual <= 1e-9
    inside = spectral_curve(6, 0.9)
    assert inside.r_squared == pytest.approx(rational_r_squared(0.9), rel=1e-10)
    assert 0.0 < inside.r_squared < 1.0
    assert inside.r_plus == pytest.approx(np.sqrt(inside.r_squared), abs=1e-14)
    assert inside.residual <= 1e-9


def test_curve_flags_out_of_band_energy():
    pt = spectral_curve(6, 1.5)
    assert pt.r_squared == pytest.approx(rational_r_squared(1.5), rel=1e-10)
    assert pt.r_squared > 1.0
    assert pt.r_plus is None and pt.r_minus is None
    assert pt.residual <= 1e-9


def test_curve_no_slope_at_denominator_root():
    # E^4 - 8E^3 + 21E^2 - 20E + 5 factors through E^2 - 3E + 1
    with pytest.raises(NoSlope):
        spectral_curve(6, (3.0 - np.sqrt(5.0)) / 2.0)


def test_curve_spectrum_duality():
    for n in range(2, 9):
        for e in np.linspace(0.1, 3.9, 20):
            try:
                pt = spectral_curve(n, e)
            except NoSlope:
                continue
            if pt.r_plus is None:
                continue
            assert pt.residual <= 1e-9
            res = solve_spectrum(build_h(n, z_from_r(pt.r_plus)))
            assert np.min(np.abs(res.energies - e)) <= 1e-8


# ----------------------------------------------------------------- ep_scan


def test_ep_scan_two_site_gap():
    rows = ep_scan(2, [0.5])
    assert rows[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_ep_scan_condition_blowup():
    rows = ep_scan(2, [1e-6, 0.1])
    assert rows[0, 2] > 1e3 * rows[1, 2]


def test_ep_scan_six_site_middle_merger():
    rows = ep_scan(6, [0.0])
    assert rows[0, 1] <= 1e-8


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 64])
def test_ep_scan_whole_grid_equals_point_by_point(n):
    # r = 0 puts a defective (or fallback) point between healthy ones;
    # at n = 64 the 23 points span two chunks of the stacked solve
    grid = np.concatenate([np.linspace(-1.0, 1.0, 21), [1e-7, 0.35]])
    expected = np.vstack([ep_scan(n, [r]) for r in grid])
    np.testing.assert_array_equal(ep_scan(n, grid), expected)
    assert ep_scan(n, []).shape == (0, 3)


# vector_condition a hair from coalescence, as the previous one-matrix
# solver (a solve_banded inverse iteration) printed it.  Two tridiagonal
# solvers round the near-parallel eigenvectors differently there: the
# stacked solver differs from these by up to 1.2e-13 x condition
# (relative), and the test allows 2e-13 x condition.
CONDITIONS_NEAR_COALESCENCE = [
    (6, 0.00012589254117941674, 32398.41087836717),
    (8, 0.00014125375446227554, 33732.083517738094),
    (16, 0.00012589254117941674, 54330.65377988665),
    (32, 0.00019952623149688788, 48802.358610050534),
]


@pytest.mark.parametrize("n, r, condition", CONDITIONS_NEAR_COALESCENCE)
def test_ep_scan_condition_near_coalescence_stays_pinned(n, r, condition):
    got = ep_scan(n, [-r, r])[:, 2]
    np.testing.assert_allclose(got, condition, rtol=2e-13 * condition, atol=0)


def test_ep_scan_condition_ceiling_reads_as_defective():
    # the exact two-site coalescence rounds to a finite ~1/eps condition
    rows = ep_scan(2, [0.0, 0.5])
    assert rows[0, 2] == np.inf
    assert np.isfinite(rows[1, 2])


def test_ep_scan_domain_guard():
    with pytest.raises(OutOfRange):
        ep_scan(2, [0.5, 1.5])
