"""Secular function, eigenvector ansatz, implicit curve, coalescence scans."""

import struct
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nipsqw.errors import NoSlope, NotAnEigenvalue, OutOfRange
from nipsqw.hamiltonian import build_h, z_from_r
from nipsqw.matrix_core import spectral_norm
from nipsqw.spectrum import (
    _curve_stack,
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


def test_curve_needs_two_sites():
    with pytest.raises(OutOfRange, match="need at least two sites, got 1"):
        spectral_curve(1, 2.0)


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


def _scalar_corner_det(n, z, e, z_last=None):
    """The point-by-point continuant that the stacked kernel replaced."""
    cld = np.clongdouble
    if z_last is None:
        z_last = np.conj(z)
    diag = np.full(n, cld(2.0) - cld(e), dtype=cld)
    diag[0] -= cld(z)
    diag[-1] -= cld(z_last)
    p_prev = cld(1.0)
    p = diag[0]
    for k in range(1, n):
        p, p_prev = diag[k] * p - p_prev, p
    return p


def _scalar_curve_row(n, e):
    """One curve row the point-by-point way; None fields where undefined."""
    det0 = _scalar_corner_det(n, 1j, e)
    det1 = _scalar_corner_det(n, 0.0, e)
    slope = det1 - det0
    if abs(complex(slope)) <= 1e-13:
        return (e, None, None, None, None)
    r_squared = float((-det0 / slope).real)
    r_plus = r_minus = None
    if -1e-12 <= r_squared <= 1.0 + 1e-12:
        r_plus = float(np.sqrt(min(max(r_squared, 0.0), 1.0)))
        r_minus = -r_plus if r_plus > 0 else 0.0
    z = 1j * np.sqrt(complex(1.0 - r_squared))
    residual = float(abs(complex(_scalar_corner_det(n, z, e, z_last=-z))))
    return (e, r_squared, r_plus, r_minus, residual)


def _bits(row):
    return [None if v is None else struct.pack("<d", v) for v in row]


def _curve_rows(n, energies):
    """``_curve_stack``'s table as rows of floats, None where its mask is set."""
    table, absent = _curve_stack(n, energies)
    assert table.shape == absent.shape == (len(energies), 5)
    assert np.isnan(table[absent]).all() and not absent[:, 0].any()
    return [tuple(None if gap else v for v, gap in zip(row, gaps))
            for row, gaps in zip(table.tolist(), absent.tolist())]


CURVE_GRID = np.concatenate([
    np.linspace(0.05, 3.95, 391),
    [(3.0 - np.sqrt(5.0)) / 2.0, 2.0, 0.0, 0.5, 1.5, 4.0, 1.0, 3.0],
])


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 16], ids=lambda n: f"n={n}")
def test_curve_stack_matches_point_by_point(n):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = _curve_rows(n, CURVE_GRID)
        pair = _curve_rows(n, [0.5, 2.0])
    want = [_scalar_curve_row(n, float(e)) for e in CURVE_GRID]
    assert [_bits(row) for row in rows] == [_bits(row) for row in want]
    assert [_bits(row) for row in pair] == [_bits(_scalar_curve_row(n, e)) for e in (0.5, 2.0)]
    assert any(row[1] is not None and row[1] > 1.0 for row in rows)  # off the band
    assert any(row[2] is not None for row in rows)
    if n == 6:
        assert rows[-8][1:] == (None,) * 4  # the no-slope energy (3 - sqrt 5)/2
    if n == 3:
        assert rows[-7][1:] == (None,) * 4  # the middle level of an odd well


@st.composite
def _curve_grids(draw):
    """(n, energies), for odd n sometimes with the flat energy E = 2.

    For even n, E = 2 is the exceptional point r = 0 itself, where a
    dense solver resolves the double root only to about sqrt(eps).
    """
    n = draw(st.integers(2, 12))
    energy = st.floats(0.05, 3.95).filter(lambda e: n % 2 or e != 2.0)
    energies = draw(st.lists(energy, min_size=1, max_size=8))
    return n, energies + [2.0] * (n % 2 * draw(st.booleans()))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_curve_grids())
def test_curve_rows_satisfy_the_dense_eigenproblem(grid):
    n, energies = grid
    eye = np.eye(n)
    for e, r_squared, r_plus, _, _ in _curve_rows(n, energies):
        if r_squared is None:
            ends = [np.linalg.det(build_h(n, z) - e * eye) for z in (1j, 0.0)]
            assert abs(ends[0] - ends[1]) <= 1e-10
        elif r_plus is not None:
            values = np.linalg.eigvals(build_h(n, z_from_r(r_plus)))
            assert np.min(np.abs(values - e)) <= 1e-8


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


def test_ep_scan_reads_every_even_coalescence_as_defective():
    # r = 0 is an exact exceptional point of every even well, where the
    # closed form's middle pair meets exactly
    for n in range(4, 65, 2):
        rows = ep_scan(n, [0.0, 1e-7, -1e-7])
        assert rows[0, 2] == np.inf, n
        assert np.isfinite(rows[1:, 2]).all(), n


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 64])
def test_ep_scan_whole_grid_equals_point_by_point(n):
    # r = 0 puts a defective point between healthy ones at even n
    grid = np.concatenate([np.linspace(-1.0, 1.0, 21), [1e-7, 0.35]])
    expected = np.vstack([ep_scan(n, [r]) for r in grid])
    np.testing.assert_array_equal(ep_scan(n, grid), expected)
    assert ep_scan(n, []).shape == (0, 3)


def _mp_condition(n, r):
    """cond_2 of the unit eigenvectors of the well at the exact coupling r.

    mpmath at 50 digits: the well is built with z = i sqrt(1 - r^2) in that
    precision, its eigenvectors come from mp.eig, scaled to unit norm, and
    the condition from mp.svd_c as s_max / s_min.
    """
    with mpmath.workdps(50):
        r = mpmath.mpf(r)
        z = mpmath.mpc(0, mpmath.sqrt(1 - r * r))
        h = mpmath.matrix(n, n)
        for i in range(n):
            h[i, i] = 2
            if i:
                h[i, i - 1] = h[i - 1, i] = -1
        h[0, 0] = 2 - z
        h[n - 1, n - 1] = 2 - mpmath.conj(z)
        _, v = mpmath.eig(h)
        for j in range(n):
            v[:, j] /= mpmath.norm(v[:, j])
        s = mpmath.svd_c(v, compute_uv=False)
        return float(max(s) / min(s))


# vector_condition a hair from coalescence, against ``_mp_condition`` at
# the coupling ep_scan is given.  The closed-form vectors land within
# 1e-12 relative; the double-precision SVD alone contributes ~eps x
# condition.
CONDITIONS_NEAR_COALESCENCE = [
    (6, 0.00012589254117941674, 32398.410948175686),
    (8, 0.00014125375446227554, 33732.08330557799),
    (16, 0.00012589254117941674, 54330.654658058585),
    (32, 0.00019952623149688788, 48802.35857191012),
]


@pytest.mark.parametrize("n, r, condition", CONDITIONS_NEAR_COALESCENCE)
def test_ep_scan_condition_near_coalescence_stays_pinned(n, r, condition):
    got = ep_scan(n, [-r, r])[:, 2]
    np.testing.assert_allclose(got, condition, rtol=1e-10, atol=0)


# ``_mp_condition(n, 1e-8)`` for every even n: the pair that meets at r = 0
# is 1e-8 apart, well conditioned enough for a finite, true condition
CONDITIONS_AT_ONE_E_MINUS_8 = {
    2: 200000000.0, 4: 323606797.74997896, 6: 407871830.2612431, 8: 476478344.02922684,
    10: 536077370.9796819, 12: 589567123.8705188, 14: 638537847.8547019,
    16: 683982421.5385042, 18: 726572987.0864931, 20: 766790651.1755464,
    22: 804994238.137045, 24: 841460010.3886198, 26: 876406132.1692172,
    28: 910008505.6866642, 30: 942411441.0558993, 32: 973735086.6183158,
    34: 1004080748.7937069, 36: 1033534792.1621478, 38: 1062171557.8065705,
    40: 1090055586.4425485, 42: 1117243338.8636315, 44: 1143784546.154868,
    46: 1169723282.7178495, 48: 1195098828.6940887, 50: 1219946370.2423027,
    52: 1244297573.4667656, 54: 1268181058.8068979, 56: 1291622796.2197835,
    58: 1314646436.7517073, 60: 1337273592.5886815, 62: 1359524075.0494483,
    64: 1381416097.9953916,
}


def test_ep_scan_reads_true_conditions_next_to_every_even_coalescence():
    # the closed form solves the well at the r it is given; the
    # double-precision SVD of a condition-1e9 basis is good to ~eps x condition
    for n, condition in CONDITIONS_AT_ONE_E_MINUS_8.items():
        got = ep_scan(n, [0.0, -1e-8, 1e-8])[:, 2]
        assert got[0] == np.inf, n
        rtol = 2 * np.finfo(float).eps * condition
        np.testing.assert_allclose(got[1:], condition, rtol=rtol, atol=0, err_msg=str(n))


def test_the_pinned_conditions_are_fifty_digit_solves():
    for n, r, condition in CONDITIONS_NEAR_COALESCENCE[:2]:
        assert _mp_condition(n, r) == pytest.approx(condition, rel=1e-15)
    for n in (2, 4, 6, 8):
        assert _mp_condition(n, 1e-8) == pytest.approx(CONDITIONS_AT_ONE_E_MINUS_8[n], rel=1e-15)


def test_ep_scan_condition_ceiling_reads_as_defective():
    # the exact two-site coalescence rounds to a finite ~1/eps condition
    rows = ep_scan(2, [0.0, 0.5])
    assert rows[0, 2] == np.inf
    assert np.isfinite(rows[1, 2])


def test_ep_scan_domain_guard():
    with pytest.raises(OutOfRange):
        ep_scan(2, [0.5, 1.5])
