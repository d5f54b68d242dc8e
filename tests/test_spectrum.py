"""Secular function, eigenvector ansatz, implicit curve, coalescence scans."""

import json
import struct
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nipsqw import cli, metric
from nipsqw.config import get_tolerances
from nipsqw.errors import DefectiveAtEP, NoSlope, NotAnEigenvalue, OutOfRange
from nipsqw.hamiltonian import RobinParams, build_h, robin_to_z, z_from_r
from nipsqw.matrix_core import _eigen_arrays, eig_general, spectral_norm
from nipsqw.metric import ketkets
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


@pytest.mark.parametrize("n", [4, 6, 8, 16])
def test_driven_wells_stay_real_down_to_the_coalescence(n):
    # a driven well with |c| <= 1 has real levels; the closed form keeps them
    # real to rounding where LAPACK's |Im E| reached 3e-8 at r = 1e-8
    for r in (1e-4, 1e-8, 1e-10, 0.0):
        assert solve_spectrum(build_h(n, z_from_r(r))).all_real, r


DRIVEN_COUPLINGS = (1.0, 0.5, 1e-4, 1e-8, 0.0)


def _driven_wells(n):
    """(r, H): driven wells at N sites over couplings down to the coalescence,
    with either sign of the corner."""
    return [(r, build_h(n, sign * z_from_r(r))) for r in DRIVEN_COUPLINGS for sign in (1.0, -1.0)]


def _basis_route(h):
    """What solve_spectrum printed while it read every well's levels from the
    whole ketket basis: ascending energies and flags, or the refusal."""
    values, _, errors = metric._well_ketket_stack(h[None], [metric._driven_coupling(h)])
    energies, error = values[0, ::-1], errors.get(0)
    if np.isnan(energies).any():
        return error
    return energies, np.abs(energies.imag) <= get_tolerances().tol_real


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 17, 24, 64])
def test_driven_levels_equal_the_basis_route(monkeypatch, n):
    # bit for bit, with no columns built
    wells = _driven_wells(n)
    references = [_basis_route(h) for _, h in wells]
    built = []
    for name in ("_well_ketket_stack", "_gauged_bases", "_residual_refusals", "_eigen_arrays"):
        monkeypatch.setattr(metric, name, lambda *args, name=name: built.append(name))
    for (_, h), (energies, flags) in zip(wells, references):
        res = solve_spectrum(h)
        assert res.energies.tobytes() == energies.tobytes()
        assert res.real_flags.tolist() == flags.tolist()
    assert built == []
    monkeypatch.undo()
    # angles that stop after one Newton step: both routes refuse alike every
    # well whose start is not its root within the stopping rule, r = 0.5 among them
    monkeypatch.setattr(metric, "_ANGLE_STEPS", 1)
    for r, h in wells:
        reference = _basis_route(h)
        if isinstance(reference, tuple):
            assert r != 0.5
            assert solve_spectrum(h).energies.tobytes() == reference[0].tobytes()
            continue
        with pytest.raises(DefectiveAtEP) as caught:
            solve_spectrum(h)
        assert type(caught.value) is type(reference)
        assert str(caught.value) == str(reference)
        assert str(reference).endswith("angle solve exhausted 1 Newton steps")


ONE_ROUTE_CORNERS = {
    "r=0.5": ("--r", "0.5"), "r=1e-8": ("--r", "1e-08"), "r=0": ("--r", "0"),
    "z=3i": ("--z", "0,3"), "robin": ("--robin", "2,1,0.1"),
}


@pytest.mark.parametrize("n", [2, 3, 6, 16])
@pytest.mark.parametrize("corner", ONE_ROUTE_CORNERS)
def test_the_spectrum_command_prints_solve_spectrum(capsys, corner, n):
    flag, value = ONE_ROUTE_CORNERS[corner]
    assert cli.main(["spectrum", "--n", str(n), flag, value, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    args = cli.build_parser().parse_args(["spectrum", "--n", str(n), flag, value])
    res = solve_spectrum(build_h(n, cli._resolve_boundary(args)))
    printed = np.array([row[1:3] for row in rows])  # bytes, so -0.0 is not 0.0
    assert printed.tobytes() == np.column_stack([res.energies.real, res.energies.imag]).tobytes()
    assert [row[3] for row in rows] == res.real_flags.tolist()


def test_non_wells_are_refused_by_every_well_solve():
    # one site is no well either, whether LAPACK or the driven closed form
    # would take its corner
    dense = np.random.default_rng(5).standard_normal((3, 3))
    for h in (np.diag([1.0, 2.0, 3.0]), dense, [[2 + 5j]], [[2 + 0.5j]], [[2.0]]):
        for solve in (ketkets, solve_spectrum):
            with pytest.raises(ValueError, match="complex symmetric tridiagonal"):
                solve(h)
    # H^dagger's levels are H's only when conj(H) reversed is H again
    lopsided = build_h(4, 0.5j)
    lopsided[-1, -1] = lopsided[0, 0]
    assert ketkets(lopsided).eigenvalues.size == 4
    with pytest.raises(ValueError, match="conjugate reversed"):
        solve_spectrum(lopsided)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 16])
def test_undriven_wells_agree_with_the_general_eigensolver(n):
    for z in (3j, robin_to_z(RobinParams(2.0, 1.0, 0.1))):
        h = build_h(n, z)
        got, want = solve_spectrum(h).energies, eig_general(h).eigenvalues
        # nearest pairs both ways: conjugate pairs may list in either order
        gaps = np.abs(got[:, None] - want[None, :])
        scale = np.abs(want).max()
        assert gaps.min(axis=0).max() <= 1e-12 * scale
        assert gaps.min(axis=1).max() <= 1e-12 * scale


UNDRIVEN_CORNERS = (3j, np.exp(1j * np.pi / 3), 0.3 + 0.5j, 1.0,
                    robin_to_z(RobinParams(2.0, 1.0, 0.1)))


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 16, 64])
def test_undriven_levels_are_the_eigen_solve_values(monkeypatch, n):
    # bit for bit H^dagger's ascending values, with no ketket column
    # reversed, gauged or checked
    wells = [build_h(n, z) for z in UNDRIVEN_CORNERS]
    references = [_eigen_arrays(h[None].conj().swapaxes(-1, -2))[0][0] for h in wells]
    built = []
    for name in ("_gauged_bases", "_well_ketket_stack"):
        monkeypatch.setattr(metric, name, lambda *args, name=name: built.append(name))
    for h, want in zip(wells, references):
        assert solve_spectrum(h).energies.tobytes() == want.tobytes()
    assert built == []



def _circle_angles(n):
    """Angles gamma of z = exp(i gamma) halfway between neighbouring meetings
    gamma = +-k pi / N, k = 1 ... N-1, where the corner's level 2 - 2 cos gamma
    crosses another: the farthest any angle gets from them, 0.05 or more up
    to N = 31.  Both signs of gamma, and z = 1 and z = -1."""
    ks = sorted({0, 1, n // 3, n // 2, n - 1})
    return [0.0, np.pi, *(sign * (k + 0.5) * np.pi / n for k in ks for sign in (1, -1))]


@pytest.mark.parametrize("n", [2, 3, 5, 8, 17, 24, 64])
def test_unit_circle_corners_have_the_closed_form_levels(n):
    # off the driven axis z = i cos phi: on |z| = 1 the levels are
    # 2 - 2 cos gamma and 2 - 2 cos(k pi / N), k = 1 ... N-1, all real
    for gamma in _circle_angles(n):
        exact = np.sort(np.append(2 - 2 * np.cos(np.arange(1, n) * np.pi / n),
                                  2 - 2 * np.cos(gamma)))
        h = build_h(n, np.exp(1j * gamma))
        res = solve_spectrum(h)
        assert res.all_real and res.real_flags.all(), gamma
        np.testing.assert_allclose(res.energies, exact, rtol=0, atol=2e-13)
        np.testing.assert_allclose(ketkets(h).eigenvalues, exact[::-1], rtol=0, atol=2e-13)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 17, 24, 64])
def test_unit_circle_moving_level_is_a_plane_wave(n):
    # on |z| = 1 the level 2 - 2 cos gamma belongs to H's plane wave
    # exp(-i gamma j), j = 1 ... N, and so its ketket, an eigenvector of
    # H^dagger, is the conjugate wave exp(i gamma j); eig_general meets the
    # closed-form levels with no imaginary part
    j = np.arange(1, n + 1)
    for gamma in _circle_angles(n):
        moving = 2 - 2 * np.cos(gamma)
        exact = np.sort(np.append(2 - 2 * np.cos(np.arange(1, n) * np.pi / n), moving))
        h = build_h(n, np.exp(1j * gamma))
        wave = np.exp(-1j * gamma * j)
        # the phase gamma j of entry j is rounded by about j ulps
        assert np.linalg.norm(h @ wave - moving * wave) <= 1e-15 * n * np.sqrt(n), gamma
        np.testing.assert_allclose(eig_general(h).eigenvalues, exact, rtol=0, atol=2e-13)
        basis = ketkets(h)
        column = basis.vectors[:, np.argmin(np.abs(basis.eigenvalues - moving))]
        ket = np.conj(wave)
        fit = np.vdot(ket, column) / n * ket  # |ket|^2 = N
        assert np.linalg.norm(column - fit) <= 1e-11 * np.linalg.norm(column), gamma


def test_unit_circle_levels_near_a_meeting_hold_their_condition_bound():
    # at gamma = k pi / 6 the corner's level 2 - 2 cos gamma meets the level
    # 2 - 2 cos(k pi / 6) and the pair's eigenvectors coalesce, s_j -> 1.15
    # |gamma - k pi / 6|, so no fixed bound fits a ladder towards it.  QR's
    # levels are exact for some H + E with |E|_2 <= p(N) eps |H|_2, p(N) a
    # modest function of N taken as N (LAPACK Users' Guide, sec. 4.8), and a
    # level moves by at most |E|_2 / s_j to first order (Wilkinson), with
    # s_j = |v_j^T v_j| of its unit column, the left vector of a complex
    # symmetric H being conj(v_j).  Where that bound passes the gap, the
    # pair moves by about sqrt(|E|_2) instead, still inside it.  So each
    # level lies within 8 N eps |H|_2 / s_j of its closed form, a margin of 8
    n = 6
    eps = np.finfo(float).eps
    fixed = 2 - 2 * np.cos(np.arange(1, n) * np.pi / n)
    deltas = [float(f"{m}e-{e}") for e in range(2, 13) for m in (3, 1)]
    for k in range(1, n):
        for gamma in (k * np.pi / n + sign * delta for delta in deltas for sign in (1, -1)):
            h = build_h(n, np.exp(1j * gamma))
            dec = eig_general(h)
            exact = np.sort(np.append(fixed, 2 - 2 * np.cos(gamma)))
            unit = dec.right_vectors / np.linalg.norm(dec.right_vectors, axis=0)
            s = np.abs(np.einsum("ij,ij->j", unit, unit))
            bound = 8 * n * eps * np.linalg.norm(h, 2) / s
            # solve_spectrum and ketkets solve H^dagger: their conjugate levels,
            # in ascending real order, hold the same bound
            routes = (dec.eigenvalues, np.conj(solve_spectrum(h).energies),
                      np.conj(ketkets(h).eigenvalues))
            for levels in routes:
                levels = levels[np.argsort(levels.real)]
                assert (np.abs(levels - exact) <= bound).all(), (k, gamma)


def test_cell_centred_corner_converges_at_second_order():
    # -psi'' on (0, pi) with psi' + i alpha psi = 0 at both ends has the level
    # alpha^2 (Krejcirik, Bila and Znojil, J. Phys. A 39, 10143, 2006); the
    # corner tan(gamma / 2) = alpha h / 2 puts the well's level 2 - 2 cos gamma
    # at h^2 alpha^2 / (1 + alpha^2 h^2 / 4), second order in h = pi / N
    alpha = 1.3
    errors = []
    for n in (16, 32, 64):
        h = np.pi / n
        want = alpha**2 / (1 + (alpha * h) ** 2 / 4)
        gamma = 2 * np.arctan(alpha * h / 2)
        levels = solve_spectrum(build_h(n, np.exp(1j * gamma))).energies.real / h**2
        level = levels[np.argmin(np.abs(levels - want))]
        assert abs(level - want) <= 1e-11 * want, n
        errors.append(alpha**2 - level)
    ratios = np.array(errors[:-1]) / errors[1:]
    assert ((3.9 <= ratios) & (ratios <= 4.1)).all(), ratios


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


@pytest.mark.parametrize("call", [secular_value, chebyshev_eigvec])
@pytest.mark.parametrize(("n", "z", "e"), [(64, 1j, 1e6), (3, 1j, 1e200), (3, 1e200j, 1.0)],
                         ids=["recurrence_n64", "recurrence_huge_energy", "determinant"])
def test_secular_refuses_leaving_the_double_range(call, n, z, e):
    # the recurrence overflows in the first two, the determinant's products
    # in the last; each is refused, naming its inputs, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange, match="leaves the double range") as refusal:
            call(n, z, e)
    assert f"N = {n}, z = {z}, E = {e}" in str(refusal.value)


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


def _scalar_curve_row(n, e):
    """One curve row the point-by-point way; None fields where undefined.

    The continuants alpha from (1, d) and beta from (0, -1), d = 2 - E, run
    side by side in extended precision; det(H(r) - E) = det0 + r^2 beta with
    det0 = d alpha - (alpha' + beta), alpha' being alpha one step behind.
    """
    ld = np.longdouble
    d = ld(2.0) - ld(e)
    alpha_prev, alpha, beta_prev, beta = ld(1.0), d, ld(0.0), ld(-1.0)
    for _ in range(n - 2):
        alpha, alpha_prev = d * alpha - alpha_prev, alpha
        beta, beta_prev = d * beta - beta_prev, beta
    det0 = d * alpha - (alpha_prev + beta)
    if abs(beta) <= 1e-13:
        return (e, None, None, None, None)
    r_squared = float(-det0 / beta)
    r_plus = r_minus = None
    if -1e-12 <= r_squared <= 1.0 + 1e-12:
        r_plus = float(np.sqrt(min(max(r_squared, 0.0), 1.0)))
        r_minus = -r_plus if r_plus > 0 else 0.0
    residual = float(abs(det0 + ld(r_squared) * beta))
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
@example((3, [2.0]))  # the middle level of an odd well
@example((5, [0.5, 2.0]))
@example((6, [(3 - 5 ** 0.5) / 2]))  # the no-slope energy at N = 6
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


def _mp_curve_root(n, e):
    """The 50-digit root r^2 at a double energy and |slope|, where the slope is
    det(r^2 = 1) - det(r^2 = 0), from the corner continuant of det(H - E)
    with corners d - z and d + z in complex arithmetic."""
    d = 2 - mpmath.mpf(e)

    def det(z):
        p_prev, p = mpmath.mpf(1), d - z
        for _ in range(n - 2):
            p, p_prev = d * p - p_prev, p
        return (d + z) * p - p_prev

    det0 = det(mpmath.mpc(0, 1))
    slope = det(0) - det0
    return mpmath.re(-det0 / slope), abs(slope)


def test_curve_r_squared_is_within_an_ulp_of_fifty_digits():
    # seeded energies in the band and out to |E| = 1e6 on both sides, with
    # the four where the difference of two determinants cancelled.  Rounding
    # in the extended continuant reaches r^2 as at most 2N eps (|d| + |r^2|)
    # over the slope, below an ulp except next to a zero of alpha or of the
    # slope; off the band every row is within one ulp
    rng = np.random.default_rng(4301)
    out = 10.0 ** rng.uniform(0.5, 6.0, 40) * rng.choice([-1.0, 1.0], 40)
    energies = np.concatenate([rng.uniform(0.0, 4.0, 80), 2.0 + out, [1e5, 2e5, 1e6, -1e3]])
    eps = float(np.finfo(np.longdouble).eps)
    rounded = checked = 0
    with mpmath.workdps(50):
        for n in (2, 3, 4, 5, 6, 8, 13, 16, 24, 33, 48):
            for e, r_squared, *_ in _curve_rows(n, energies):
                if r_squared is None:
                    continue
                exact, slope = _mp_curve_root(n, e)
                error = float(abs(mpmath.mpf(r_squared) - exact))
                ulp = float(np.spacing(abs(float(exact))))
                slack = 2 * n * eps * float((abs(2 - mpmath.mpf(e)) + abs(exact)) / slope)
                assert error <= ulp + (slack if abs(e - 2.0) <= 2.0 else 0.0), (n, e, r_squared)
                checked += 1
                rounded += error <= ulp
    assert rounded >= 0.99 * checked


def test_curve_refuses_a_row_past_the_double_range():
    # r^2 of the first overflows a double, the residual of the second, and
    # the residual's resolution 2^-63 |det0| of the third (|det0| ~ 1e384);
    # the r^2 of the fourth, about 1e80, is printed with its residual, and
    # so is the fifth's, whose |det0| ~ 1e288 is resolved
    for n, e in ((4, -1e300), (8, 1e41), (64, 1e6)):
        for call in (lambda: _curve_stack(n, [0.5, e, 1e300]), lambda: spectral_curve(n, e)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(OutOfRange, match="leaves the double range") as refusal:
                    call()
            assert str(refusal.value).endswith(f"at N = {n}, E = {e}")
    point = spectral_curve(8, 1e40)
    assert point.r_squared == pytest.approx(1e80, rel=1e-15)
    assert np.isfinite(point.residual) and point.r_plus is None
    assert np.isfinite(spectral_curve(48, 1e6).residual)


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


LEVEL_ORDER_GRID = np.concatenate([np.linspace(-1.0, 1.0, 41), [0.0, 1e-8, -1e-8]])


def _gap_bits(gaps):
    return [struct.pack("<d", g) if g == g else "nan" for g in gaps.tolist()]


def _all_pairs_gaps(values):
    """The smallest |E_i - E_j| over all pairs i != j of each row."""
    pairs = np.abs(values[:, :, None] - values[:, None, :])
    pairs[:, np.eye(values.shape[-1], dtype=bool)] = np.inf
    return pairs.min(axis=(1, 2))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16, 64])
def test_ep_scan_gap_of_neighbours_is_the_all_pairs_gap(n):
    # the driven levels come back real and non-increasing, so the gap of
    # neighbours that ep_scan takes is the all-pairs minimum to the bit
    _, values, failures = metric._well_levels(n, LEVEL_ORDER_GRID)
    assert failures == {}
    assert (values.imag == 0).all()
    assert (np.diff(values.real, axis=-1) <= 0).all()
    gaps = ep_scan(n, LEVEL_ORDER_GRID)[:, 1]
    assert _gap_bits(gaps) == _gap_bits(_all_pairs_gaps(values))


@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_ep_scan_gap_is_nan_where_the_angle_solve_fails(monkeypatch, n):
    # with no Newton step only the two-site well at r = 0, whose one start
    # u = 0 is its root, converges
    monkeypatch.setattr(metric, "_ANGLE_STEPS", 0)
    _, values, failures = metric._well_levels(n, LEVEL_ORDER_GRID)
    failed = np.isin(np.arange(len(LEVEL_ORDER_GRID)), [*failures])
    assert failed.tolist() == ((LEVEL_ORDER_GRID != 0) | (n > 2)).tolist()
    assert np.isnan(values[failed]).all() and not np.isnan(values[~failed]).any()
    gaps = ep_scan(n, LEVEL_ORDER_GRID)[:, 1]
    assert np.isnan(gaps[failed]).all()
    assert _gap_bits(gaps) == _gap_bits(_all_pairs_gaps(values))


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


@pytest.mark.parametrize(("call", "refusal"), [
    (lambda: z_from_r(np.nan), OutOfRange),
    (lambda: ep_scan(4, [np.nan]), OutOfRange),
    (lambda: spectral_curve(3, np.nan), ValueError),
    (lambda: spectral_curve(3, np.inf), ValueError),
    (lambda: chebyshev_eigvec(3, 0.5j, np.nan), OutOfRange),
    (lambda: secular_value(3, 1j, np.nan), OutOfRange),
    (lambda: secular_value(3, 1j, np.inf), OutOfRange),
    (lambda: secular_value(3, np.nan, 1.0), OutOfRange),
    (lambda: secular_value(3, complex(0.0, np.inf), 1.0), OutOfRange),
    (lambda: chebyshev_eigvec(3, np.inf, 1.0), OutOfRange),
], ids=["z_from_r", "ep_scan", "curve_nan", "curve_inf", "chebyshev_eigvec",
        "secular_nan_energy", "secular_inf_energy", "secular_nan_corner", "secular_inf_corner",
        "chebyshev_eigvec_inf_corner"])
def test_nan_fails_each_domain_check(call, refusal):
    # each check holds only where its comparison is true, so NaN, which
    # compares false, is refused rather than carried into the arithmetic;
    # so is inf in the secular route
    with pytest.raises(refusal):
        call()
