"""Well-matrix construction, boundary parametrizations, drive profiles."""

import mpmath
import numpy as np
import pytest

from nipsqw.errors import DegenerateBoundary, OutOfRange
from nipsqw.hamiltonian import (
    PhiProfile,
    RobinParams,
    build_h,
    build_h_at_time,
    robin_to_z,
    z_from_phi,
    z_from_r,
)
from nipsqw.matrix_core import adjoint, eig_general, spectral_norm


# ----------------------------------------------------------- boundary maps


def test_robin_dirichlet_like_limit():
    assert robin_to_z(RobinParams(0.0, 0.0, 0.1)) == 1.0


def test_robin_complex_value():
    assert robin_to_z(RobinParams(1.0, 0.0, 1.0)) == pytest.approx(0.5 + 0.5j)


def test_robin_degenerate_denominator():
    with pytest.raises(DegenerateBoundary):
        robin_to_z(RobinParams(0.0, 1.0, 1.0))


def test_robin_requires_positive_spacing():
    with pytest.raises(OutOfRange):
        RobinParams(0.0, 0.0, -0.1)


@pytest.mark.parametrize("params", [(np.nan, 0.0, 0.1), (1.0, 1.0, np.inf),
                                    (0.0, np.inf, 0.1), (-np.inf, 0.0, 0.1)],
                         ids=["nan-alpha", "inf-spacing", "inf-beta", "minus-inf-alpha"])
def test_robin_refuses_non_finite_parameters(params):
    # robin_to_z would read these as a corner of nan+nanj or -0-0j
    with pytest.raises(OutOfRange, match="must be finite"):
        RobinParams(*params)


@pytest.mark.parametrize("params", [(1e200, 1e200, 1e200), (1e160, 1e160, 1e160),
                                    (0.0, 1e200, 1e200)],
                         ids=["both-1e200", "both-1e160", "beta-1e200"])
def test_robin_refuses_a_corner_that_overflows(params):
    # finite data whose products overflow would read as nan+nanj or -0-0j
    with pytest.raises(OutOfRange, match="is not finite"):
        robin_to_z(RobinParams(*params))


def test_robin_is_locally_lipschitz():
    delta = 1e-3
    for h in (0.1, 1.0):
        for alpha in np.linspace(-2, 2, 9):
            for beta in np.linspace(-2, 2, 9):
                w = 1.0 - beta * h - 1j * alpha * h
                if abs(w) < 0.2:
                    continue
                z0 = robin_to_z(RobinParams(alpha, beta, h))
                z1 = robin_to_z(RobinParams(alpha + delta, beta, h))
                # |dz/dalpha| = h/|w|^2, so 2*h/|w|^2 bounds the secant
                assert abs(z1 - z0) <= 2.0 * h / abs(w) ** 2 * delta


def test_z_from_r_endpoints_and_interior():
    assert z_from_r(1.0) == 0.0
    assert z_from_r(0.0) == 1j
    assert z_from_r(0.6) == pytest.approx(0.8j)


def test_z_from_r_domain():
    with pytest.raises(OutOfRange):
        z_from_r(1.2)


@pytest.mark.parametrize("r", [0.0, 0.5, -0.5, *(sign * (1 - 10.0**-k)
                                                 for k in range(1, 16) for sign in (1, -1))])
def test_z_from_r_is_within_an_ulp_near_the_band_edge(r):
    # sqrt(1 - r^2) cancels as |r| -> 1, by up to 1.65e6 ulp at 1 - 1e-9;
    # (1 - |r|)(1 + |r|) is exact to a rounding or two, so the root is
    # within an ulp of the 50-digit one
    with mpmath.workdps(50):
        root = mpmath.sqrt(1 - mpmath.mpf(r) ** 2)
    z = z_from_r(r)
    assert z.real == 0.0
    assert abs(mpmath.mpf(z.imag) - root) <= np.spacing(float(root)), r


def test_z_from_r_maps_arrays_and_refuses_the_first_bad_coupling():
    r = np.array([[0.6, -1.0], [0.0, 1e-8]])
    z = z_from_r(r)
    assert isinstance(z, np.ndarray) and z.shape == r.shape
    np.testing.assert_array_equal(z, [[z_from_r(0.6), 0.0], [1j, z_from_r(1e-8)]])
    assert type(z_from_r(0.6)) is complex and type(z_from_r(np.float64(0.6))) is complex
    for bad, named in (([0.5, np.nan, 2.0], "nan"), ([0.5, -1.5, np.nan], "-1.5"),
                       (np.nan, "nan"), ([[0.0], [np.inf]], "inf")):
        with pytest.raises(OutOfRange, match=f"got {named}$"):
            z_from_r(bad)


def test_z_from_phi_matches_unsigned_map_on_first_quadrant():
    for phi in np.linspace(0.0, np.pi / 2, 25):
        assert z_from_phi(phi) == pytest.approx(z_from_r(np.sin(phi)), abs=1e-15)


def test_z_from_phi_keeps_sign_of_cosine():
    assert z_from_phi(2.0).imag < 0 < z_from_phi(1.0).imag


# ------------------------------------------------------------ construction


def test_build_h_two_site_display():
    expected = np.array([[2.0 - 0.8j, -1.0], [-1.0, 2.0 + 0.8j]])
    np.testing.assert_array_equal(build_h(2, z_from_r(0.6)), expected)


def test_build_h_dirichlet_spectrum():
    w = eig_general(build_h(3, 0.0)).eigenvalues
    np.testing.assert_allclose(w, [2 - np.sqrt(2), 2.0, 2 + np.sqrt(2)], atol=1e-12)


def test_build_h_real_boundary():
    h = build_h(2, 1.0)
    np.testing.assert_array_equal(h, [[1.0, -1.0], [-1.0, 1.0]])
    np.testing.assert_allclose(eig_general(h).eigenvalues, [0.0, 2.0], atol=1e-14)


def test_build_h_needs_two_sites():
    with pytest.raises(OutOfRange):
        build_h(1, 0.5j)


def test_build_h_hermitian_iff_real_boundary():
    rng = np.random.default_rng(5)
    for n in (2, 4, 7):
        for _ in range(4):
            z = complex(rng.uniform(-1, 3), rng.uniform(-2, 2))
            h = build_h(n, z)
            gap = spectral_norm(h - adjoint(h))
            assert gap == pytest.approx(2.0 * abs(z.imag), rel=1e-14, abs=1e-15)
        assert spectral_norm(build_h(n, 0.7) - adjoint(build_h(n, 0.7))) == 0.0


def test_build_h_at_time_hermitian_at_quarter_turn():
    h = build_h_at_time(2, PhiProfile.constant(np.pi / 2), t=3.7)
    np.testing.assert_allclose(h, [[2.0, -1.0], [-1.0, 2.0]], atol=1e-16)


def test_build_h_at_time_starts_at_coalescence():
    h = build_h_at_time(2, PhiProfile.linear(0.0, 1.0), t=0.0)
    np.testing.assert_array_equal(h, build_h(2, 1j))


def test_build_h_at_time_half_coupling():
    h = build_h_at_time(2, PhiProfile.constant(np.pi / 6), t=0.0)
    np.testing.assert_allclose(h, build_h(2, z_from_r(0.5)), atol=1e-15)


def test_build_h_at_time_equals_direct_composition():
    profile = PhiProfile.sinusoidal(1.0, 0.4, 2.0)
    for t in np.linspace(0.0, 3.0, 7):
        phi, _ = profile(t)
        np.testing.assert_array_equal(
            build_h_at_time(5, profile, t), build_h(5, z_from_phi(phi))
        )


# ------------------------------------------------------------- PT symmetry


def test_pt_residual_well_matrix():
    h = build_h(6, 0.3 + 0.4j)
    assert (h == h.conj()[::-1, ::-1]).all()


def test_pt_residual_random_boundaries():
    rng = np.random.default_rng(13)
    for n in range(2, 9):
        for _ in range(6):
            z = complex(rng.uniform(-1, 3), rng.uniform(-2, 2))
            h = build_h(n, z)
            assert (h == h.conj()[::-1, ::-1]).all()


# ---------------------------------------------------------------- profiles


def test_profile_constant():
    phi, dot = PhiProfile.constant(0.7)(12.0)
    assert (phi, dot) == (0.7, 0.0)


def test_profile_linear():
    phi, dot = PhiProfile.linear(1.0, 0.1)(5.0)
    assert phi == pytest.approx(1.5)
    assert dot == 0.1


def test_profile_sinusoidal():
    p = PhiProfile.sinusoidal(1.0, 0.3, 2.0)
    phi, dot = p(0.25)
    assert phi == pytest.approx(1.0 + 0.3 * np.sin(0.5))
    assert dot == pytest.approx(0.6 * np.cos(0.5))


def test_profile_vectorized_call():
    t = np.linspace(0.0, 2.0, 11)
    phi, dot = PhiProfile.linear(0.5, 2.0)(t)
    np.testing.assert_allclose(phi, 0.5 + 2.0 * t)
    np.testing.assert_allclose(dot, np.full_like(t, 2.0))


def test_profile_tabulated_derivative_tracks_analytic():
    t = np.linspace(0.0, 4.0, 401)
    p = PhiProfile.tabulated(t, 1.0 + 0.3 * np.sin(2.0 * t))
    for tq in (0.5, 1.7, 3.2):
        phi, dot = p(tq)
        assert phi == pytest.approx(1.0 + 0.3 * np.sin(2.0 * tq), abs=1e-7)
        assert dot == pytest.approx(0.6 * np.cos(2.0 * tq), abs=1e-5)


@pytest.mark.parametrize("seed", range(6))
def test_profile_tabulated_matches_scipys_not_a_knot_spline(seed):
    # the numpy spline is CubicSpline's default one: values and slopes agree
    # to rounding on random, unevenly spaced tables of 4-400 knots, at the
    # knots and between them, and past the span both are refused
    cubic_spline = pytest.importorskip("scipy.interpolate").CubicSpline
    rng = np.random.default_rng(seed)
    for knots in rng.integers(4, 401, size=10).tolist() + [4, 5]:
        t = rng.uniform(-3.0, 3.0) + np.cumsum(rng.uniform(0.1, 1.0, knots)) * rng.uniform(0.01, 100)
        phis = rng.uniform(-1.0, 1.0) + rng.standard_normal(knots).cumsum() * rng.uniform(0.01, 3)
        profile, reference = PhiProfile.tabulated(t, phis), cubic_spline(t, phis)
        grid = np.concatenate([t, rng.uniform(t[0], t[-1], 200)])
        for got, want in zip(profile(grid), (reference(grid), reference(grid, 1))):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (seed, knots)
        with pytest.raises(OutOfRange, match="outside the table"):
            profile(t[-1] + (t[-1] - t[0]) * 1e-6)


def test_profile_tabulated_rejects_unsorted():
    with pytest.raises(ValueError):
        PhiProfile.tabulated([0.0, 1.0, 0.5, 2.0], [1.0, 1.1, 1.2, 1.3])


EXTRAPOLATING_TABLE = ([0.0, 1.0, 2.0, 3.0], [1.0, 1.05, 1.1, 1.15])


@pytest.mark.parametrize(
    "t", [30.0, 3.0 + 1e-6, -1e-6, -2.0, [1.0, 3.5], [-0.5, 2.0], [[0.0], [30.0]]]
)
def test_profile_tabulated_refuses_to_extrapolate(t):
    # the spline's end polynomial would answer p(30) = (2.5, 0.05)
    p = PhiProfile.tabulated(*EXTRAPOLATING_TABLE)
    with pytest.raises(OutOfRange, match="outside the table"):
        p(t)


def test_profile_tabulated_admits_the_end_rounding_slack():
    p = PhiProfile.tabulated(*EXTRAPOLATING_TABLE)
    inside = np.array([-2e-9, 0.0, 1.5, 3.0, 3.0 + 2e-9])  # slack is 3e-9
    phi, dot = p(inside)
    np.testing.assert_allclose(phi, 1.0 + 0.05 * inside, rtol=1e-12)
    np.testing.assert_allclose(dot, 0.05, rtol=1e-12)
    assert p(3.0 + 2e-9) == (pytest.approx(1.15 + 1e-10, rel=1e-12), pytest.approx(0.05))


def test_profile_grammar_roundtrip():
    assert PhiProfile.from_spec("constant:phi=1.2")(0.0) == (1.2, 0.0)
    phi, dot = PhiProfile.from_spec("linear:phi0=1.0,omega=0.1")(2.0)
    assert (phi, dot) == (pytest.approx(1.2), 0.1)
    p = PhiProfile.from_spec("sin:phi0=1.0,amp=0.3,freq=2.0")
    assert p(0.0) == (pytest.approx(1.0), pytest.approx(0.6))


def test_profile_grammar_table(tmp_path):
    t = np.linspace(0.0, 1.0, 30)
    path = tmp_path / "drive.csv"
    np.savetxt(path, np.column_stack([t, 0.9 + 0.2 * t]), delimiter=",")
    p = PhiProfile.from_spec(f"table:{path}")
    phi, dot = p(0.5)
    assert phi == pytest.approx(1.0, abs=1e-9)
    assert dot == pytest.approx(0.2, abs=1e-6)


def test_profile_grammar_table_needs_two_columns(tmp_path):
    path = tmp_path / "three.csv"
    np.savetxt(path, np.column_stack([np.arange(4.0)] * 3), delimiter=",")
    with pytest.raises(ValueError, match="expected two columns t,phi"):
        PhiProfile.from_spec(f"table:{path}")


def test_profile_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown profile kind 'bogus'"):
        PhiProfile("bogus", {})


@pytest.mark.parametrize(
    "kind, params, spline, reason",
    [
        ("linear", {"phi0": 1.0}, None, "'linear' takes exactly phi0, omega, got phi0"),
        ("constant", {"phi": 1.0, "extra": 2.0}, None, "takes exactly phi, got phi, extra"),
        ("sinusoidal", {}, None, "takes exactly phi0, amp, freq, got nothing"),
        ("tabulated", {"t_min": 0.0, "t_max": 1.0}, None, "only it, takes a spline"),
        ("constant", {"phi": 1.0}, "spline", "only it, takes a spline"),
    ],
)
def test_profile_refuses_what_it_cannot_evaluate(kind, params, spline, reason):
    # each would otherwise be built and fail only when called, or show an
    # extra key in its repr
    with pytest.raises(ValueError, match=reason):
        PhiProfile(kind, params, spline)


def test_profile_keeps_its_law_order():
    profile = PhiProfile("linear", {"omega": 0.5, "phi0": 1.0})
    assert list(profile.params) == ["phi0", "omega"]
    assert repr(profile) == "PhiProfile.linear(phi0=1, omega=0.5)"


@pytest.mark.parametrize(
    "bad",
    [
        "constant",
        "square:phi=1",
        "constant:phi=1,extra=2",
        "linear:phi0=1.0",
        "linear:phi0=1.0,omega=0.1,omega=0.2",
        "sin:phi0=1,amp=0.3",
        "linear:phi0=1.0,omega",
    ],
)
def test_profile_grammar_rejects(bad):
    with pytest.raises(ValueError):
        PhiProfile.from_spec(bad)

