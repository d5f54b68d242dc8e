"""Metric family, Dyson factorizations, and observable eligibility."""

import warnings

import mpmath
import numpy as np
import pytest

from nipsqw import matrix_core, metric
from nipsqw.config import get_tolerances
from nipsqw.errors import (
    BadWeights,
    DefectiveAtEP,
    NoConvergence,
    OutOfRange,
    SingularDyson,
)
from nipsqw.hamiltonian import RobinParams, build_h, robin_to_z, z_from_phi, z_from_r
from nipsqw.matrix_core import (
    _RESIDUAL_CAP, adjoint, eig_general, spectral_norm, sqrt_hpd,
)
from nipsqw.metric import (
    KetketBasis,
    _dyson_stack,
    _well_angles,
    build_metric,
    dyson_from_ketkets,
    ketkets,
    quasi_hermiticity_residual,
)


def corner_matrix(phi):
    return build_h(2, z_from_phi(phi))


def map_matrix(phi):
    """Closed-form two-site Dyson map (rows = ketkets)."""
    return np.array(
        [
            [1.0, -1j * np.exp(-1j * phi)],
            [1j * np.exp(-1j * phi), 1.0],
        ]
    )


def metric_matrix(phi):
    """Closed-form two-site metric for unit weights."""
    c = np.cos(phi)
    return np.array([[2.0, -2j * c], [2j * c, 2.0]])


# ---------------------------------------------------------------- ketkets


def test_ketkets_two_site_columns():
    phi = np.pi / 3
    basis = ketkets(corner_matrix(phi))
    s = np.sin(phi)
    np.testing.assert_allclose(
        basis.eigenvalues, [2.0 + s, 2.0 - s], atol=1e-12
    )
    expected = np.array(
        [
            [1.0, -1j * np.exp(1j * phi)],
            [1j * np.exp(1j * phi), 1.0],
        ]
    )
    np.testing.assert_allclose(basis.vectors, expected, atol=1e-12)


def test_ketkets_adjoint_eigen_residual():
    for n, z in [(2, 0.8j), (4, 0.5j), (6, 0.6j), (5, 0.3 + 0.4j)]:
        h = build_h(n, z)
        basis = ketkets(h)
        h_dag = adjoint(h)
        for j in range(n):
            xi = basis.vectors[:, j]
            defect = np.linalg.norm(h_dag @ xi - basis.eigenvalues[j] * xi)
            assert defect <= 1e-10 * spectral_norm(h) * np.linalg.norm(xi)


def test_ketkets_biorthogonal_to_eigenvectors():
    h = build_h(6, 0.8j)
    basis = ketkets(h)
    right = eig_general(h)
    xi = basis.vectors / np.linalg.norm(basis.vectors, axis=0, keepdims=True)
    psi = right.right_vectors
    overlaps = adjoint(xi) @ psi
    # ketkets run descending while the spectrum runs ascending, so the
    # conjugate pairs sit on the anti-diagonal
    paired = overlaps[::-1, :]
    off = paired - np.diag(np.diag(paired))
    assert np.abs(off).max() <= 1e-9


def test_ketkets_hermitian_limit_is_unitary():
    basis = ketkets(corner_matrix(np.pi / 2))
    unit = basis.vectors / np.linalg.norm(basis.vectors, axis=0, keepdims=True)
    np.testing.assert_allclose(adjoint(unit) @ unit, np.eye(2), atol=1e-12)


def test_ketkets_defective_at_coalescence():
    with pytest.raises(DefectiveAtEP):
        ketkets(build_h(2, z_from_r(0.0)))
    with pytest.raises(DefectiveAtEP):
        ketkets(build_h(6, z_from_r(0.0)))


def test_gauged_bases_take_a_failed_solve_then_the_condition_then_the_pivot():
    # two-site columns: (1, i)/sqrt(2) has c-product 0, so its matrix is
    # singular, and (1, 0) in column 1, whose pivot is row 1, has a vanished
    # pivot; matrix 0 also failed its solve, matrix 3 is clean
    null, vanished = np.array([1.0, 1j]) / np.sqrt(2.0), np.array([1.0, 0.0])
    both = np.column_stack([null, vanished])
    unit = np.array([both, both, np.eye(2)[::-1], np.eye(2)], dtype=complex)
    values = np.zeros((4, 2), dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, errors = metric._gauged_bases(values, unit, {0: NoConvergence("no way")})
    assert sorted(errors) == [0, 1, 2]
    assert type(errors[0]) is DefectiveAtEP
    assert str(errors[0]) == "adjoint eigenproblem did not converge: no way"
    assert type(errors[1]) is DefectiveAtEP
    assert str(errors[1]) == "eigenvector matrix is numerically singular"
    assert type(errors[2]) is OutOfRange
    assert str(errors[2]) == "end entry of level 0 rounds to zero"


def test_gauge_refusals_hold_a_half_to_the_whole_bound():
    # a four-row half of two columns: the bound is N / min s_j with N = 4 read
    # from the rows, so s_j = 3e-15 reaches COND_CEILING (4 / 3e-15 > 1e15)
    # where the column count 2 would not; both pivots are on row 0
    angle = np.arccos(3e-15) / 2  # cos^2 - sin^2 = 3e-15
    near = np.array([np.cos(angle), 1j * np.sin(angle), 0.0, 0.0])
    unit = np.column_stack([near, np.eye(4)[0]])[None].astype(complex)
    pivots, errors = metric._gauge_refusals(unit, {})
    assert pivots.tolist() == [[np.cos(angle), 1.0]]
    assert str(errors[0]) == "eigenvector matrix is numerically singular"


@pytest.mark.parametrize("n, z", [(64, 1e4), (8, 1e6), (8, 1e20j)])
def test_ketkets_refuses_an_end_entry_that_rounds_to_zero(n, z):
    # far outside the unit circle a level localized at one corner has its
    # far end entry round to zero, so its column cannot be gauged there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange, match=r"end entry of level \d+ rounds to zero"):
            ketkets(build_h(n, z))


def test_ketkets_outside_the_unit_circle_gives_finite_columns_or_refuses():
    # seeded corners with |z| in [1, 1e4] at N = 8-64: each well is gauged
    # with finite columns or refused, never returned with a zero pivot
    rng = np.random.default_rng(40)
    refused = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(60):
            n = int(rng.integers(8, 65))
            z = 10 ** rng.uniform(0, 4) * np.exp(2j * np.pi * rng.random())
            try:
                assert np.isfinite(ketkets(build_h(n, z)).vectors).all()
            except OutOfRange:
                refused += 1
    assert 0 < refused < 60


def test_ketkets_refuses_inputs_outside_the_well_domain():
    # the end-row gauge and the c-product refusal hold only for a complex
    # symmetric tridiagonal H with nonzero off-diagonals: a diagonal H has
    # eigenvectors with zero end entries, and [[0, 1], [-1, 0]] has v^T v = 0
    cut = build_h(4, 0.5j)
    cut[1, 2] = cut[2, 1] = 0.0
    unequal = np.diag(np.full(4, 2.0)) - np.diag(np.ones(3), -1) - 0.5 * np.diag(np.ones(3), 1)
    for h in (np.diag([1.0, 2.0, 3.0]), [[0.0, 1.0], [-1.0, 0.0]], unequal, cut):
        with pytest.raises(ValueError, match="complex symmetric tridiagonal"):
            ketkets(h)
    robin = robin_to_z(RobinParams(1.0, 0.5, 0.2))
    for h in (build_h(4, 0.5j), build_h(5, robin)):
        basis = ketkets(h)
        defect = adjoint(h) @ basis.vectors - basis.vectors * basis.eigenvalues
        assert np.abs(defect).max() <= 1e-12 * np.abs(basis.vectors).max()


def _overlap_pairing(before, after):
    """For each column of ``before``, the column of ``after`` it overlaps most."""
    a = before / np.linalg.norm(before, axis=0, keepdims=True)
    b = after / np.linalg.norm(after, axis=0, keepdims=True)
    return np.argmax(np.abs(adjoint(a) @ b), axis=1)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 64])
def test_ketkets_order_is_continuous_down_to_the_margin(n):
    # descending order must pair each level with itself between
    # neighbouring angles, even where the spectrum nearly coalesces
    margin = np.arcsin(get_tolerances().ep_margin)
    near = np.geomspace(margin, 0.5, 40)
    for phis in (near, np.pi - near):
        bases = [ketkets(build_h(n, z_from_phi(phi))) for phi in phis]
        for before, after in zip(bases, bases[1:]):
            pairing = _overlap_pairing(before.vectors, after.vectors)
            np.testing.assert_array_equal(pairing, np.arange(n))
        values = np.array([basis.eigenvalues for basis in bases])
        smallest_gap = np.min(-np.diff(values.real, axis=1))
        assert smallest_gap > 1e3 * np.max(np.abs(values.imag)), n


# ------------------------------------------------------------ build_metric


def test_metric_reproduces_closed_form():
    basis = ketkets(corner_matrix(np.pi / 3))
    theta = build_metric(basis, [1.0, 1.0])
    np.testing.assert_allclose(theta, metric_matrix(np.pi / 3), atol=1e-12)


def test_metric_closed_form_on_grid():
    for phi in np.linspace(0.1, np.pi - 0.1, 21):
        theta = build_metric(ketkets(corner_matrix(phi)), [1.0, 1.0])
        np.testing.assert_allclose(theta, metric_matrix(phi), atol=1e-10)


def test_metric_orthonormal_completeness():
    # a manually assembled orthonormal basis sums to the identity
    basis = KetketBasis(
        eigenvalues=np.array([3.0, 1.0]),
        vectors=np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0),
    )
    np.testing.assert_allclose(
        build_metric(basis, [1.0, 1.0]), np.eye(2), atol=1e-14
    )


def test_metric_weight_linearity():
    basis = ketkets(corner_matrix(np.pi / 3))
    np.testing.assert_allclose(
        build_metric(basis, [2.0, 2.0]), 2.0 * metric_matrix(np.pi / 3), atol=1e-12
    )
    rng = np.random.default_rng(11)
    kappa = rng.uniform(0.5, 2.0, size=2)
    theta = build_metric(basis, kappa)
    scaled = build_metric(basis, 3.0 * kappa)
    np.testing.assert_allclose(scaled, 3.0 * theta, atol=1e-14)


def test_metric_positivity_eigenvalues():
    for phi in [0.3, 1.0, np.pi / 3]:
        theta = build_metric(ketkets(corner_matrix(phi)), [1.0, 1.0])
        eigs = np.linalg.eigvalsh(theta)
        c = np.cos(phi)
        np.testing.assert_allclose(
            eigs, [2.0 - 2.0 * c, 2.0 + 2.0 * c], atol=1e-10
        )


def test_metric_rejects_bad_weights():
    basis = ketkets(corner_matrix(np.pi / 3))
    with pytest.raises(BadWeights):
        build_metric(basis, [1.0, 0.0])
    with pytest.raises(BadWeights):
        build_metric(basis, [1.0, -2.0])
    with pytest.raises(BadWeights):
        build_metric(basis, [1.0, 1.0, 1.0])


# ---------------------------------------------- quasi-Hermiticity residual


def test_qh_residual_vanishes_for_matched_pair():
    h = corner_matrix(np.pi / 3)
    theta = build_metric(ketkets(h), [1.0, 1.0])
    assert quasi_hermiticity_residual(h, theta) <= 1e-12


def test_qh_residual_hermitian_with_identity():
    h = np.array([[2.0, -1.0], [-1.0, 2.0]])
    assert quasi_hermiticity_residual(h, np.eye(2)) <= 1e-15


def test_qh_residual_flags_wrong_metric():
    assert quasi_hermiticity_residual(corner_matrix(np.pi / 3), np.eye(2)) > 1e-2


# ------------------------------------------------- observable eligibility


def test_observable_check_hamiltonian_is_eligible():
    h = corner_matrix(np.pi / 3)
    theta = build_metric(ketkets(h), [1.0, 1.0])
    assert quasi_hermiticity_residual(h, theta) <= 1e-12


def test_observable_check_identity_commutes():
    assert quasi_hermiticity_residual(np.eye(2), metric_matrix(np.pi / 3)) == 0.0


def test_observable_check_rejects_bare_position_weights():
    value = quasi_hermiticity_residual(np.diag([1.0, 2.0]), metric_matrix(np.pi / 3))
    assert value > 1e-3
    # ||difference|| = 1 against ||diag|| = 2 and ||theta|| = 3
    assert value == pytest.approx(1.0 / 6.0, abs=1e-12)


# -------------------------------------------------------- Dyson map: ketkets


def test_dyson_two_site_closed_form():
    phi = np.pi / 3
    bundle = dyson_from_ketkets(ketkets(corner_matrix(phi)))
    np.testing.assert_allclose(bundle.omega, map_matrix(phi), atol=1e-12)
    np.testing.assert_allclose(bundle.theta, metric_matrix(phi), atol=1e-12)
    s = np.sin(phi)
    np.testing.assert_allclose(
        bundle.h_diag, np.diag([2.0 + s, 2.0 - s]), atol=1e-12
    )


def test_dyson_right_angle_gives_scaled_unitary():
    bundle = dyson_from_ketkets(ketkets(corner_matrix(np.pi / 2)))
    np.testing.assert_allclose(bundle.theta, 2.0 * np.eye(2), atol=1e-12)
    scaled = bundle.omega / np.sqrt(2.0)
    np.testing.assert_allclose(adjoint(scaled) @ scaled, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("n", [20, 24, 32])
def test_dyson_map_builds_at_many_sites(n):
    # well-conditioned maps whose determinant relative to the norm is
    # far below eps_singular: the refusal goes by condition, not size
    for phi in (0.6, 1.0, 1.2, 2.3):
        bundle = dyson_from_ketkets(ketkets(build_h(n, z_from_phi(phi))))
        assert np.linalg.cond(bundle.omega) < 1e2, (n, phi)
        np.testing.assert_allclose(
            bundle.omega @ bundle.omega_inv, np.eye(n), atol=1e-12
        )


def test_dyson_singular_near_coalescence():
    # closed-form ketkets a hair away from the defective point: the
    # eigenproblem still solves but the Dyson map loses its inverse
    phi = 1e-13
    vectors = np.array(
        [
            [1.0, -1j * np.exp(1j * phi)],
            [1j * np.exp(1j * phi), 1.0],
        ]
    )
    basis = KetketBasis(
        eigenvalues=np.array([2.0 + np.sin(phi), 2.0 - np.sin(phi)]),
        vectors=vectors,
    )
    with pytest.raises(SingularDyson):
        dyson_from_ketkets(basis)


@pytest.mark.parametrize("n", [3, 4, 7, 8, 16, 24, 33, 64])
def test_c_product_inverse_matches_svd_and_solve(n):
    # the well's H is complex symmetric, so conj(V) diag(1/conj(c)) inverts
    # Omega = V^dagger without a factorization, up to rounding
    for phi in np.linspace(0.02, np.pi - 0.02, 7):
        bundle = dyson_from_ketkets(ketkets(build_h(n, z_from_phi(phi))))
        reference = np.linalg.inv(bundle.omega)
        gap = np.abs(bundle.omega_inv - reference).max() / np.abs(reference).max()
        assert gap <= 1e-12, (n, phi, gap)


@pytest.mark.parametrize("n", [3, 8])
def test_per_level_condition_matches_high_precision(n):
    # |c_j| / |v_j|^2 is the reciprocal eigenvalue condition s_j, which
    # 50-digit left and right eigenvectors of the same double matrix give
    # as |y_j^H x_j| / (|y_j| |x_j|)
    h = build_h(n, z_from_phi(np.arcsin(0.02)))
    vectors = ketkets(h).vectors
    _, _, _, cprods, _ = _dyson_stack(vectors[None], get_tolerances())
    got = (np.abs(cprods[0]) / (np.abs(vectors) ** 2).sum(axis=0)).min()
    with mpmath.workdps(50):
        _, left, right = mpmath.eig(mpmath.matrix(h.conj().T.tolist()), left=True, right=True)
        want = min(
            abs((left[j, :] * right[:, j])[0])
            / (mpmath.norm(left[j, :]) * mpmath.norm(right[:, j]))
            for j in range(n)
        )
    assert got == pytest.approx(float(want), rel=1e-12)


#: couplings of the angle-solve tests: zero, the smallest scales, and
#: log-spaced magnitudes of either sign up to the Hermitian end |r| = 1
ANGLE_COUPLINGS = np.concatenate(
    [[0.0, 1e-300, -1e-300], np.logspace(-12, 0, 25), -np.logspace(-12, 0, 25)]
)


def _brackets(n):
    j = n / 2 - np.arange(1, n // 2 + 1)
    return j, j * np.pi / n, (j + 1) * np.pi / n


@pytest.mark.parametrize("n", range(2, 65))
def test_angle_solve_converges_inside_every_bracket(n):
    # g is increasing and concave on each bracket, so plain Newton with no
    # safeguard converges there from every start the solve makes
    angles, converged = _well_angles(n, ANGLE_COUPLINGS)
    _, lo, hi = _brackets(n)
    assert converged.all()
    assert ((lo <= angles) & (angles <= hi)).all()


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 24, 63, 64])
def test_angle_solve_matches_high_precision_roots(n):
    # each angle is within the freeze rule's 4 eps u, plus 2 ulp of rounding,
    # of the 50-digit root of g(u) = N u - j pi - atan2(kappa cos u, sin u)
    # at the solve's own kappa: a root stops before a step that small
    r = np.array([0.0, 1e-300, 1e-12, 1e-5, -0.3, 0.7, 0.99, 1.0])
    angles, _ = _well_angles(n, r)
    j_values, _, _ = _brackets(n)
    with mpmath.workdps(50):
        for row, k in zip(angles, (r * r / (2.0 - r * r)).tolist()):
            for u, j in zip(row.tolist(), j_values.tolist()):
                lo, hi = j * mpmath.pi / n, (j + 1) * mpmath.pi / n
                if k == 0.0:  # the root is the bracket's left end
                    root = lo
                else:  # g is monotonic, so the one root in the bracket
                    root = mpmath.findroot(
                        lambda x: n * x - j * mpmath.pi - mpmath.atan2(k * mpmath.cos(x), mpmath.sin(x)),
                        mpmath.mpf(u))
                assert lo <= root <= hi
                bound = 4 * np.finfo(float).eps * float(root) + 2 * np.spacing(float(root))
                assert abs(u - float(root)) <= bound, (n, k, j, u, root)


@pytest.mark.parametrize("n", [2, 3, 8, 64])
@pytest.mark.parametrize("bend", [0.0, 1e-7])
def test_three_diagonal_defect_refuses_as_the_dense_product(monkeypatch, n, bend):
    # the closed-form route hands the check H itself and forms
    # H^dagger V - V diag(E) from H's three diagonals; with one unit column
    # bent past the residual cap it refuses the well with the type and
    # message that the dense product H^dagger @ V gives, and a clean well is
    # refused by neither; the route checks only the first ceil(N/2) columns
    # (the rest are their exact Q images), so the bent column is the last
    # checked one at every N
    check, dense = metric._residual_refusals, []

    def bent(stack, values, unit, failures, mismatch):
        assert mismatch is metric._well_mismatch
        unit = unit.copy()
        unit[:, 0, (n - 1) // 2] += bend
        # the dense product H^dagger @ V
        dense.append(check(stack.conj().swapaxes(-1, -2), values, unit, failures)[1])
        return check(stack, values, unit, failures, mismatch)

    monkeypatch.setattr(metric, "_residual_refusals", bent)
    r = np.array([0.9, 0.5])
    _, _, errors = metric._well_ketket_stack(build_h(n, 1j * np.sqrt(1.0 - r * r)), r)
    assert len(dense) == 1
    for error, reference in ((errors.get(k), dense[0].get(k)) for k in range(len(r))):
        if not bend:
            assert error is None and reference is None
            continue
        assert isinstance(reference, NoConvergence)
        assert type(error) is DefectiveAtEP
        assert str(error) == f"adjoint eigenproblem did not converge: {reference}"
        assert f"exceeds {_RESIDUAL_CAP:g}" in str(error)


@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_well_mismatch_is_the_dense_one(n):
    # H^dagger V - V diag(E) from H alone, on wells, their adjoints and
    # power-of-two scalings, to rounding
    rng = np.random.default_rng(n)
    wells = build_h(n, [0.3j, -1j, 0.0, 0.7 + 0.2j])
    v = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
    values = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
    for a in (wells, wells.conj().swapaxes(-1, -2), wells * 2.0**-600):
        scale = np.abs(a).max()
        lam, adjoint = values * scale, a.conj().swapaxes(-1, -2)
        np.testing.assert_allclose(metric._well_mismatch(a, lam, v) / scale,
                                   matrix_core._dense_mismatch(adjoint, lam, v) / scale,
                                   rtol=0, atol=1e-13 * n)


@pytest.mark.parametrize("n", [*range(2, 10), 16, 17, 24, 33, 48, 63, 64])
def test_well_columns_mirror_under_q(n):
    # metric._pt_blocks splits the closed-form columns by this layout:
    # column N-1-c is Q times column c, (Qx)_i = (-1)^(N-1-i) x_(N-1-i), and
    # at odd N the middle column is Q's eigenvector of value (-1)^((N-1)/2)
    grid = np.array([1.0, -1.0, 0.5, -0.3, 1e-3, -1e-3, 1e-6, -1e-6, 1e-9, 0.0])
    _, vectors, _ = metric._well_ketket_stack(build_h(n, z_from_r(grid)), grid)
    # to the bit: the second half is built as the Q image of the first
    signs = np.where(np.arange(n) % 2, -1.0, 1.0)[:, None]
    q_vectors = (signs * vectors)[:, ::-1]
    half = n // 2
    assert (q_vectors[..., :half] == vectors[..., ::-1][..., :half]).all()
    if n % 2:
        assert (q_vectors[..., half] == (-1.0) ** half * vectors[..., half]).all()


HALF_GRID = np.array([1.0, -1.0, 0.5, -0.5, 1e-3, -1e-3, 1e-6, -1e-6, 1e-9, -1e-9, 0.0])


@pytest.mark.parametrize("n", [*range(2, 10), 16, 17, 33, 64])
@pytest.mark.parametrize("bend", [0.0, 1e-7])
def test_half_check_refuses_as_the_whole_basis(monkeypatch, n, bend):
    # the closed form checks only its first ceil(N/2) unit columns; the check
    # of all N, the half and its Q image, refuses the same wells with the same
    # type and message, also where every other well has one half column bent
    # past the residual cap, which bends its image in the other half too
    check, seen = metric._residual_refusals, []

    def bent(stack, values, unit, failures, mismatch):
        unit = unit.copy()
        for k in range(1, len(unit), 2):
            unit[k, 0, k % unit.shape[-1]] += bend
        seen.append((unit, failures))
        return check(stack, values, unit, failures, mismatch)

    monkeypatch.setattr(metric, "_residual_refusals", bent)
    h = build_h(n, z_from_r(HALF_GRID))
    _, _, errors = metric._well_ketket_stack(h, HALF_GRID)
    (unit, failures), = seen
    signs = np.where(np.arange(n) % 2, -1.0, 1.0)[:, None]
    whole = np.concatenate([unit, (signs * unit[..., :n // 2])[:, ::-1, ::-1]], axis=-1)
    _, values, _ = metric._well_levels(n, HALF_GRID)
    _, whole_failures = check(h, values, whole, failures, metric._well_mismatch)
    _, _, reference = metric._gauged_bases(values, whole, whole_failures)
    assert sorted(errors) == sorted(reference)
    assert bool(errors) == (bend > 0 or n % 2 == 0)
    for k, error in errors.items():
        assert (type(error), str(error)) == (type(reference[k]), str(reference[k]))


@pytest.mark.parametrize("n", [*range(2, 10), 16, 17, 24, 33, 48, 63, 64])
def test_pt_blocks_are_real_to_rounding(n):
    # the phases that turn each block real leave an imaginary part of a few
    # N eps of the block's largest entry, which ep_scan drops
    _, unit, _, _ = metric._well_half(build_h(n, z_from_r(HALF_GRID)), HALF_GRID)
    for real, imag in metric._pt_blocks(unit):
        size = np.abs(real + 1j * imag).max(axis=(-2, -1))
        assert (np.abs(imag).max(axis=(-2, -1)) <= 4 * n * np.finfo(float).eps * size).all()


def test_dyson_refuses_columns_that_are_not_c_orthogonal():
    # eigenvectors of a tridiagonal matrix with unequal off-diagonals are
    # not c-orthogonal, so the c-product inverse would be silently wrong;
    # ketkets refuses such a matrix, so the basis is built by hand
    a = np.diag(np.full(4, 2.0)) - np.diag(np.ones(3), -1) - 0.5 * np.diag(np.ones(3), 1)
    values, vectors = np.linalg.eig(adjoint(a))
    with pytest.raises(SingularDyson, match="not c-orthogonal"):
        dyson_from_ketkets(KetketBasis(eigenvalues=values, vectors=vectors))


def test_dyson_intertwines_adjoint_action():
    for n in range(2, 7):
        h = build_h(n, z_from_r(0.7))
        bundle = dyson_from_ketkets(ketkets(h))
        omega_dag = adjoint(bundle.omega)
        defect = spectral_norm(adjoint(h) @ omega_dag - omega_dag @ bundle.h_diag)
        assert defect <= 1e-9 * spectral_norm(h)


def test_dyson_diagonalizes_to_h_diag():
    h = build_h(4, z_from_r(0.6))
    bundle = dyson_from_ketkets(ketkets(h))
    transformed = bundle.omega @ h @ np.linalg.inv(bundle.omega)
    np.testing.assert_allclose(transformed, bundle.h_diag, atol=1e-9)


# --------------------------------------------------- factorization agreement


def test_both_factorizations_satisfy_bundle_contract():
    for n, r in [(2, np.sin(np.pi / 3)), (4, 0.6), (6, 0.8)]:
        h = build_h(n, z_from_r(r))
        bundle = dyson_from_ketkets(ketkets(h))
        theta = bundle.theta
        theta_norm = spectral_norm(theta)
        assert spectral_norm(theta - adjoint(theta)) <= 1e-12 * theta_norm
        assert np.all(np.linalg.eigvalsh(theta) > 0)
        assert quasi_hermiticity_residual(h, theta) <= 1e-9
        # the ketket map and the Hermitian root both factorize the one metric
        for omega in (bundle.omega, sqrt_hpd(theta)):
            assert spectral_norm(adjoint(omega) @ omega - theta) <= 1e-10 * theta_norm
            mapped = omega @ h @ np.linalg.inv(omega)
            assert spectral_norm(mapped - adjoint(mapped)) <= 1e-9
