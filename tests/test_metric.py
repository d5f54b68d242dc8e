"""Metric family, Dyson factorizations, and observable eligibility."""

import numpy as np
import pytest

from nipsqw.errors import (
    BadWeights,
    DefectiveAtEP,
    NoConvergence,
    NotPositiveDefinite,
    SingularDyson,
)
from nipsqw.hamiltonian import build_h, z_from_phi, z_from_r
from nipsqw.matrix_core import adjoint, eig_general, eig_hermitian, inverse, spectral_norm
from nipsqw.metric import (
    KetketBasis,
    build_metric,
    dyson_from_ketkets,
    dyson_hermitian,
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


def test_ketkets_takes_a_solved_adjoint_decomposition():
    h = build_h(5, z_from_phi(0.7))
    hint = ketkets(build_h(5, z_from_phi(0.69)))
    solved = ketkets(h, order_hint=hint, adjoint_eig=eig_general(adjoint(h)))
    fresh = ketkets(h, order_hint=hint)
    np.testing.assert_array_equal(solved.eigenvalues, fresh.eigenvalues)
    np.testing.assert_array_equal(solved.vectors, fresh.vectors)
    with pytest.raises(DefectiveAtEP):
        ketkets(h, adjoint_eig=NoConvergence("polish exhausted"))


def test_ketkets_order_hint_overrides_sorting():
    plain = ketkets(corner_matrix(1.0))
    swapped_hint = KetketBasis(
        eigenvalues=plain.eigenvalues[::-1],
        vectors=plain.vectors[:, ::-1],
    )
    hinted = ketkets(corner_matrix(1.001), order_hint=swapped_hint)
    np.testing.assert_allclose(
        hinted.eigenvalues, plain.eigenvalues[::-1], atol=1e-2
    )


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
        eigs = np.real(eig_hermitian(theta).eigenvalues)
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
    assert bundle.omega_kind == "ketket_columns"
    np.testing.assert_allclose(bundle.omega, map_matrix(phi), atol=1e-12)
    np.testing.assert_allclose(bundle.theta, metric_matrix(phi), atol=1e-12)
    np.testing.assert_allclose(bundle.kappa, [1.0, 1.0], atol=0)
    s = np.sin(phi)
    np.testing.assert_allclose(
        bundle.h_diag, np.diag([2.0 + s, 2.0 - s]), atol=1e-12
    )


def test_dyson_right_angle_gives_scaled_unitary():
    bundle = dyson_from_ketkets(ketkets(corner_matrix(np.pi / 2)))
    np.testing.assert_allclose(bundle.theta, 2.0 * np.eye(2), atol=1e-12)
    scaled = bundle.omega / np.sqrt(2.0)
    np.testing.assert_allclose(adjoint(scaled) @ scaled, np.eye(2), atol=1e-12)


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
    transformed = bundle.omega @ h @ inverse(bundle.omega)
    np.testing.assert_allclose(transformed, bundle.h_diag, atol=1e-9)


# ------------------------------------------------- Dyson map: Hermitian root


def test_hermitian_root_scalar_metric():
    bundle = dyson_hermitian(4.0 * np.eye(3))
    assert bundle.omega_kind == "hermitian_root"
    np.testing.assert_allclose(bundle.omega, 2.0 * np.eye(3), atol=1e-14)
    assert bundle.kappa is None and bundle.h_diag is None


def test_hermitian_root_squares_back():
    theta = metric_matrix(np.pi / 3)
    bundle = dyson_hermitian(theta)
    np.testing.assert_allclose(bundle.omega, adjoint(bundle.omega), atol=1e-12)
    np.testing.assert_allclose(bundle.omega @ bundle.omega, theta, atol=1e-10)


def test_hermitian_root_rejects_boundary_metric():
    with pytest.raises(NotPositiveDefinite):
        dyson_hermitian(metric_matrix(np.pi - 1e-9))


# --------------------------------------------------- factorization agreement


def test_both_factorizations_satisfy_bundle_contract():
    for n, r in [(2, np.sin(np.pi / 3)), (4, 0.6), (6, 0.8)]:
        h = build_h(n, z_from_r(r))
        first = dyson_from_ketkets(ketkets(h))
        second = dyson_hermitian(first.theta)
        for bundle in (first, second):
            theta_norm = spectral_norm(bundle.theta)
            assert spectral_norm(bundle.theta - adjoint(bundle.theta)) <= 1e-12 * theta_norm
            assert np.all(bundle.positivity_eigs > 0)
            rebuilt = adjoint(bundle.omega) @ bundle.omega
            assert spectral_norm(rebuilt - bundle.theta) <= 1e-10 * theta_norm
            assert quasi_hermiticity_residual(h, bundle.theta) <= 1e-9
            mapped = bundle.omega @ h @ inverse(bundle.omega)
            assert spectral_norm(mapped - adjoint(mapped)) <= 1e-9
