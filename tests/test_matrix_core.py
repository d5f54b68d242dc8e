"""Core linear-algebra layer: adjoints, inverses, eigensolvers, roots."""

import numpy as np
import pytest
import scipy.linalg

from nipsqw.errors import (
    NoConvergence,
    NotHermitian,
    NotPositiveDefinite,
    OutOfRange,
    SingularMatrix,
)
from nipsqw.matrix_core import (
    EigenDecomposition,
    _decompose_stack,
    _tridiag_lu,
    _tridiag_solve,
    adjoint,
    char_poly,
    eig_general,
    eig_hermitian,
    inverse,
    spectral_norm,
    sqrt_hpd,
)


def corner_matrix(n, z):
    """Tridiagonal well matrix built by hand, independent of the library."""
    h = 2.0 * np.eye(n, dtype=complex)
    h -= np.eye(n, k=1) + np.eye(n, k=-1)
    h[0, 0] = 2.0 - z
    h[-1, -1] = 2.0 - np.conj(z)
    return h


def map_matrix(phi):
    """Closed-form similarity map at two sites."""
    e = np.exp(-1j * phi)
    return np.array([[1.0, -1j * e], [1j * e, 1.0]])


def metric_matrix(phi):
    """Closed-form metric at two sites."""
    c = np.cos(phi)
    return np.array([[2.0, -2j * c], [2j * c, 2.0]])


# ---------------------------------------------------------------- adjoint


def test_adjoint_identity():
    np.testing.assert_array_equal(adjoint(np.eye(2)), np.eye(2))


def test_adjoint_of_well_matrix():
    got = adjoint(corner_matrix(2, 1j))
    expected = np.array([[2.0 + 1j, -1.0], [-1.0, 2.0 - 1j]])
    np.testing.assert_allclose(got, expected, rtol=0, atol=0)


def test_adjoint_is_involutive():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    np.testing.assert_array_equal(adjoint(adjoint(m)), m)


def test_adjoint_reverses_products():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        np.testing.assert_allclose(
            adjoint(a @ b), adjoint(b) @ adjoint(a), atol=1e-14
        )


def test_adjoint_rejects_nonsquare():
    with pytest.raises(ValueError):
        adjoint(np.ones((2, 3)))


def test_rejects_nonfinite_entries():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        adjoint(bad)


# ---------------------------------------------------------------- inverse


def test_inverse_scalar_matrix():
    np.testing.assert_allclose(inverse(2.0 * np.eye(3)), 0.5 * np.eye(3))


def test_inverse_of_similarity_map():
    phi = np.pi / 3
    e = np.exp(-1j * phi)
    expected = np.array([[1.0, 1j * e], [-1j * e, 1.0]]) / (1.0 - e * e)
    np.testing.assert_allclose(inverse(map_matrix(phi)), expected, atol=1e-14)


def test_inverse_flags_degenerate_map():
    with pytest.raises(SingularMatrix):
        inverse(map_matrix(1e-14))


def test_inverse_roundtrip_random():
    rng = np.random.default_rng(3)
    for n in (2, 5, 8):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        np.testing.assert_allclose(m @ inverse(m), np.eye(n), atol=1e-12)


# ------------------------------------------------------------ eig_general


def test_eig_general_two_site_spectrum():
    dec = eig_general(corner_matrix(2, 0.8j))  # boundary strength 0.6
    np.testing.assert_allclose(dec.eigenvalues, [1.4, 2.6], atol=1e-12)
    assert dec.residual <= 1e-10


def test_eig_general_diagonal_input():
    dec = eig_general(np.diag([1.0, 2.0, 3.0]).astype(complex))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-13)
    np.testing.assert_allclose(dec.vector_condition, 1.0, rtol=1e-12)


def test_eig_general_detects_coalescence():
    # z = i makes the two-site matrix defective
    try:
        dec = eig_general(corner_matrix(2, 1j))
    except NoConvergence:
        return
    assert dec.vector_condition > 1e8


def test_eig_general_sorted_ascending():
    rng = np.random.default_rng(19)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    w = eig_general(m).eigenvalues
    keys = list(zip(w.real, w.imag))
    assert keys == sorted(keys)


def test_eig_general_recovers_known_spectrum():
    rng = np.random.default_rng(23)
    for n in (3, 6, 12, 16):
        d = rng.uniform(0.5, 3.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
        v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        v += 3.0 * np.eye(n)  # keep the basis well conditioned
        m = v @ np.diag(d) @ np.linalg.inv(v)
        got = eig_general(m).eigenvalues
        expect = np.sort_complex(d)
        order = np.lexsort((expect.imag, expect.real))
        expect = expect[order]
        np.testing.assert_allclose(got, expect, rtol=1e-9, atol=1e-9)


def test_eig_general_residual_contract_tridiagonal():
    rng = np.random.default_rng(31)
    for n in (4, 9, 16):
        m = np.zeros((n, n), dtype=complex)
        idx = np.arange(n)
        m[idx, idx] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        m[idx[:-1], idx[:-1] + 1] = rng.standard_normal(n - 1)
        m[idx[:-1] + 1, idx[:-1]] = rng.standard_normal(n - 1)
        dec = eig_general(m)
        assert dec.residual <= 1e-10


def test_eig_general_char_poly_cross_check():
    rng = np.random.default_rng(37)
    for n in (3, 5, 8):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        coeffs = char_poly(m)
        scale = spectral_norm(m) ** n
        for lam in eig_general(m).eigenvalues:
            assert abs(np.polyval(coeffs, lam)) <= 1e-8 * scale


def test_eig_general_dimension_guard():
    with pytest.raises(OutOfRange):
        eig_general(np.eye(65, dtype=complex))


def test_eig_general_one_by_one():
    dec = eig_general(np.array([[2.5 + 1j]]))
    np.testing.assert_allclose(dec.eigenvalues, [2.5 + 1j])
    assert dec.residual == 0.0


def test_batched_tridiagonal_lu_matches_banded_lapack():
    # random systems pivot on some rows and not on others
    rng = np.random.default_rng(47)
    n, count = 9, 40
    sub, diag, sup, rhs = (
        rng.standard_normal((rows, count)) + 1j * rng.standard_normal((rows, count))
        for rows in (n - 1, n, n - 1, n)
    )
    factors, singular = _tridiag_lu(sub, diag, sup)
    assert not singular.any()
    got = _tridiag_solve(factors, rhs)
    for s in range(count):
        bands = np.zeros((3, n), dtype=complex)
        bands[0, 1:], bands[1], bands[2, :-1] = sup[:, s], diag[:, s], sub[:, s]
        expected = scipy.linalg.solve_banded((1, 1), bands, rhs[:, s])
        np.testing.assert_allclose(got[:, s], expected, rtol=1e-11, atol=0)


def test_batched_tridiagonal_lu_flags_exactly_singular_systems():
    # columns are systems; the first has two equal rows, [1 1 0] twice
    off = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    diag = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 1.0]], dtype=complex)
    _, singular = _tridiag_lu(off, diag, off)
    assert singular.tolist() == [True, False]


def assert_same_decomposition(got, expected):
    """Bit-for-bit equality of two eig_general outcomes (or of their errors)."""
    if isinstance(expected, NoConvergence):
        assert isinstance(got, NoConvergence) and str(got) == str(expected)
        return
    np.testing.assert_array_equal(got.eigenvalues, expected.eigenvalues)
    np.testing.assert_array_equal(got.right_vectors, expected.right_vectors)
    assert got.vector_condition == expected.vector_condition
    assert got.residual == expected.residual


def single_outcome(matrix):
    try:
        return eig_general(matrix)
    except NoConvergence as exc:
        return exc


def test_stack_with_singular_shifts_matches_single_solves():
    # every shift of the diagonal matrix is exactly singular, so its
    # vectors come from the nudged retry; its neighbours are healthy wells
    wells = [corner_matrix(3, 1j * np.cos(phi)) for phi in (0.4, 1.1, 2.3)]
    stack = np.stack([wells[0], np.diag([1.0, 2.0, 3.0]).astype(complex), *wells[1:]])
    results = _decompose_stack(stack)
    assert len(results) == len(stack)
    for matrix, got in zip(stack, results):
        assert_same_decomposition(got, eig_general(matrix))
    np.testing.assert_allclose(np.abs(results[1].right_vectors), np.eye(3), atol=1e-12)


def test_stack_keeps_a_refused_matrix_from_its_neighbours():
    # the six-site well at r = 0 is defective and fails the residual gate
    stack = np.stack([corner_matrix(6, z) for z in (0.6j, 1j, -0.3j, 1j, 0.9j)])
    results = _decompose_stack(stack)
    assert isinstance(results[1], NoConvergence) and isinstance(results[3], NoConvergence)
    for matrix, got in zip(stack, results):
        assert_same_decomposition(got, single_outcome(matrix))


def test_stack_dense_refusal_stays_with_its_matrix(monkeypatch):
    rng = np.random.default_rng(43)
    stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    expected = [eig_general(matrix) for matrix in stack]
    lapack_eig = np.linalg.eig

    def refuse_the_middle_one(a):
        if len(a) > 1 or np.array_equal(a[0], stack[1]):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return lapack_eig(a)

    monkeypatch.setattr(np.linalg, "eig", refuse_the_middle_one)
    first, middle, last = _decompose_stack(stack)
    assert isinstance(middle, NoConvergence)
    assert_same_decomposition(first, expected[0])
    assert_same_decomposition(last, expected[2])


# ---------------------------------------------------------- eig_hermitian


def test_eig_hermitian_unit_proportional_metric():
    dec = eig_hermitian(metric_matrix(np.pi / 2))
    np.testing.assert_allclose(dec.eigenvalues, [2.0, 2.0], atol=1e-13)


def test_eig_hermitian_metric_eigenvalues():
    dec = eig_hermitian(metric_matrix(np.pi / 3))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-13)
    v = dec.right_vectors
    np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-12)


def test_eig_hermitian_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        eig_hermitian(corner_matrix(2, 1j))


# --------------------------------------------------------------- sqrt_hpd


def test_sqrt_scalar_matrix():
    np.testing.assert_allclose(sqrt_hpd(2.0 * np.eye(4)), np.sqrt(2) * np.eye(4))


def test_sqrt_of_metric():
    theta = metric_matrix(np.pi / 3)
    root = sqrt_hpd(theta)
    np.testing.assert_allclose(root @ root, theta, atol=1e-10)
    np.testing.assert_allclose(root, root.conj().T, atol=1e-14)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(root), [1.0, np.sqrt(3.0)], atol=1e-12
    )


def test_sqrt_rejects_near_degenerate_metric():
    with pytest.raises(NotPositiveDefinite):
        sqrt_hpd(metric_matrix(np.pi - 1e-9))


def test_sqrt_square_roundtrip():
    rng = np.random.default_rng(41)
    for n in (2, 4, 7):
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        hpd = b.conj().T @ b + np.eye(n)
        root = sqrt_hpd(hpd)
        np.testing.assert_allclose(root @ root, hpd, atol=1e-9 * spectral_norm(hpd))


# -------------------------------------------------------------- char_poly


def test_char_poly_identity():
    np.testing.assert_allclose(char_poly(np.eye(3)), [1, -3, 3, -1], atol=1e-14)


def test_char_poly_six_site_boundary_cases():
    got = char_poly(corner_matrix(6, 1j))  # boundary strength 0
    np.testing.assert_allclose(got, [1, -12, 56, -128, 147, -76, 12], atol=1e-12)
    got = char_poly(corner_matrix(6, 0.0))  # boundary strength 1
    np.testing.assert_allclose(got, [1, -12, 55, -120, 126, -56, 7], atol=1e-12)


def test_char_poly_dimension_guard():
    with pytest.raises(OutOfRange):
        char_poly(np.eye(17))


def test_decomposition_is_frozen():
    dec = eig_general(np.diag([1.0, 2.0]).astype(complex))
    assert isinstance(dec, EigenDecomposition)
    with pytest.raises(AttributeError):
        dec.residual = 0.5
