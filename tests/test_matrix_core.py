"""Core linear-algebra layer: adjoints, inverses, eigensolvers, roots."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nipsqw.errors import (
    NoConvergence,
    NotHermitian,
    NotPositiveDefinite,
    OutOfRange,
    SingularMatrix,
)
from nipsqw import matrix_core, metric
from nipsqw.hamiltonian import build_h, z_from_phi
from nipsqw.matrix_core import (
    EigenDecomposition,
    _eigen_arrays,
    adjoint,
    char_poly,
    eig_general,
    eig_hermitian,
    inverse,
    spectral_norm,
    sqrt_hpd,
)
from nipsqw.metric import ketkets
from nipsqw.spectrum import solve_spectrum


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


@pytest.mark.parametrize(
    "solve", [eig_general, solve_spectrum, ketkets, inverse, sqrt_hpd, eig_hermitian],
    ids=lambda solve: solve.__name__,
)
def test_an_empty_matrix_is_refused(solve):
    with pytest.raises(ValueError, match="non-empty square matrix"):
        solve(np.zeros((0, 0)))


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


@st.composite
def _tridiagonal_matrices(draw):
    """Random complex, real nonsymmetric or graded tridiagonals, or the well.

    The graded kind is D T D with D from 1e-3 to 1, so its entries span
    1e-6 to 1; the well keeps its angle clear of the exceptional points
    at 0 and pi.
    """
    kind = draw(st.sampled_from(("complex", "real", "graded", "well")))
    n = draw(st.integers(3, 64))
    if kind == "well":
        return build_h(n, z_from_phi(draw(st.floats(0.01, np.pi - 0.01))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bands = [rng.standard_normal(size) for size in (n - 1, n, n - 1)]
    if kind != "real":
        bands = [band + 1j * rng.standard_normal(band.size) for band in bands]
    m = np.diag(bands[0], -1) + np.diag(bands[1]) + np.diag(bands[2], 1)
    if kind == "graded":
        grade = np.geomspace(1e-3, 1.0, n)
        m = grade[:, None] * m * grade
    return m.astype(complex)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_tridiagonal_matrices())
def test_tridiagonal_eigenpairs_meet_the_residual_bound(m):
    assert eig_general(m).residual <= 1e-14


def test_a_close_but_distinct_pair_is_solved():
    # Wilkinson's W21+: its top two eigenvalues agree to about 1e-14, yet
    # the matrix is symmetric, so its eigenvectors stay orthonormal
    m = (np.diag(np.abs(np.arange(-10.0, 11.0))) + np.eye(21, k=1) + np.eye(21, k=-1))
    dec = eig_general(m)
    assert np.isfinite(dec.vector_condition) and dec.vector_condition < 10
    assert dec.residual <= 1e-14


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(_tridiagonal_matrices(), st.data())
def test_reducible_tridiagonal_takes_the_dense_route(m, data):
    # a zero off-diagonal entry splits the matrix; LAPACK solves it
    n = len(m)
    row = data.draw(st.integers(0, n - 2))
    if data.draw(st.booleans()):
        m[row + 1, row] = 0.0
    else:
        m[row, row + 1] = 0.0
    dec = eig_general(m)
    lapack_values, lapack_vectors = np.linalg.eig(m)
    order = np.lexsort((lapack_values.imag, lapack_values.real))
    lapack_vectors = lapack_vectors[:, order]
    np.testing.assert_array_equal(dec.eigenvalues, lapack_values[order])
    np.testing.assert_allclose(
        dec.right_vectors, lapack_vectors / np.linalg.norm(lapack_vectors, axis=0), atol=1e-14
    )
    assert dec.residual <= 1e-14


@pytest.mark.parametrize(
    "share, n",
    [(0.5, 16), (2.0, 16), (0.5, 24), (2.0, 24), (0.5, 64), (2.0, 64)],
    ids=["0.5", "2.0", "0.5-n24", "2.0-n24", "0.5-n64", "2.0-n64"],
)
def test_residual_cap_takes_the_exact_norm_past_the_frobenius_bound(monkeypatch, share, n):
    # one large corner makes |A|_F / sqrt(N) under 0.3 of |A|_2, so a
    # defect of `share` times the cap of |A|_2 is past the Frobenius bound
    # and only the SVD's exact |A|_2 decides; the cap is never moved, and
    # holds at every N up to MAX_DIM
    m = corner_matrix(n, 0.3j)
    m[0, 0] = 100.0
    norm_a = np.linalg.norm(m, 2)
    assert np.linalg.norm(m) / np.sqrt(n) < 0.3 * norm_a
    lapack_eig, svd = np.linalg.eig, np.linalg.svd
    svd_calls = []

    def perturb_one_column(a):
        values, vectors = lapack_eig(a)
        unit = vectors[:, :, 0] / np.linalg.norm(vectors[:, :, 0], axis=-1)
        shove = np.zeros(n, dtype=complex)
        shove[5] = 1.0
        pull = np.linalg.norm((a[0] - values[0, 0] * np.eye(n)) @ shove)
        vectors[:, :, 0] = unit + share * 1e-10 * norm_a / pull * shove
        return values, vectors

    def counted_svd(*args, **kwargs):
        svd_calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", perturb_one_column)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    _, _, defect, errors = _eigen_arrays(m[None])
    assert svd_calls == [(1, n, n)]
    residual = defect[0] / norm_a
    assert abs(residual / (share * 1e-10) - 1.0) < 1e-3
    if share < 1:
        assert errors == [None]
        assert eig_general(m).residual == pytest.approx(residual, rel=1e-12)
    else:
        assert str(errors[0]) == f"eigenpair residual {residual:.3e} exceeds 1e-10"
        with pytest.raises(NoConvergence, match="eigenpair residual"):
            eig_general(m)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e200, 1e-160, 1e156])
def test_residual_reads_the_same_at_any_scale(scale):
    # the sums of squares of |A|_F and of the defect overflow or sink into
    # the denormals at these scales; such a matrix is taken again scaled by
    # a power of two, so its residual reads as at unit scale, with no
    # warning, and a real defect is still refused
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    unit = eig_general(a).residual
    assert 0.0 < unit <= 1e-15
    assert 0.2 * unit <= eig_general(a * scale).residual <= 5.0 * unit
    values, vectors = np.linalg.eig(a)
    vectors /= np.linalg.norm(vectors, axis=0)
    values[0] += 1e-8 * np.linalg.norm(a, 2)
    errors = [None]
    defect = matrix_core._residual_refusals(
        (a * scale)[None], (values * scale)[None], vectors[None], errors
    )
    assert defect[0] / (scale * np.linalg.norm(a, 2)) == pytest.approx(1e-8, rel=1e-6)
    assert str(errors[0]).startswith("eigenpair residual 1.000e-08 exceeds")


def assert_stack_matches_single_solves(solve, stack, *per_matrix):
    """Each matrix's result from ``solve(stack, *per_matrix)`` equals ``solve``
    of it alone, with its own entries of ``per_matrix``, bit for bit; a
    refusal matches in type and message."""
    together = solve(stack, *per_matrix)
    for k in range(len(stack)):
        alone = solve(stack[k:k + 1], *(arg[k:k + 1] for arg in per_matrix))
        for got, want in zip(together, alone):
            if isinstance(got, list):
                assert type(got[k]) is type(want[0]) and str(got[k]) == str(want[0])
            else:
                np.testing.assert_array_equal(got[k], want[0])
    return together


def test_stack_with_singular_shifts_matches_single_solves():
    # a diagonal matrix, whose eigenvectors are the unit vectors, among wells
    wells = [corner_matrix(3, 1j * np.cos(phi)) for phi in (0.4, 1.1, 2.3)]
    stack = np.stack([wells[0], np.diag([1.0, 2.0, 3.0]).astype(complex), *wells[1:]])
    values, vectors, _, errors = assert_stack_matches_single_solves(_eigen_arrays, stack)
    assert errors == [None] * 4
    for matrix, got_values, got_vectors in zip(stack, values, vectors):
        dec = eig_general(matrix)
        np.testing.assert_array_equal(got_values, dec.eigenvalues)
        np.testing.assert_array_equal(got_vectors, dec.right_vectors)
    np.testing.assert_allclose(np.abs(vectors[1]), np.eye(3), atol=1e-12)


def test_stack_keeps_a_refused_matrix_from_its_neighbours():
    # the six-site well at r = 0 is defective: its middle levels coalesce,
    # and the closed form refuses it without touching its neighbours
    corners = np.array([0.6j, 1j, -0.3j, 1j, 0.9j])
    stack = np.stack([corner_matrix(6, z) for z in corners])
    r = np.sqrt(1 - np.abs(corners) ** 2)
    _, _, errors = assert_stack_matches_single_solves(metric._well_ketket_stack, stack, r)
    assert [error is None for error in errors] == [True, False, True, False, True]
    assert str(errors[1]) == "eigenvector matrix is numerically singular"


def test_each_well_takes_the_route_of_its_kind():
    # driven wells take the closed form, the other wells LAPACK, each stack
    # exactly as alone: corners with Re z = 0 inside the unit circle, then
    # a Robin corner, a corner with |z| > 1 and a real one
    driven, other = np.array([0.6j, -0.95j, 1j * np.cos(2.0)]), [0.3 + 0.5j, 3j, 1.0]
    r = np.sqrt(1 - np.abs(driven) ** 2)
    routes = ((metric._well_ketket_stack, driven, (r,)), (metric._eigen_ketket_stack, other, ()))
    for n in (2, 4):
        for solve, corners, args in routes:
            stack = np.stack([corner_matrix(n, z) for z in corners])
            values, vectors, _ = assert_stack_matches_single_solves(solve, stack, *args)
            for matrix, got_values, got_vectors in zip(stack, values, vectors):
                want_values, want_vectors, _ = metric._ketket_basis(matrix)
                np.testing.assert_allclose(got_values, want_values, rtol=0, atol=1e-14)
                np.testing.assert_allclose(got_vectors, want_vectors, rtol=0, atol=1e-14)


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
    values, vectors, _, errors = _eigen_arrays(stack)
    assert str(errors[1]) == "Eigenvalues did not converge"
    assert np.isnan(values[1]).all()
    np.testing.assert_array_equal(vectors[1], np.eye(4))
    for k in (0, 2):
        assert errors[k] is None
        np.testing.assert_array_equal(values[k], expected[k].eigenvalues)
        np.testing.assert_array_equal(vectors[k], expected[k].right_vectors)


def test_failed_vectors_keep_their_eigenvalues(monkeypatch):
    # LAPACK hands back a wrong column for the middle matrix only: the
    # residual cap refuses it, and it keeps its eigenvalues
    stack = np.stack([corner_matrix(5, z) for z in (0.4 + 0.6j, 0.8j, 2.0 + 0.3j)])
    want_values, want_vectors, _, _ = _eigen_arrays(stack)
    lapack_eig = np.linalg.eig

    def fail_the_middle_one(a):
        values, vectors = lapack_eig(a)
        vectors[a[:, 0, 0] == 2.0 - 0.8j, :, 2] = np.eye(5)[0]
        return values, vectors

    monkeypatch.setattr(np.linalg, "eig", fail_the_middle_one)
    values, vectors, _, errors = _eigen_arrays(stack)
    np.testing.assert_array_equal(values, want_values)
    np.testing.assert_array_equal(vectors[[0, 2]], want_vectors[[0, 2]])
    assert errors[0] is None and errors[2] is None
    assert str(errors[1]).startswith("eigenpair residual") and "exceeds 1e-10" in str(errors[1])


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


def test_sqrt_rejects_nonhermitian():
    with pytest.raises(NotHermitian, match="square root requires a Hermitian matrix"):
        sqrt_hpd(corner_matrix(2, 1j))


def test_sqrt_square_roundtrip():
    rng = np.random.default_rng(41)
    for n in (2, 4, 7):
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        hpd = b.conj().T @ b + np.eye(n)
        root = sqrt_hpd(hpd)
        np.testing.assert_allclose(root @ root, hpd, atol=1e-9 * spectral_norm(hpd))


def test_sqrt_tangent_solves_the_sylvester_equation():
    rng = np.random.default_rng(43)
    for n in (2, 4, 7):
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        hpd = b.conj().T @ b + np.eye(n)
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        tangent = c + c.conj().T
        root, slope = sqrt_hpd(hpd, tangent=tangent)
        np.testing.assert_array_equal(root, sqrt_hpd(hpd))
        np.testing.assert_allclose(slope, slope.conj().T, atol=1e-14)
        np.testing.assert_allclose(
            root @ slope + slope @ root, tangent, atol=1e-12 * spectral_norm(tangent)
        )


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
