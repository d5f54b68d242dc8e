"""Dense complex linear algebra for small matrices (N <= ~64).

Everything operates on plain square numpy arrays; results come back as
new arrays or as :class:`EigenDecomposition` records.  The general
eigensolver works on stacks: ``_eigen_arrays`` solves an (m, N, N) array
of same-size matrices at once and without an SVD, in closed form at N=2
and by LAPACK above it, and ``eig_general`` is a stack of one through it
with the SVD diagnostics added.  Failures are kept per matrix, so one
failed matrix never fails the rest of its stack.

These solvers serve ``eig_general``, ``solve_spectrum``, every matrix
that is not a driven well and the spectra of the generators.  Driven
wells, two sites included, are solved in closed form instead
(``metric._well_ketket_stack``), and share only the residual cap,
``_residual_refusals``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Tolerances, get_tolerances
from .errors import (
    NoConvergence,
    NotHermitian,
    NotPositiveDefinite,
    OutOfRange,
    SingularMatrix,
)

_CLD = np.clongdouble

MAX_DIM = 64
CHAR_POLY_MAX_DIM = 16  # coefficient growth guard
_RESIDUAL_CAP = 1e-10   # accepted-decomposition bound

#: eigenvector conditions at or above this read as infinite (a singular V
#: rounds to ~1/eps, not inf, under the SVD); every ketket solve holds its
#: SVD-free bound N / min_j s_j to it (``metric._gauged_bases``)
COND_CEILING = 1e15


def as_square(matrix) -> np.ndarray:
    """Validate and return a non-empty square complex array (no NaN/Inf entries)."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ValueError(f"expected a non-empty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def spectral_norm(matrix) -> float:
    return float(np.linalg.norm(np.asarray(matrix, dtype=complex), 2))


def adjoint(matrix) -> np.ndarray:
    """Conjugate transpose."""
    return as_square(matrix).conj().T.copy()


def inverse(matrix, tol: Tolerances | None = None) -> np.ndarray:
    """Invert, refusing matrices that are numerically singular.

    The test is scale-invariant and independent of the size: the
    reciprocal condition s_min / s_max must exceed ``eps_singular``.
    Failure signals exceptional-point proximity to callers.
    """
    tol = tol if tol is not None else get_tolerances()
    a = as_square(matrix)
    s = np.linalg.svd(a, compute_uv=False)
    if not s[-1] > tol.eps_singular * s[0]:
        raise SingularMatrix(f"reciprocal condition at or below {tol.eps_singular:g}")
    return np.linalg.solve(a, np.eye(len(a), dtype=complex))


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues with right eigenvectors and quality diagnostics.

    Eigenvalues are sorted by ascending real part, ties by ascending
    imaginary part.  ``vector_condition`` is the condition number of the
    eigenvector matrix (large or infinite near an exceptional point) and
    ``residual`` the worst relative eigenpair defect.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    vector_condition: float
    residual: float


def _eig2_closed_form(a: np.ndarray):
    """Roots of each 2x2 characteristic quadratic in extended precision.

    The vector of each root spans the kernel of whichever row of
    A - lambda has the larger entries.
    """
    m = a.astype(_CLD)
    a00, a01, a10, a11 = (m[:, i, j, None] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    half_trace = (a00 + a11) / 2
    disc = np.sqrt(half_trace * half_trace - (a00 * a11 - a01 * a10))
    lam = np.concatenate([half_trace - disc, half_trace + disc], axis=1)
    # [matrix, component, root]
    row_first = np.stack(np.broadcast_arrays(a01, lam - a00), axis=1)
    row_second = np.stack(np.broadcast_arrays(lam - a11, a10), axis=1)
    size_first = np.abs(row_first).max(axis=1).astype(float)
    size_second = np.abs(row_second).max(axis=1).astype(float)
    vecs = np.where((size_second > size_first)[:, None], row_second, row_first)
    scalar = np.abs(vecs).max(axis=1) == 0.0  # scalar matrix
    vecs = np.where(scalar[:, None], np.eye(2), vecs)
    vecs = vecs / np.sqrt(np.sum(np.abs(vecs) ** 2, axis=1, keepdims=True))
    return lam.astype(complex), vecs.astype(complex)


def _dense_eig(a: np.ndarray):
    """LAPACK on the whole stack; one matrix at a time if any one fails.

    A matrix that LAPACK fails gets NaN values and identity vectors.
    """
    try:
        values, vecs = np.linalg.eig(a)
        return values, vecs, [None] * len(a)
    except np.linalg.LinAlgError as exc:
        if len(a) == 1:
            values = np.full(a.shape[:2], np.nan, dtype=complex)
            return values, np.eye(a.shape[-1], dtype=complex)[None], [NoConvergence(str(exc))]
    values, vecs, errors = zip(*(_dense_eig(matrix[None]) for matrix in a))
    return np.concatenate(values), np.concatenate(vecs), [error for (error,) in errors]


def _eig_stack(stack: np.ndarray):
    """Unsorted eigenpairs of an (m, N, N) stack, with failures per matrix.

    Returns the (m, N) eigenvalues, the (m, N, N) right eigenvectors and,
    per matrix, None or the NoConvergence its solve ended in.  Closed form
    at N=2, LAPACK (``_dense_eig``) above it, so a matrix's result does not
    depend on the others in its stack.  A matrix LAPACK fails holds NaN
    values and identity vectors, so it never spoils its neighbours.
    """
    m, n, _ = stack.shape
    if n > MAX_DIM:
        raise OutOfRange(f"dimension {n} exceeds the supported maximum {MAX_DIM}")
    if n == 1:
        return stack[:, 0].copy(), np.ones((m, 1, 1), dtype=complex), [None] * m
    if n == 2:
        values, vecs = _eig2_closed_form(stack)
        return values, vecs, [None] * m
    return _dense_eig(stack)


def _eigen_arrays(stack: np.ndarray):
    """Sorted eigenpairs of an (m, N, N) stack and their refusals, no SVD.

    Returns the ascending eigenvalues (m, N), the unit right vectors
    (m, N, N), each matrix's worst eigenpair defect |A v - lambda v| (m,)
    and per matrix None or the NoConvergence that ``eig_general(stack[k])``
    raises.  A refused matrix still has its eigenvalues, so a defective
    point keeps its energies; they are NaN only where the values
    themselves failed (``_eig_stack``).  A defect above ``_RESIDUAL_CAP``
    |A|_2 is refused too.
    """
    values, vectors, errors = _eig_stack(stack)
    order = np.lexsort((values.imag, values.real), axis=-1)
    values = np.take_along_axis(values, order, axis=-1)
    vectors = np.take_along_axis(vectors, order[:, None, :], axis=-1)
    vectors = vectors / np.linalg.norm(vectors, axis=-2, keepdims=True)
    return values, vectors, _residual_refusals(stack, values, vectors, errors), errors


def _residual_refusals(stack, values, vectors, errors) -> np.ndarray:
    """Each matrix's worst eigenpair defect |A v - lambda v| over unit columns.

    A matrix whose ``errors`` entry is None and whose defect exceeds
    ``_RESIDUAL_CAP`` |A|_2 gets a NoConvergence there.  Only a defect
    past the cheaper bound |A|_F / sqrt(N) <= |A|_2 costs an SVD.  A matrix
    whose |A|_F is not ``_squares_in_range`` takes both norms again scaled
    by the power of two of its largest entry, which is exact.
    """
    with np.errstate(over="ignore"):
        defect = _worst_defect(stack, values, vectors)
        frob = np.linalg.norm(stack, axis=(-2, -1))
    odd = np.flatnonzero(~_squares_in_range(frob))
    if odd.size:
        _, exps = np.frexp(np.abs(stack[odd]).max(axis=(-2, -1)))
        scale = np.ldexp(1.0, -np.clip(exps, -1020, 1020))  # a finite power of two
        scaled = stack[odd] * scale[:, None, None]
        worst = _worst_defect(scaled, values[odd] * scale[:, None], vectors[odd])
        with np.errstate(over="ignore"):  # only a norm past the double range
            defect[odd] = worst / scale
            frob[odd] = np.linalg.norm(scaled, axis=(-2, -1)) / scale
    # the slack keeps rounding in either norm from passing a refused defect
    bound = _RESIDUAL_CAP * (1 - 1e-9) * frob
    bound /= np.sqrt(stack.shape[-1])
    past = [k for k, error in enumerate(errors) if error is None and not defect[k] <= bound[k]]
    norm_a = np.linalg.svd(stack[past], compute_uv=False)[:, 0] if past else []
    for k, residual in zip(past, defect[past] / norm_a):
        if residual > _RESIDUAL_CAP:
            errors[k] = NoConvergence(
                f"eigenpair residual {residual:.3e} exceeds {_RESIDUAL_CAP:g}"
            )
    return defect


def _squares_in_range(norms) -> np.ndarray:
    """Where a Frobenius norm, or a product of two, is trusted: in 2^-400 ...
    2^400 no square of the largest entry overflows or sinks into the denormals."""
    return (2.0**-400 <= norms) & (norms <= 2.0**400)


def _worst_defect(stack, values, vectors):
    """max_j |A v_j - lambda_j v_j| of each matrix of a stack."""
    return np.linalg.norm(stack @ vectors - vectors * values[:, None, :], axis=-2).max(axis=-1)


def eig_general(matrix) -> EigenDecomposition:
    """Full non-Hermitian eigendecomposition with quality diagnostics.

    A stack of one through ``_eigen_arrays``: closed form at N=2, LAPACK
    otherwise, with the vector condition cond_2(V) and the residual
    |A v - lambda v| / |A|_2 from one SVD.  Raises NoConvergence when the
    residual contract cannot be met; a defective input announces itself
    through ``vector_condition``.
    """
    a = as_square(matrix)
    values, vectors, defect, errors = _eigen_arrays(a[None])
    if errors[0] is not None:
        raise errors[0]
    sv = np.linalg.svd(np.concatenate([a[None], vectors]), compute_uv=False)
    norm_a, sv = sv[0, 0], sv[1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        condition = sv[0] / sv[-1]
    return EigenDecomposition(
        values[0],
        vectors[0],
        float(condition) if np.isfinite(condition) else np.inf,
        float(defect[0] / norm_a if norm_a > 0 else defect[0]),
    )


def eig_hermitian(matrix) -> EigenDecomposition:
    """Eigendecomposition for Hermitian input: real spectrum, unitary basis."""
    a = as_square(matrix)
    norm_a = spectral_norm(a)
    if spectral_norm(a - a.conj().T) > 1e-12 * max(norm_a, 1e-300):
        raise NotHermitian("matrix is not Hermitian to 1e-12 relative")
    values, vectors = np.linalg.eigh(a)
    defect = np.linalg.norm(a @ vectors - vectors * values, axis=0)
    residual = float(defect.max() / norm_a) if norm_a > 0 else float(defect.max())
    return EigenDecomposition(
        eigenvalues=values.astype(complex),
        right_vectors=vectors,
        vector_condition=float(np.linalg.cond(vectors)),
        residual=residual,
    )


def sqrt_hpd(matrix, tol: Tolerances | None = None, *, tangent=None):
    """Hermitian positive-definite square root via spectral decomposition.

    A stack of one through ``_sqrt_hpd_stack``; with a Hermitian
    ``tangent`` dA, returns the pair (root, dRoot) from ``_root_slope``.
    """
    a = as_square(matrix)
    tol = tol if tol is not None else get_tolerances()
    if spectral_norm(a - a.conj().T) > 1e-12 * max(spectral_norm(a), 1e-300):
        raise NotHermitian("square root requires a Hermitian matrix")
    root, _, vectors, roots, errors = _sqrt_hpd_stack(a[None], tol)
    if errors[0] is not None:
        raise errors[0]
    if tangent is None:
        return root[0]
    return root[0], _root_slope(vectors, roots, np.asarray(tangent)[None])[0]


def _sqrt_hpd_stack(stack: np.ndarray, tol: Tolerances):
    """(root, inverse, U, s, errors) of an (m, N, N) Hermitian stack.

    One ``eigh`` per matrix, A = U diag(s^2) U^dagger, gives the root
    U diag(s) U^dagger and its inverse U diag(1/s) U^dagger; U and s are
    what ``_root_slope`` needs.  errors[k] is None, or NotPositiveDefinite
    when s_min^2 is under ``eps_pd`` of s_max^2 (that matrix's s is then 1).
    """
    values, vectors = np.linalg.eigh(stack)
    flat = values[:, 0] <= tol.eps_pd * np.maximum(np.abs(values).max(axis=-1), 1e-300)
    roots = np.sqrt(np.where(flat[:, None], 1.0, values))
    errors = [
        NotPositiveDefinite(f"smallest eigenvalue {value:.3e} under the definiteness floor")
        if bad else None
        for bad, value in zip(flat, values[:, 0])
    ]
    left = vectors.conj().swapaxes(-1, -2)
    root = (vectors * roots[:, None, :]) @ left
    inv = (vectors / roots[:, None, :]) @ left
    return (root + root.conj().swapaxes(-1, -2)) / 2, inv, vectors, roots, errors


def _root_slope(vectors, roots, tangent):
    """The slope of each root of ``_sqrt_hpd_stack`` along a Hermitian dA.

    The solution X of root X + X root = dA,
    U [(U^dagger dA U)_ij / (s_i + s_j)] U^dagger (Higham, *Functions of
    Matrices*, 2008), made exactly Hermitian.
    """
    left = vectors.conj().swapaxes(-1, -2)
    lift = left @ tangent @ vectors
    slope = vectors @ (lift / (roots[:, :, None] + roots[:, None, :])) @ left
    return (slope + slope.conj().swapaxes(-1, -2)) / 2


def char_poly(matrix) -> np.ndarray:
    """Monic characteristic polynomial det(lambda I - M), descending powers.

    Faddeev-LeVerrier recursion; deliberately independent of the
    eigensolvers so the two routes can cross-check each other.
    """
    a = as_square(matrix)
    n = a.shape[0]
    if n > CHAR_POLY_MAX_DIM:
        raise OutOfRange(
            f"dimension {n} exceeds the coefficient-growth guard {CHAR_POLY_MAX_DIM}"
        )
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    work = a.copy()
    for k in range(1, n + 1):
        c_k = -np.trace(work) / k
        coeffs[k] = c_k
        if k < n:
            work = a @ (work + c_k * np.eye(n, dtype=complex))
    return coeffs
