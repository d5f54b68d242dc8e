"""Dense complex linear algebra for small matrices (N <= ~64).

Everything operates on plain square numpy arrays; results come back as
new arrays or as :class:`EigenDecomposition` records.  Tridiagonal
inputs get a dedicated eigenvalue path: the characteristic polynomial is
evaluated through its three-term recurrence in extended precision and
the dense-solver eigenvalues are polished by simultaneous Newton
corrections.  That resolves nearly coalescing pairs far below the noise
floor of a one-shot dense solve, which matters for exceptional-point
diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import Tolerances, get_tolerances
from .errors import (
    NoConvergence,
    NotHermitian,
    NotPositiveDefinite,
    OutOfRange,
    SingularMatrix,
)

_CLD = np.clongdouble
_EPS_LD = float(np.finfo(np.longdouble).eps)

MAX_DIM = 64
CHAR_POLY_MAX_DIM = 16  # coefficient growth guard
_RESIDUAL_CAP = 1e-10   # accepted-decomposition bound, enforced for N <= 16


def as_square(matrix) -> np.ndarray:
    """Validate and return a square complex array (no NaN/Inf entries)."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def spectral_norm(matrix) -> float:
    return float(np.linalg.norm(np.asarray(matrix, dtype=complex), 2))


def adjoint(matrix) -> np.ndarray:
    """Conjugate transpose."""
    return as_square(matrix).conj().T.copy()


def inverse(matrix, tol: Tolerances | None = None) -> np.ndarray:
    """Invert, refusing matrices whose determinant is relatively tiny.

    The test is scale-invariant: the product of singular-value ratios
    s_i / s_max (equivalently |det M| relative to ||M||^N) must exceed
    ``eps_singular``.  Failure signals exceptional-point proximity to
    callers.
    """
    a = as_square(matrix)
    tol = tol if tol is not None else get_tolerances()
    s = np.linalg.svd(a, compute_uv=False)
    with np.errstate(divide="ignore"):
        if s[0] == 0.0 or np.sum(np.log(s / s[0])) <= np.log(tol.eps_singular):
            raise SingularMatrix(
                f"relative determinant below {tol.eps_singular:g}"
            )
    return np.linalg.solve(a, np.eye(a.shape[0], dtype=complex))


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


def _ascending_order(values: np.ndarray) -> np.ndarray:
    return np.lexsort((values.imag, values.real))


def _eig2_closed_form(a: np.ndarray):
    """Roots of the 2x2 characteristic quadratic in extended precision."""
    m = a.astype(_CLD)
    a00, a01, a10, a11 = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    half_trace = (a00 + a11) / 2
    disc = np.sqrt(half_trace * half_trace - (a00 * a11 - a01 * a10))
    lam = np.array([half_trace - disc, half_trace + disc], dtype=_CLD)
    vecs = np.zeros((2, 2), dtype=_CLD)
    for j, lam_j in enumerate(lam):
        row_first = np.array([a01, lam_j - a00])    # kernel of first row
        row_second = np.array([lam_j - a11, a10])   # kernel of second row
        v = max(row_first, row_second, key=lambda u: float(np.abs(u).max()))
        if np.abs(v).max() == 0.0:
            v = np.eye(2, dtype=_CLD)[:, j]  # scalar matrix
        vecs[:, j] = v / np.sqrt(np.sum(np.abs(v) ** 2))
    return lam.astype(complex), vecs.astype(complex)


def _is_tridiagonal(a: np.ndarray) -> bool:
    n = a.shape[0]
    band = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]) <= 1
    return bool(np.all(a[~band] == 0))


def _tridiag_char_and_deriv(diag, offprod, x):
    """p(x) = det(T - x I) and p'(x), vectorized over x.

    Continuant recurrence D_k = (d_k - x) D_{k-1} - e_{k-1} D_{k-2} with
    e = sub*super products, run in extended precision so that clustered
    roots of the characteristic polynomial stay resolvable.
    """
    p_prev = np.zeros_like(x)
    p = np.ones_like(x)
    q_prev = np.zeros_like(x)
    q = np.zeros_like(x)
    for k in range(len(diag)):
        a_k = diag[k] - x
        e_k = offprod[k - 1] if k > 0 else 0.0
        p_next = a_k * p - e_k * p_prev
        q_next = a_k * q - p - e_k * q_prev
        p_prev, p = p, p_next
        q_prev, q = q, q_next
    return p, q


def _aberth_polish(diag, offprod, seeds, budget):
    """Simultaneous Newton (Aberth) refinement of all roots at once.

    Simple roots converge quadratically to the hard threshold; multiple
    roots converge linearly until the polynomial's rounding floor, where
    the steps stop shrinking -- that stall is accepted as converged once
    the step is already at the square-root-of-epsilon scale.
    """
    x = seeds.astype(_CLD)
    n = len(x)
    max_sweeps = max(1, budget // n)
    prev_step = np.full(n, np.inf, dtype=np.longdouble)
    for _ in range(max_sweeps):
        p, dp = _tridiag_char_and_deriv(diag, offprod, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(dp != 0, p / dp, 0.0)
            diffs = x[:, None] - x[None, :]
            repulsion = np.where(diffs != 0, 1.0 / diffs, 0.0)
        np.fill_diagonal(repulsion, 0.0)
        denom = 1.0 - w * repulsion.sum(axis=1)
        delta = np.where(denom != 0, w / denom, w)
        x = x - delta
        step = np.abs(delta)
        scale = 1.0 + np.abs(x)
        tight = step <= 4.0 * _EPS_LD * scale
        stalled = (step <= np.sqrt(_EPS_LD) * scale) & (step > 0.7 * prev_step)
        if np.all(tight | stalled):
            return x, True
        prev_step = step
    return x, False


def _inverse_iteration_start(n: int) -> np.ndarray:
    # deterministic start with no symmetry under index reversal, so it
    # overlaps every eigenvector of a persymmetric matrix
    k = np.arange(n)
    v = np.cos(0.9 * k + 0.4) + 1j * np.sin(1.7 * k + 0.8)
    return v / np.linalg.norm(v)


def _tridiag_eigvec(a: np.ndarray, lam: complex) -> np.ndarray:
    """One eigenvector by inverse iteration on the banded factorization."""
    n = a.shape[0]
    bands = np.zeros((3, n), dtype=complex)
    bands[0, 1:] = a.diagonal(1)
    bands[2, :-1] = a.diagonal(-1)
    shift = 0.0
    for _ in range(3):
        bands[1, :] = a.diagonal() - (lam + shift)
        v = _inverse_iteration_start(n)
        try:
            for _ in range(2):
                v = scipy.linalg.solve_banded((1, 1), bands, v)
                v = v / np.linalg.norm(v)
            if np.all(np.isfinite(v)):
                return v
        except np.linalg.LinAlgError:
            pass
        # exactly singular shift; nudge deterministically and retry
        shift = shift + 1e-13 * (1.0 + abs(lam)) * (1.0 + 1.0j)
    raise NoConvergence(f"inverse iteration failed at eigenvalue {lam}")


def _tridiag_eigenvalues(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    seeds = np.linalg.eigvals(a)
    diag = a.diagonal().astype(_CLD)
    offprod = (a.diagonal(1) * a.diagonal(-1)).astype(_CLD)
    roots, converged = _aberth_polish(diag, offprod, seeds, budget=100 * n * n)
    if not converged:
        raise NoConvergence(f"root polish exhausted {100 * n * n} iterations")
    return roots.astype(complex)


def _eig_dispatch(a: np.ndarray, vectors: bool):
    """Unsorted eigenvalues, with right eigenvectors when ``vectors``.

    Closed form at N=2, continuant-polished roots (plus inverse
    iteration for the vectors) for tridiagonal matrices, dense solver
    otherwise.
    """
    n = a.shape[0]
    if n > MAX_DIM:
        raise OutOfRange(f"dimension {n} exceeds the supported maximum {MAX_DIM}")
    if n == 1:
        return a[0].copy(), np.ones((1, 1), dtype=complex)
    if n == 2:
        return _eig2_closed_form(a)
    if _is_tridiagonal(a):
        values = _tridiag_eigenvalues(a)
        if not vectors:
            return values, None
        return values, np.column_stack([_tridiag_eigvec(a, lam) for lam in values])
    try:
        if not vectors:
            return np.linalg.eigvals(a), None
        return np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def _eigvals_general(matrix) -> np.ndarray:
    """Eigenvalues only, same dispatch as ``eig_general``, no vector gate.

    Defective matrices have well-conditioned eigenvalue clusters even
    when no acceptable eigenvector basis exists, so diagnostics that
    need gaps (not vectors) can still use this after ``eig_general``
    refuses.
    """
    values, _ = _eig_dispatch(as_square(matrix), vectors=False)
    return values[_ascending_order(values)]


def eig_general(matrix) -> EigenDecomposition:
    """Full non-Hermitian eigendecomposition with quality diagnostics.

    Dispatch: closed form at N=2, continuant-polished roots plus inverse
    iteration for tridiagonal matrices, dense solver otherwise.  Raises
    NoConvergence when the residual contract cannot be met; a defective
    input announces itself through ``vector_condition`` instead.
    """
    a = as_square(matrix)
    values, vectors = _eig_dispatch(a, vectors=True)
    n = a.shape[0]

    order = _ascending_order(values)
    values = values[order]
    vectors = vectors[:, order]
    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)

    norm_a = spectral_norm(a)
    defect = np.linalg.norm(a @ vectors - vectors * values, axis=0)
    residual = float(defect.max() / norm_a) if norm_a > 0 else float(defect.max())
    if n <= 16 and residual > _RESIDUAL_CAP:
        raise NoConvergence(
            f"eigenpair residual {residual:.3e} exceeds {_RESIDUAL_CAP:g}"
        )
    with np.errstate(divide="ignore", over="ignore"):
        condition = float(np.linalg.cond(vectors))
    if not np.isfinite(condition):
        condition = float("inf")
    return EigenDecomposition(values, vectors, condition, residual)


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


def sqrt_hpd(matrix, tol: Tolerances | None = None) -> np.ndarray:
    """Hermitian positive-definite square root via spectral decomposition."""
    a = as_square(matrix)
    tol = tol if tol is not None else get_tolerances()
    norm_a = spectral_norm(a)
    if spectral_norm(a - a.conj().T) > 1e-12 * max(norm_a, 1e-300):
        raise NotHermitian("square root requires a Hermitian matrix")
    values, vectors = np.linalg.eigh(a)
    if values[0] <= tol.eps_pd * max(np.abs(values).max(), 1e-300):
        raise NotPositiveDefinite(
            f"smallest eigenvalue {values[0]:.3e} under the definiteness floor"
        )
    root = (vectors * np.sqrt(values)) @ vectors.conj().T
    return (root + root.conj().T) / 2


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
