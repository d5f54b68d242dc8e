"""Dense complex linear algebra for small matrices (N <= ~64).

Everything operates on plain square numpy arrays; results come back as
new arrays or as :class:`EigenDecomposition` records.  The general
eigensolver works on stacks: ``_eigen_arrays`` solves an (m, N, N) array
of same-size matrices at once and without an SVD, in closed form at N=2
and by LAPACK above it, and ``eig_general`` is a stack of one through it
with the SVD diagnostics added.  Failures are kept per matrix, so one
failed matrix never fails the rest of its stack.

These solvers serve ``eig_general`` on any matrix, the one well solve of
``ketkets`` and ``solve_spectrum`` on wells that are not driven, and the
spectra of the generators.  Driven wells, two sites included, are solved
in closed form instead (``metric._well_ketket_stack``), and share only
the residual cap, ``_residual_refusals``.  ``sqrt_hpd`` roots the one
metric it is given; the integrator's root map, the polar factor of its
ketket map, shares only ``_root_slope``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import get_tolerances
from .errors import (
    NoConvergence,
    NotHermitian,
    NotPositiveDefinite,
    OutOfRange,
    SingularMatrix,
)

_CLD = np.clongdouble

MAX_DIM = 64
_RESIDUAL_CAP = 1e-10   # accepted-decomposition bound

#: eigenvector conditions at or above this read as infinite (a singular V
#: rounds to ~1/eps, not inf, under the SVD); every ketket solve holds its
#: SVD-free bound N / min_j s_j to it (``metric._gauge_refusals``)
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


def inverse(matrix) -> np.ndarray:
    """Invert, refusing matrices that are numerically singular.

    The test is scale-invariant and independent of the size: the
    reciprocal condition s_min / s_max must exceed the ``eps_singular`` that
    ``sqrt_hpd`` reads too.  Failure signals exceptional-point proximity.
    A well-conditioned matrix whose inverse leaves the double range, as
    subnormal entries give, raises OutOfRange.
    """
    eps = get_tolerances().eps_singular
    a = as_square(matrix)
    s = np.linalg.svd(a, compute_uv=False)
    if not s[-1] > eps * s[0]:
        raise SingularMatrix(f"reciprocal condition at or below {eps:g}")
    result = np.linalg.solve(a, np.eye(len(a), dtype=complex))
    if not np.isfinite(result).all():
        raise OutOfRange("inverse leaves the double range")
    return result


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
    half_trace, half_gap = (a00 + a11) / 2, (a00 - a11) / 2
    disc = np.sqrt(half_gap * half_gap + a01 * a10)  # half_trace**2 - det cancels
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

    A matrix that LAPACK fails gets NaN values, identity vectors and its
    NoConvergence in the map of refusals returned with them.
    """
    try:
        values, vecs = np.linalg.eig(a)
        return values, vecs, {}
    except np.linalg.LinAlgError as exc:
        if len(a) == 1:
            values = np.full(a.shape[:2], np.nan, dtype=complex)
            return values, np.eye(a.shape[-1], dtype=complex)[None], {0: NoConvergence(str(exc))}
    values, vecs, errors = zip(*(_dense_eig(matrix[None]) for matrix in a))
    failures = {k: error[0] for k, error in enumerate(errors) if error}
    return np.concatenate(values), np.concatenate(vecs), failures


def _eigen_arrays(stack: np.ndarray):
    """Sorted eigenpairs of an (m, N, N) stack and their refusals, no SVD.

    Returns the ascending eigenvalues (m, N), the unit right vectors
    (m, N, N), each matrix's worst eigenpair defect |A v - lambda v| (m,)
    and the map from each refused index k to the NoConvergence that
    ``eig_general(stack[k])`` raises.  The entry itself at N=1 (LAPACK
    would move it by an ulp), closed form at N=2 (it keeps a defective
    pair defective), LAPACK (``_dense_eig``) above it, so a matrix's
    result does not depend on the others in its stack.  A refused matrix
    still has its eigenvalues, so a defective point keeps its energies;
    they are NaN only where LAPACK failed the values themselves.  A defect
    above ``_RESIDUAL_CAP`` |A|_2 is refused too.
    """
    m, n, _ = stack.shape
    if n > MAX_DIM:
        raise OutOfRange(f"dimension {n} exceeds the supported maximum {MAX_DIM}")
    failures = {}
    if n == 1:
        values, vectors = stack[:, 0], np.ones((m, 1, 1), dtype=complex)
    elif n == 2:
        values, vectors = _eig2_closed_form(stack)
    else:
        values, vectors, failures = _dense_eig(stack)
    order = np.lexsort((values.imag, values.real), axis=-1)
    values = np.take_along_axis(values, order, axis=-1)
    vectors = np.take_along_axis(vectors, order[:, None, :], axis=-1)
    return values, vectors, *_residual_refusals(stack, values, vectors, failures)


def _dense_mismatch(stack, values, vectors):
    """A V - V diag(values) of each matrix of a stack, by the dense product."""
    return stack @ vectors - vectors * values[:, None, :]


def _residual_refusals(stack, values, vectors, failures, mismatch=_dense_mismatch):
    """Each matrix's worst eigenpair defect |B v - lambda v| over unit columns,
    from ``mismatch(A, values, V)``, B V - V diag(values): B = A, dense, by
    default, or A^dagger from A's structure, as the two share every norm read here,
    and the map from each refused matrix to its refusal: ``failures``, the map
    from each matrix whose solve failed to that failure, over a NoConvergence
    at each other matrix whose defect exceeds ``_RESIDUAL_CAP`` |A|_2.

    Only a defect past the cheaper bound |A|_F / sqrt(N) <= |A|_2 costs an
    SVD, and none of a failed matrix.  A matrix whose |A|_F is not
    ``_squares_in_range`` takes both norms again scaled by the power of two
    of its largest entry, which is exact.
    """
    with np.errstate(over="ignore"):
        defect = _worst_defect(stack, values, vectors, mismatch)
        frob = np.linalg.norm(stack, axis=(-2, -1))
    odd = np.flatnonzero(~_squares_in_range(frob))
    if odd.size:
        scale = _binary_scales(stack[odd])
        scaled = stack[odd] * scale[:, None, None]
        worst = _worst_defect(scaled, values[odd] * scale[:, None], vectors[odd], mismatch)
        with np.errstate(over="ignore"):  # only a norm past the double range
            defect[odd] = worst / scale
            frob[odd] = np.linalg.norm(scaled, axis=(-2, -1)) / scale
    # the slack keeps rounding in either norm from passing a refused defect
    bound = _RESIDUAL_CAP * (1 - 1e-9) * frob
    bound /= np.sqrt(stack.shape[-1])
    past = [k for k in np.flatnonzero(~(defect <= bound)).tolist() if k not in failures]
    if not past:
        return defect, failures
    norm_a = np.linalg.svd(stack[past], compute_uv=False)[:, 0]
    capped = {
        k: NoConvergence(f"eigenpair residual {residual:.3e} exceeds {_RESIDUAL_CAP:g}")
        for k, residual in zip(past, defect[past] / norm_a) if residual > _RESIDUAL_CAP
    }
    return defect, {**capped, **failures}


def _raise_earliest(*checks) -> None:
    """Raise the refusal at the smallest index that any check refused, the
    first check's where several refused it; ``checks`` are maps from each
    refused index to its refusal, one per check in check order."""
    if any(checks):
        k, order = min((min(errors), order) for order, errors in enumerate(checks) if errors)
        raise checks[order][k]


def _binary_scales(stack) -> np.ndarray:
    """Per matrix the finite power of two that brings its largest entry
    into [1/2, 1): a scaling that rounds no entry it keeps normal."""
    _, exps = np.frexp(np.abs(stack).max(axis=(-2, -1)))
    return np.ldexp(1.0, -np.clip(exps, -1020, 1020))


def _squares_in_range(norms) -> np.ndarray:
    """Where a Frobenius norm, or a product of two, is trusted: in 2^-400 ...
    2^400 no square of the largest entry overflows or sinks into the denormals."""
    return (2.0**-400 <= norms) & (norms <= 2.0**400)


def _worst_defect(stack, values, vectors, mismatch):
    """max_j |A v_j - lambda_j v_j| of each matrix of a stack."""
    return np.linalg.norm(mismatch(stack, values, vectors), axis=-2).max(axis=-1)


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
    _raise_earliest(errors)
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


def sqrt_hpd(matrix) -> np.ndarray:
    """Hermitian positive-definite square root U diag(s) U^dagger of A =
    U diag(s^2) U^dagger from one ``eigh``; NotPositiveDefinite where s_min^2
    is at or under ``eps_singular`` times s_max^2, the floor of ``inverse``."""
    a = as_square(matrix)
    if spectral_norm(a - a.conj().T) > 1e-12 * max(spectral_norm(a), 1e-300):
        raise NotHermitian("square root requires a Hermitian matrix")
    values, vectors = np.linalg.eigh(a)
    if values[0] <= get_tolerances().eps_singular * max(np.abs(values).max(), 1e-300):
        why = "under the definiteness floor"
        raise NotPositiveDefinite(f"smallest eigenvalue {values[0]:.3e} {why}")
    root = (vectors * np.sqrt(values)) @ vectors.conj().T
    return (root + root.conj().T) / 2


def _root_slope(vectors, roots, tangent):
    """The slope of each Hermitian root U diag(s) U^dagger along a Hermitian dA.

    The solution X of root X + X root = dA,
    U [(U^dagger dA U)_ij / (s_i + s_j)] U^dagger (Higham, *Functions of
    Matrices*, 2008), made exactly Hermitian.
    """
    left = vectors.conj().swapaxes(-1, -2)
    lift = left @ tangent @ vectors
    slope = vectors @ (lift / (roots[:, :, None] + roots[:, None, :])) @ left
    return (slope + slope.conj().swapaxes(-1, -2)) / 2
