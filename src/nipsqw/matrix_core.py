"""Dense complex linear algebra for small matrices (N <= ~64).

Everything operates on plain square numpy arrays; results come back as
new arrays or as :class:`EigenDecomposition` records.  The general
eigensolver works on stacks: ``_eigen_arrays`` solves an (m, N, N) array
of same-size matrices at once and without an SVD, ``_decompose_arrays``
adds the SVD diagnostics, and ``eig_general`` is a stack of one through
it.  Tridiagonal inputs get a dedicated path: the dense-solver eigenvalues
are polished by simultaneous Newton corrections on the characteristic
polynomial, evaluated through its three-term recurrence in extended
precision, and each eigenvector comes from the same recurrence, run from
both ends and joined at its best twist row.  The polish resolves nearly
coalescing pairs far below the noise floor of a one-shot dense solve,
which matters for exceptional-point diagnostics; roots it cannot tell
apart refuse the matrix as defective.  Failures are kept per matrix, so
one defective matrix never fails the rest of its stack.
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
_EPS_LD = float(np.finfo(np.longdouble).eps)

MAX_DIM = 64
CHAR_POLY_MAX_DIM = 16  # coefficient growth guard
_RESIDUAL_CAP = 1e-10   # accepted-decomposition bound
#: matrix entries per chunk of a stacked eigen-solve: the smallest size at
#: which the decompositions, not the work arrays, set a large scan's peak
#: memory; speed is flat from 1 << 14 to one unbounded chunk
_CHUNK_ENTRIES = 1 << 16

#: eigenvector conditions at or above this read as infinite (a singular V
#: rounds to ~1/eps, not inf, under the SVD); every ketket solve holds its
#: SVD-free bound N / min_j s_j to it (``metric._ketket_stack``)
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


def _tridiag_char_and_deriv(diag, offprod, x):
    """p(x) = det(T - x I) and p'(x) for every estimate of every matrix.

    Continuant recurrence D_k = (d_k - x) D_{k-1} - e_{k-1} D_{k-2} with
    e = sub*super products, run in extended precision so that clustered
    roots of the characteristic polynomial stay resolvable.  ``diag`` is
    (m, N), ``offprod`` (m, N-1) and ``x`` (m, N).
    """
    p_prev = np.zeros_like(x)
    p = np.ones_like(x)
    q_prev = np.zeros_like(x)
    q = np.zeros_like(x)
    for k in range(diag.shape[1]):
        a_k = diag[:, k, None] - x
        e_k = offprod[:, k - 1, None] if k > 0 else 0.0
        p_next = a_k * p - e_k * p_prev
        q_next = a_k * q - p - e_k * q_prev
        p_prev, p = p, p_next
        q_prev, q = q, q_next
    return p, q


def _aberth_polish(diag, offprod, seeds):
    """Simultaneous Newton (Aberth) refinement of every matrix's roots.

    Simple roots converge quadratically to the hard threshold; multiple
    roots converge linearly until the polynomial's rounding floor, where
    the steps stop shrinking -- that stall is accepted as converged once
    the step is already at the square-root-of-epsilon scale.  A matrix
    leaves the sweep as soon as all its roots have converged, so its
    roots do not depend on the rest of the stack.  Returns the roots and
    the per-matrix convergence mask.
    """
    m, n = seeds.shape
    roots = seeds.astype(_CLD)
    converged = np.zeros(m, dtype=bool)
    live = np.arange(m)
    x = roots
    prev_step = np.full((m, n), np.inf, dtype=np.longdouble)
    off_diagonal = ~np.eye(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(100 * n):  # a budget of 100 N^2 root updates
            p, dp = _tridiag_char_and_deriv(diag, offprod, x)
            w = np.where(dp != 0, p / dp, 0.0)
            diffs = x[:, :, None] - x[:, None, :]
            repulsion = np.where((diffs != 0) & off_diagonal, 1.0 / diffs, 0.0)
            denom = 1.0 - w * repulsion.sum(axis=-1)
            delta = np.where(denom != 0, w / denom, w)
            x = x - delta
            step = np.abs(delta)
            scale = 1.0 + np.abs(x)
            tight = step <= 4.0 * _EPS_LD * scale
            stalled = (step <= np.sqrt(_EPS_LD) * scale) & (step > 0.7 * prev_step)
            done = (tight | stalled).all(axis=1)
            if done.any():
                roots[live[done]] = x[done]
                converged[live[done]] = True
                keep = ~done
                live, x, step = live[keep], x[keep], step[keep]
                diag, offprod = diag[keep], offprod[keep]
                if not live.size:
                    break
            prev_step = step
    return roots, converged


def _twisted_vectors(a: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Right eigenvectors of irreducible tridiagonal matrices, unnormalized.

    For each shift T - lambda, the top-down pivots D+ and the bottom-up
    pivots D- of its two bidiagonal factorizations, kept in ratio form so
    no continuant can overflow, meet at the twist row k that minimizes
    |D+_k + D-_k - (d_k - lambda)|, the residual of the one row the
    vector leaves unsolved (Fernando, SIAM J. Matrix Anal. Appl. 18,
    1997, 1013; Dhillon & Parlett, Linear Algebra Appl. 387, 2004, 1).
    The vector is one at row k and built outward through the three-term
    recurrence: v_i = -u_i v_(i+1) / D+_i above k, v_i = -l_(i-1) v_(i-1)
    / D-_i below it, with d, l and u the diagonal, sub- and superdiagonal.
    An exactly zero pivot becomes eps (1 + |lambda|), as in LAPACK's
    stegr.  Every shift is its own system, so a vector does not depend on
    the rest of the stack; one that overflows comes out non-finite.
    Returns the (m, N, N) columns, one per value.
    """
    n = a.shape[-1]
    sub = np.diagonal(a, -1, 1, 2)[:, :, None]
    sup = np.diagonal(a, 1, 1, 2)[:, :, None]
    offprod = sub * sup
    # [matrix, row, level]
    shifted = np.diagonal(a, 0, 1, 2)[:, :, None] - values[:, None, :]
    tiny = np.finfo(float).eps * (1.0 + np.abs(values))
    plus = shifted.copy()
    minus = shifted.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(n - 1):
            plus[:, i] = np.where(plus[:, i] == 0, tiny, plus[:, i])
            plus[:, i + 1] -= offprod[:, i] / plus[:, i]
            j = n - 1 - i
            minus[:, j] = np.where(minus[:, j] == 0, tiny, minus[:, j])
            minus[:, j - 1] -= offprod[:, j - 1] / minus[:, j]
        twist = np.abs(plus + minus - shifted).argmin(axis=1)[:, None, :]
        rows = np.arange(n)[None, :, None]
        # v_i is the product of the ratios between row i and the twist
        up = np.where(rows[:, :-1] < twist, -sup / plus[:, :-1], 1.0)
        down = np.where(rows[:, 1:] > twist, -sub / minus[:, 1:], 1.0)
        one = np.ones_like(up[:, :1])
        above = np.cumprod(np.concatenate([up, one], axis=1)[:, ::-1], axis=1)[:, ::-1]
        return above * np.cumprod(np.concatenate([one, down], axis=1), axis=1)


def _tridiag_eig(a: np.ndarray):
    """Continuant-polished roots, plus twisted-recurrence vectors.

    Returns the values, the vectors and per matrix None or its
    NoConvergence.  A matrix whose polish did not converge gets NaN
    values.  An irreducible tridiagonal matrix has one eigenvector per
    eigenvalue, so two roots that the polish cannot tell apart -- closer
    than the sum of their stall floors sqrt(eps_ld) (1 + |lambda|) --
    mark it defective and refuse it.  Such a matrix, and one with a
    non-finite vector, keeps its values.
    """
    n = a.shape[-1]
    seeds = np.linalg.eigvals(a)
    diag = np.diagonal(a, 0, 1, 2).astype(_CLD)
    offprod = (np.diagonal(a, 1, 1, 2) * np.diagonal(a, -1, 1, 2)).astype(_CLD)
    roots, converged = _aberth_polish(diag, offprod, seeds)
    values = roots.astype(complex)
    vecs = _twisted_vectors(a, values)
    gaps = np.abs(values[:, :, None] - values[:, None, :]) + np.diag(np.full(n, np.inf))
    floor = np.sqrt(_EPS_LD) * (1.0 + np.abs(values))
    close = (gaps < floor[:, :, None] + floor[:, None, :]).any(axis=-1)
    broken = ~np.isfinite(vecs).all(axis=1)
    errors = [
        NoConvergence(f"root polish exhausted {100 * n * n} iterations") if not ok
        else NoConvergence(f"coalescing eigenvalues at {values[k, c.argmax()]}: defective")
        if c.any()
        else NoConvergence(f"no finite eigenvector at eigenvalue {values[k, b.argmax()]}")
        if b.any() else None
        for k, (ok, c, b) in enumerate(zip(converged, close, broken))
    ]
    values[~converged] = np.nan
    return values, vecs, errors


def _dense_eig(a: np.ndarray):
    """LAPACK on the whole stack; one matrix at a time if any one fails.

    A matrix that LAPACK fails gets NaN values.
    """
    try:
        values, vecs = np.linalg.eig(a)
        return values, vecs, [None] * len(a)
    except np.linalg.LinAlgError as exc:
        if len(a) == 1:
            values = np.full(a.shape[:2], np.nan, dtype=complex)
            return values, a.copy(), [NoConvergence(str(exc))]
    values, vecs, errors = zip(*(_dense_eig(matrix[None]) for matrix in a))
    return np.concatenate(values), np.concatenate(vecs), [error for (error,) in errors]


def _irreducible_tridiagonal(stack: np.ndarray) -> np.ndarray:
    """Per matrix of an (m, N, N) stack: tridiagonal, no off-diagonal product zero."""
    rows, cols = np.indices(stack.shape[1:])
    offprod = np.diagonal(stack, 1, 1, 2) * np.diagonal(stack, -1, 1, 2)
    return ~(stack[:, np.abs(rows - cols) > 1].any(axis=-1) | (offprod == 0).any(axis=-1))


def _eig_stack(stack: np.ndarray):
    """Unsorted eigenpairs of an (m, N, N) stack, with failures per matrix.

    Returns the (m, N) eigenvalues, the (m, N, N) right eigenvectors and,
    per matrix, None or the NoConvergence its solve ended in.  A failed
    matrix holds identity vectors, so it never spoils its neighbours; it
    keeps its eigenvalues when only its vectors failed, and holds NaN
    values when its values failed (a root polish that did not converge,
    or a LAPACK failure).  Closed form at N=2; continuant-polished roots
    and twisted-recurrence vectors for each irreducible tridiagonal
    matrix, the dense solver for the rest (a zero off-diagonal product
    makes a tridiagonal matrix reducible), so a matrix's result does not
    depend on the others in its stack.  Each kind is solved in chunks
    that keep the work arrays near 1 MB.
    """
    m, n, _ = stack.shape
    if n > MAX_DIM:
        raise OutOfRange(f"dimension {n} exceeds the supported maximum {MAX_DIM}")
    if n == 1:
        return stack[:, 0].copy(), np.ones((m, 1, 1), dtype=complex), [None] * m
    if n == 2:
        values, vecs = _eig2_closed_form(stack)
        return values, vecs, [None] * m
    dense = ~_irreducible_tridiagonal(stack)
    chunk = max(1, _CHUNK_ENTRIES // (n * n))
    values = np.empty((m, n), dtype=complex)
    vecs = np.empty((m, n, n), dtype=complex)
    errors = [None] * m
    for solve, kind in ((_dense_eig, dense), (_tridiag_eig, ~dense)):
        members = np.flatnonzero(kind)
        for part in (members[lo:lo + chunk] for lo in range(0, len(members), chunk)):
            values[part], vecs[part], part_errors = solve(stack[part])
            for k, error in zip(part, part_errors):
                errors[k] = error
    vecs[[error is not None for error in errors]] = np.eye(n)
    return values, vecs, errors


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
    n = stack.shape[-1]
    values, vectors, errors = _eig_stack(stack)
    order = np.lexsort((values.imag, values.real), axis=-1)
    values = np.take_along_axis(values, order, axis=-1)
    vectors = np.take_along_axis(vectors, order[:, None, :], axis=-1)
    vectors = vectors / np.linalg.norm(vectors, axis=-2, keepdims=True)
    defect = np.linalg.norm(stack @ vectors - vectors * values[:, None, :], axis=-2)
    defect = defect.max(axis=-1)
    # the residual cap: |A|_F / sqrt(N) <= |A|_2, so only a defect past that
    # bound needs the SVD's |A|_2; the slack keeps rounding from passing one
    bound = _RESIDUAL_CAP * (1 - 1e-9) * np.linalg.norm(stack, axis=(-2, -1)) / np.sqrt(n)
    past = [k for k, error in enumerate(errors) if error is None and not defect[k] <= bound[k]]
    norm_a = np.linalg.svd(stack[past], compute_uv=False)[:, 0] if past else []
    for k, residual in zip(past, defect[past] / norm_a):
        if residual > _RESIDUAL_CAP:
            errors[k] = NoConvergence(
                f"eigenpair residual {residual:.3e} exceeds {_RESIDUAL_CAP:g}"
            )
    return values, vectors, defect, errors


def _decompose_arrays(stack: np.ndarray):
    """``_eigen_arrays`` plus the diagnostics of ``eig_general``, from one SVD.

    Returns (values, vectors, condition, residual, errors), with the vector
    condition cond_2(V) and the residual |A v - lambda v| / |A|_2 (m,).
    """
    m = len(stack)
    values, vectors, defect, errors = _eigen_arrays(stack)
    sv = np.linalg.svd(np.concatenate([stack, vectors]), compute_uv=False)
    norm_a, sv = sv[:m, 0], sv[m:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        residual = np.where(norm_a > 0, defect / norm_a, defect)
        condition = sv[:, 0] / sv[:, -1]
    condition[~np.isfinite(condition)] = np.inf
    return values, vectors, condition, residual, errors


def _decompose_stack(stack: np.ndarray) -> list:
    """Entry k is the EigenDecomposition of ``stack[k]``, or its NoConvergence."""
    values, vectors, condition, residual, errors = _decompose_arrays(stack)
    return [
        error or EigenDecomposition(
            values[k], vectors[k], float(condition[k]), float(residual[k])
        )
        for k, error in enumerate(errors)
    ]


def eig_general(matrix) -> EigenDecomposition:
    """Full non-Hermitian eigendecomposition with quality diagnostics.

    A stack of one through the stacked route (``_decompose_stack``):
    closed form at N=2, continuant-polished roots plus twisted-recurrence
    vectors for irreducible tridiagonal matrices, dense solver otherwise.
    Raises NoConvergence when the residual contract cannot be met, and
    for a tridiagonal input whose roots coalesce (a defective matrix);
    other defective inputs announce themselves through
    ``vector_condition``.
    """
    result = _decompose_stack(as_square(matrix)[None])[0]
    if isinstance(result, NoConvergence):
        raise result
    return result


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
    ``tangent`` dA, returns the pair (root, dRoot).
    """
    a = as_square(matrix)
    tol = tol if tol is not None else get_tolerances()
    if spectral_norm(a - a.conj().T) > 1e-12 * max(spectral_norm(a), 1e-300):
        raise NotHermitian("square root requires a Hermitian matrix")
    lift = None if tangent is None else np.asarray(tangent)[None]
    root, _, slope, errors = _sqrt_hpd_stack(a[None], tol, lift)
    if errors[0] is not None:
        raise errors[0]
    return root[0] if tangent is None else (root[0], slope[0])


def _sqrt_hpd_stack(stack: np.ndarray, tol: Tolerances, tangent=None):
    """(root, inverse, slope or None, errors) of an (m, N, N) Hermitian stack.

    One ``eigh`` per matrix, A = U diag(s^2) U^dagger, gives the root
    U diag(s) U^dagger, its inverse U diag(1/s) U^dagger and, along a
    Hermitian ``tangent`` stack dA, the root's slope: the solution X of
    root X + X root = dA, U [(U^dagger dA U)_ij / (s_i + s_j)] U^dagger
    (Higham, *Functions of Matrices*, 2008).  errors[k] is None, or
    NotPositiveDefinite when s_min^2 is under ``eps_pd`` of s_max^2.
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
    slope = None
    if tangent is not None:
        lift = left @ tangent @ vectors
        slope = vectors @ (lift / (roots[:, :, None] + roots[:, None, :])) @ left
        slope = (slope + slope.conj().swapaxes(-1, -2)) / 2
    return (root + root.conj().swapaxes(-1, -2)) / 2, inv, slope, errors


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
