"""Dense complex linear algebra for small matrices (N <= ~64).

Everything operates on plain square numpy arrays; results come back as
new arrays or as :class:`EigenDecomposition` records.  The general
eigensolver works on stacks: ``_decompose_stack`` takes an (m, N, N)
array of same-size matrices and does every step for the whole stack at
once, and ``eig_general`` is a stack of one.  Tridiagonal inputs get a
dedicated path: the dense-solver eigenvalues of the stack are polished
by simultaneous Newton corrections on the characteristic polynomial,
evaluated through its three-term recurrence in extended precision, and
the eigenvectors come from inverse iteration with one vectorized
pivoting LU over all m*N shifted systems.  The polish resolves nearly
coalescing pairs far below the noise floor of a one-shot dense solve,
which matters for exceptional-point diagnostics.  Failures are kept per
matrix, so one defective matrix never fails the rest of its stack.
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
_RESIDUAL_CAP = 1e-10   # accepted-decomposition bound, enforced for N <= 16
#: matrix entries per chunk of a stacked eigen-solve: the smallest size at
#: which the decompositions, not the work arrays, set a large scan's peak
#: memory; speed is flat from 1 << 14 to one unbounded chunk
_CHUNK_ENTRIES = 1 << 16

#: eigenvector condition numbers at or above this are indistinguishable
#: from infinity in double precision (an exactly singular matrix rounds
#: to ~1/eps rather than inf under the SVD)
COND_CEILING = 1e15


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
    return np.lexsort((values.imag, values.real), axis=-1)


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


def _cabs1(z: np.ndarray) -> np.ndarray:
    return np.abs(z.real) + np.abs(z.imag)


def _tridiag_lu(sub, diag, sup):
    """LU with partial pivoting of many tridiagonal systems at once.

    LAPACK's gttrf recipe with one system per column: ``diag`` is (N, S),
    ``sub`` and ``sup`` are (N-1, S).  Returns the factors (multipliers,
    the three diagonals of U, row swaps) and the mask of systems with an
    exactly zero pivot.  Both branches of each pivot choice are computed,
    so the division warnings of the branch not taken are silenced.
    """
    n = diag.shape[0]
    d = diag.copy()
    du = sup.copy()
    du2 = np.zeros_like(sub)  # second superdiagonal of U; last row unused
    mult = np.empty_like(sub)
    swap = np.empty(sub.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(n - 1):
            pivot, below, upper, nxt = d[i], sub[i], du[i], d[i + 1]
            s = _cabs1(pivot) < _cabs1(below)
            fact = np.where(s, pivot / below, below / pivot)
            new_next = np.where(s, upper - fact * nxt, nxt - fact * upper)
            d[i] = np.where(s, below, pivot)
            du[i] = np.where(s, nxt, upper)
            d[i + 1] = new_next
            if i < n - 2:
                du2[i] = np.where(s, du[i + 1], 0.0)
                du[i + 1] = np.where(s, -fact * du[i + 1], du[i + 1])
            mult[i] = fact
            swap[i] = s
    return (mult, d, du, du2, swap), np.any(d == 0, axis=0)


def _tridiag_solve(factors, b):
    """Solve with ``_tridiag_lu`` factors (LAPACK's gttrs recipe).

    Singular systems come out non-finite, without warnings.
    """
    mult, d, du, du2, swap = factors
    n = d.shape[0]
    b = b + np.zeros_like(d)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(n - 1):
            top = np.where(swap[i], b[i + 1], b[i])
            b[i + 1] = np.where(swap[i], b[i], b[i + 1]) - mult[i] * top
            b[i] = top
        b[n - 1] = b[n - 1] / d[n - 1]
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
        for i in range(n - 3, -1, -1):
            b[i] = (b[i] - du[i] * b[i + 1] - du2[i] * b[i + 2]) / d[i]
    return b


def _column_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean column norms, summed in row order whatever the width.

    (numpy's own reduction switches to pairwise order for one column,
    which would make a vector depend on how many systems share a solve.)
    """
    squares = (v.conj() * v).real
    total = squares[0].copy()
    for row in squares[1:]:
        total += row
    return np.sqrt(total)


def _inverse_iteration_start(n: int) -> np.ndarray:
    # deterministic start with no symmetry under index reversal, so it
    # overlaps every eigenvector of a persymmetric matrix
    k = np.arange(n)
    v = np.cos(0.9 * k + 0.4) + 1j * np.sin(1.7 * k + 0.8)
    return v / np.linalg.norm(v)


def _inverse_iteration(a: np.ndarray, values: np.ndarray):
    """Right eigenvectors of tridiagonal matrices by inverse iteration.

    All m*N shifted systems T - lambda are factored together and swept
    twice from a fixed start.  A system that hits an exactly zero pivot
    or a non-finite vector has its shift nudged deterministically and is
    retried, three tries in all.  Returns the (m, N, N) vectors and, per
    matrix, the index of the first eigenvalue whose vector failed (-1
    when none did).
    """
    m, n = values.shape
    sub = np.diagonal(a, -1, 1, 2).T
    diag = np.diagonal(a, 0, 1, 2).T
    sup = np.diagonal(a, 1, 1, 2).T
    lam = values.reshape(-1)  # system s solves for level s % n of matrix s // n
    shift = np.zeros_like(lam)
    owner = np.repeat(np.arange(m), n)
    vectors = np.empty((n, m * n), dtype=complex)
    start = _inverse_iteration_start(n)[:, None]
    todo = np.arange(m * n)
    for attempt in range(3):
        if attempt:
            # exactly singular shift; nudge deterministically and retry
            shift[todo] += 1e-13 * (1.0 + np.abs(lam[todo])) * (1.0 + 1.0j)
        cols = owner[todo]
        factors, singular = _tridiag_lu(
            sub[:, cols], diag[:, cols] - (lam[todo] + shift[todo]), sup[:, cols]
        )
        v = start
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(2):
                v = _tridiag_solve(factors, v)
                v = v / _column_norms(v)
        ok = ~singular & np.isfinite(v).all(axis=0)
        vectors[:, todo[ok]] = v[:, ok]
        todo = todo[~ok]
        if not todo.size:
            break
    first_failed = np.full(m, -1)
    for s in todo[::-1]:
        first_failed[s // n] = s % n
    return vectors.reshape(n, m, n).transpose(1, 0, 2), first_failed


def _tridiag_eig(a: np.ndarray, vectors: bool):
    """Continuant-polished roots, plus inverse iteration for the vectors."""
    n = a.shape[-1]
    seeds = np.linalg.eigvals(a)
    diag = np.diagonal(a, 0, 1, 2).astype(_CLD)
    offprod = (np.diagonal(a, 1, 1, 2) * np.diagonal(a, -1, 1, 2)).astype(_CLD)
    roots, converged = _aberth_polish(diag, offprod, seeds)
    values = roots.astype(complex)
    errors = [
        None if ok else NoConvergence(f"root polish exhausted {100 * n * n} iterations")
        for ok in converged
    ]
    if not vectors:
        return values, None, errors
    vecs, first_failed = _inverse_iteration(a, values)
    for k, level in enumerate(first_failed):
        if level >= 0 and errors[k] is None:
            errors[k] = NoConvergence(
                f"inverse iteration failed at eigenvalue {values[k, level]}"
            )
    return values, vecs, errors


def _dense_eig(a: np.ndarray, vectors: bool):
    """LAPACK on the whole stack; one matrix at a time if any one fails."""
    try:
        if vectors:
            values, vecs = np.linalg.eig(a)
        else:
            values, vecs = np.linalg.eigvals(a), None
        return values, vecs, [None] * len(a)
    except np.linalg.LinAlgError as exc:
        if len(a) == 1:
            vecs = a.copy() if vectors else None
            return np.zeros(a.shape[:2], dtype=complex), vecs, [NoConvergence(str(exc))]
    values, vecs, errors = zip(*(_dense_eig(matrix[None], vectors) for matrix in a))
    vecs = np.concatenate(vecs) if vectors else None
    return np.concatenate(values), vecs, [error for (error,) in errors]


def _eig_stack(stack: np.ndarray, vectors: bool):
    """Unsorted eigenvalues of an (m, N, N) stack, with failures per matrix.

    Returns the (m, N) eigenvalues, the (m, N, N) right eigenvectors
    when ``vectors`` (else None), and per matrix None or the
    NoConvergence its solve ended in; a failed matrix holds the values
    0 and identity vectors, so it never spoils its neighbours.  Closed
    form at N=2; continuant-polished roots (plus inverse iteration for
    the vectors) when every matrix of the stack is tridiagonal, the
    dense solver otherwise.  The stack is solved in chunks that keep the
    work arrays near 1 MB.
    """
    m, n, _ = stack.shape
    if n > MAX_DIM:
        raise OutOfRange(f"dimension {n} exceeds the supported maximum {MAX_DIM}")
    if n == 1:
        return stack[:, 0].copy(), np.ones((m, 1, 1), dtype=complex), [None] * m
    if n == 2:
        values, vecs = _eig2_closed_form(stack)
        return values, vecs, [None] * m
    off_band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > 1
    solve = _dense_eig if stack[:, off_band].any() else _tridiag_eig
    chunk = max(1, _CHUNK_ENTRIES // (n * n))
    # an empty stack still makes one (empty) call, so the shapes come out right
    parts = [solve(stack[lo:lo + chunk], vectors) for lo in range(0, max(m, 1), chunk)]
    values = np.concatenate([part[0] for part in parts])
    vecs = np.concatenate([part[1] for part in parts]) if vectors else None
    errors = [error for part in parts for error in part[2]]
    for k, error in enumerate(errors):
        if error is not None:
            values[k] = 0.0
            if vectors:
                vecs[k] = np.eye(n)
    return values, vecs, errors


def _eigvals_stack(stack: np.ndarray):
    """Sorted eigenvalues of a stack, with the per-matrix failures."""
    values, _, errors = _eig_stack(stack, vectors=False)
    return np.take_along_axis(values, _ascending_order(values), axis=-1), errors


def _eigvals_general(matrix) -> np.ndarray:
    """Eigenvalues only, same dispatch as ``eig_general``, no vector gate.

    Defective matrices have well-conditioned eigenvalue clusters even
    when no acceptable eigenvector basis exists, so diagnostics that
    need gaps (not vectors) can still use this after ``eig_general``
    refuses.
    """
    values, errors = _eigvals_stack(as_square(matrix)[None])
    if errors[0] is not None:
        raise errors[0]
    return values[0]


def _decompose_stack(stack: np.ndarray) -> list:
    """``eig_general`` for every matrix of an (m, N, N) stack at once.

    Entry k is the decomposition of ``stack[k]``, or the NoConvergence
    that ``eig_general(stack[k])`` raises.  (A stack that mixes
    tridiagonal and other matrices goes through the dense solver as a
    whole; every caller's stack is one kind or the other.)
    """
    m, n, _ = stack.shape
    values, vectors, errors = _eig_stack(stack, vectors=True)
    order = _ascending_order(values)
    values = np.take_along_axis(values, order, axis=-1)
    vectors = np.take_along_axis(vectors, order[:, None, :], axis=-1)
    vectors = vectors / np.linalg.norm(vectors, axis=-2, keepdims=True)

    # one SVD call gives the spectral norms and the vector conditions
    sv = np.linalg.svd(np.concatenate([stack, vectors]), compute_uv=False)
    norm_a, sv = sv[:m, 0], sv[m:]
    defect = np.linalg.norm(stack @ vectors - vectors * values[:, None, :], axis=-2)
    defect = defect.max(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        residual = np.where(norm_a > 0, defect / norm_a, defect)
        condition = sv[:, 0] / sv[:, -1]
    condition[~np.isfinite(condition)] = np.inf

    results = []
    for k, error in enumerate(errors):
        if error is None and n <= 16 and residual[k] > _RESIDUAL_CAP:
            error = NoConvergence(
                f"eigenpair residual {residual[k]:.3e} exceeds {_RESIDUAL_CAP:g}"
            )
        results.append(error or EigenDecomposition(
            values[k], vectors[k], float(condition[k]), float(residual[k])
        ))
    return results


def eig_general(matrix) -> EigenDecomposition:
    """Full non-Hermitian eigendecomposition with quality diagnostics.

    A stack of one through the stacked route (``_decompose_stack``):
    closed form at N=2, continuant-polished roots plus inverse iteration
    for tridiagonal matrices, dense solver otherwise.  Raises
    NoConvergence when the residual contract cannot be met; a defective
    input announces itself through ``vector_condition`` instead.
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
