"""Physical inner products for the corner-perturbed Hamiltonians.

The eigenvectors of the adjoint operator (the "ketkets") generate an
N-parametric family of positive metrics Theta = sum_n kappa_n
|xi_n><xi_n|.  Every such metric factorizes through a Dyson map Omega
with Theta = Omega^dagger Omega; the map is built here two ways --
stacking the ketkets row-wise, or taking the Hermitian square root of
Theta -- and either one transforms the non-Hermitian Hamiltonian into
a Hermitian partner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Tolerances, get_tolerances
from .errors import BadWeights, DefectiveAtEP, SingularDyson
from .matrix_core import (
    COND_CEILING,
    _eigen_arrays,
    _irreducible_tridiagonal,
    adjoint,
    as_square,
    eig_hermitian,
    sqrt_hpd,
)


@dataclass(frozen=True)
class KetketBasis:
    """Eigenbasis of a well's adjoint problem, one column per level.

    ``eigenvalues[j]`` belongs to ``vectors[:, j]``; levels are ordered
    by descending (real, imaginary) part so the two-site columns come
    out exactly as the closed-form Dyson map lists them.  Each column
    is scaled so one end entry equals one: row 0 for the upper half of
    the levels, row N-1 for the lower half (``_pivot_rows``).  The end
    entries of an eigenvector of the well's H^dagger never vanish, so
    the gauge is smooth wherever the levels stay apart.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray


def _pivot_rows(n: int) -> np.ndarray:
    """Row whose entry is one in each ketket column: 0 below N/2, else N-1.

    H^dagger is tridiagonal with nonzero off-diagonals, so an eigenvector
    with a vanishing first (or last) entry would vanish everywhere by the
    row recurrence; an end entry is therefore never zero, unlike the
    diagonal entry, which vanishes at N=3, 7, 8, ... when H is real.
    """
    return np.where(2 * np.arange(n) < n, 0, n - 1)


def ketkets(h) -> KetketBasis:
    """Solve the adjoint eigenvector problem that seeds every metric.

    A stack of one through ``_ketket_stack``, the stage path's solve and
    refusal.  H must be a well: complex symmetric (H^T = H) and tridiagonal
    with nonzero off-diagonals, as ``build_h`` gives at any corner value.
    The end-row gauge and the c-product bound hold only there; else ValueError.
    """
    a = as_square(h)
    if not ((a == a.T).all() and _irreducible_tridiagonal(a[None])[0]):
        raise ValueError("ketkets needs a complex symmetric tridiagonal H, no off-diagonal zero")
    values, vectors, errors = _ketket_stack(a[None])
    if errors[0] is not None:
        raise errors[0]
    return KetketBasis(eigenvalues=values[0], vectors=vectors[0])


def _ketket_stack(h: np.ndarray):
    """Adjoint eigenbases of an (m, N, N) stack of wells.

    Each basis depends on its own H alone, ordered and scaled as
    ``KetketBasis`` says.  Returns the (m, N) eigenvalues, the (m, N, N)
    columns and, per matrix, None or the DefectiveAtEP that refuses it.
    The well's H^dagger is complex symmetric, so its unit eigenvectors have
    V^T V = diag(c) and cond_2(V) <= N / min_j s_j, with s_j = |c_j| level
    j's reciprocal eigenvalue condition: refusing where that SVD-free bound
    reaches ``COND_CEILING`` refuses every matrix whose cond_2(V) does.
    """
    n = h.shape[-1]
    values, vectors, _, failures = _eigen_arrays(h.conj().swapaxes(-1, -2))
    with np.errstate(divide="ignore"):
        condition = n / np.abs(np.einsum("mij,mij->mj", vectors, vectors)).min(axis=-1)
    errors = [
        DefectiveAtEP(f"adjoint eigenproblem did not converge: {failure}") if failure
        else None if cond < COND_CEILING
        else DefectiveAtEP("eigenvector matrix is numerically singular")
        for failure, cond in zip(failures, condition)
    ]
    # the solver's ascending unit columns, read in reverse
    unit = vectors[:, :, ::-1]
    pivots = unit[:, _pivot_rows(n), np.arange(n)]
    # a failed solve holds identity columns, whose pivot entries may vanish
    pivots[[error is not None for error in errors]] = 1.0
    return values[:, ::-1], unit / pivots[:, None, :], errors


def _ketket_slope(phis, values, vectors, cprods) -> np.ndarray:
    """Exact slope dV/dphi of a stack of ketket columns in the boundary angle.

    Only the corners of H depend on phi, so the adjoint A = H^dagger has
    dA/dphi = diag(-i sin phi, 0, ..., 0, i sin phi).  Nelson's method
    (AIAA J. 14, 1976, 1201) turns that into the slope dV = V D of the
    columns V in their own gauge: with C = V^-1 dA V and the adjoint
    eigenvalues mu, D_jk = C_jk / (mu_k - mu_j) off the diagonal, and
    D_kk keeps the end-row entry of column k (``_pivot_rows``) at one.
    V^-1 = diag(1/c) V^T by the c-products ``cprods`` (``_dyson_stack``),
    so C needs only the end rows of V.
    """
    n = values.shape[-1]
    first, last = vectors[:, 0], vectors[:, -1]
    c = 1j * np.sin(phis)[:, None, None] * (
        last[:, :, None] * last[:, None, :] - first[:, :, None] * first[:, None, :]
    ) / cprods[:, :, None]
    levels = np.arange(n)
    gaps = values[:, None, :] - values[:, :, None]
    gaps[:, levels, levels] = 1.0
    d = c / gaps
    d[:, levels, levels] = 0.0
    rows = vectors[:, _pivot_rows(n)]
    d[:, levels, levels] = -np.einsum("mkj,mjk->mk", rows, d) / rows[:, levels, levels]
    return vectors @ d


def build_metric(basis: KetketBasis, kappa) -> np.ndarray:
    """Weighted ketket completeness sum Theta = sum_n kappa_n |xi_n><xi_n|.

    Any strictly positive weight vector gives a Hermitian positive
    metric; the all-ones choice is the standard member of the family.
    """
    v = as_square(basis.vectors)
    weights = np.asarray(kappa, dtype=float)
    if weights.shape != (v.shape[1],):
        raise BadWeights(
            f"need {v.shape[1]} weights, got shape {weights.shape}"
        )
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
        raise BadWeights("weights must be finite and strictly positive")
    theta = (v * weights) @ adjoint(v)
    return (theta + adjoint(theta)) / 2


def quasi_hermiticity_residual(h, theta) -> float:
    """Scale-free size of H^dagger Theta - Theta H.

    Zero exactly when the metric makes the Hamiltonian self-adjoint in
    the physical inner product <.|Theta|.>.  A stack of one through
    ``_quasi_hermiticity_stack``.
    """
    return float(_quasi_hermiticity_stack(as_square(h)[None], as_square(theta)[None])[0])


def _quasi_hermiticity_stack(h, theta) -> np.ndarray:
    """``quasi_hermiticity_residual`` of each (H, Theta) pair of two stacks."""

    def norms(stack):
        return np.linalg.norm(stack, 2, axis=(-2, -1))

    mismatch = norms(h.conj().swapaxes(-1, -2) @ theta - theta @ h)
    scale = norms(h) * norms(theta)
    unscaled = np.where(mismatch == 0.0, 0.0, np.inf)
    return np.divide(mismatch, scale, out=unscaled, where=scale != 0.0)


@dataclass(frozen=True)
class MetricBundle:
    """A metric with its Dyson factorization Theta = Omega^dagger Omega.

    ``omega_kind`` records which factorization produced ``omega``:
    ``ketket_columns`` (rows of Omega are the ketkets, diagonalizes the
    Hamiltonian into ``h_diag``; ``omega_inv`` comes from the columns'
    c-products, see ``_dyson_stack``) or ``hermitian_root`` (Omega = sqrt
    of Theta, Hermitian but not diagonalizing; ``h_diag``, ``kappa`` and
    ``omega_inv`` are absent).
    """

    theta: np.ndarray
    kappa: np.ndarray | None
    omega: np.ndarray
    omega_inv: np.ndarray | None
    omega_kind: str
    h_diag: np.ndarray | None

    @property
    def positivity_eigs(self) -> np.ndarray:
        """Metric eigenvalues, all positive for an admissible inner product."""
        return np.real(eig_hermitian(self.theta).eigenvalues)


def dyson_from_ketkets(basis: KetketBasis) -> MetricBundle:
    """Factorize the all-ones metric through the ketket-column map.

    Omega^dagger carries the ketkets as columns, so Omega H Omega^-1 is
    the diagonal matrix of paired eigenvalues: this is the map onto the
    textbook picture.  Near an exceptional point the columns become
    linearly dependent and the map stops being invertible.  The inverse
    is exact only for c-orthogonal columns (``_dyson_stack``), so a basis
    with some |v_j^T v_k| above ``eps_singular`` |v_j| |v_k| is refused.
    """
    v = as_square(basis.vectors)
    tol = get_tolerances()
    lengths = np.linalg.norm(v, axis=0)
    cross = np.abs(v.T @ v) > tol.eps_singular * np.outer(lengths, lengths)
    if cross[~np.eye(len(v), dtype=bool)].any():
        raise SingularDyson(f"ketket columns are not c-orthogonal to {tol.eps_singular:g}")
    omega, omega_inv, theta, _, errors = _dyson_stack(v[None], tol)
    if errors[0] is not None:
        raise errors[0]
    return MetricBundle(
        theta=theta[0],
        kappa=np.ones(v.shape[1]),
        omega=omega[0],
        omega_inv=omega_inv[0],
        omega_kind="ketket_columns",
        h_diag=np.diag(np.conj(basis.eigenvalues)),
    )


def _dyson_stack(vectors: np.ndarray, tol: Tolerances):
    """Ketket-column maps of an (m, N, N) stack of columns V.

    H^dagger is complex symmetric, so its eigenvectors are orthogonal
    under the bilinear c-product: V^T V = diag(c), c_j = v_j^T v_j
    (Moiseyev, *Non-Hermitian Quantum Mechanics*, 2011), and Omega =
    V^dagger has the inverse conj(V) diag(1/conj(c)).  s_j = |c_j| /
    |v_j|^2 is the reciprocal condition of level j (Wilkinson), 1/s_j^2
    its Petermann factor.  Returns Omega, its inverse, the all-ones
    metric Theta = Omega^dagger Omega, the c-products (m, N) and, per
    matrix, None or the SingularDyson that refuses a map with some s_j
    at or below ``eps_singular``.
    """
    omega = vectors.conj().swapaxes(-1, -2)
    cprods = np.einsum("mij,mij->mj", vectors, vectors)
    usable = np.abs(cprods) > tol.eps_singular * (np.abs(vectors) ** 2).sum(axis=-2)
    omega_inv = vectors.conj() / np.where(usable, cprods, 1.0).conj()[:, None, :]
    theta = vectors @ omega
    why = f"a level's reciprocal condition at or below {tol.eps_singular:g}"
    errors = [None if ok else SingularDyson(f"ketket columns nearly dependent: {why}")
              for ok in usable.all(-1)]
    return omega, omega_inv, (theta + theta.conj().swapaxes(-1, -2)) / 2, cprods, errors


def dyson_hermitian(theta) -> MetricBundle:
    """Factorize a given metric through its Hermitian square root.

    The root is the unique positive solution of Omega^2 = Theta; it
    maps the Hamiltonian to a Hermitian (generally non-diagonal)
    partner, so no diagonal representative or weight vector is
    attached to the bundle.
    """
    a = as_square(theta)
    return MetricBundle(
        theta=(a + adjoint(a)) / 2,
        kappa=None,
        omega=sqrt_hpd(a),
        omega_inv=None,
        omega_kind="hermitian_root",
        h_diag=None,
    )
