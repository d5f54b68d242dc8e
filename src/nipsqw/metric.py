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

from .errors import (
    BadWeights,
    DefectiveAtEP,
    NoConvergence,
    SingularDyson,
    SingularMatrix,
)
from .matrix_core import (
    COND_CEILING,
    EigenDecomposition,
    adjoint,
    as_square,
    eig_general,
    eig_hermitian,
    inverse,
    spectral_norm,
    sqrt_hpd,
)

#: minimum modulus of the diagonal entry before the column normalization
#: falls back to the max-modulus convention
DIAG_UNIT_FLOOR = 1e-8


@dataclass(frozen=True)
class KetketBasis:
    """Eigenbasis of the adjoint problem, one column per level.

    ``eigenvalues[j]`` belongs to ``vectors[:, j]``; levels are ordered
    by descending (real, imaginary) part so the two-site columns come
    out exactly as the closed-form Dyson map lists them.  Each column
    is scaled so its own diagonal entry equals one (max-modulus entry
    when the diagonal entry nearly vanishes).
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray


def _descending_order(values: np.ndarray) -> np.ndarray:
    return np.lexsort((-values.imag, -values.real))


def _overlap_order(vectors: np.ndarray, hint: np.ndarray) -> np.ndarray:
    """Greedy column pairing maximizing |<hint_j, v_k>| per level."""
    unit = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
    href = hint / np.linalg.norm(hint, axis=0, keepdims=True)
    scores = np.abs(adjoint(href) @ unit)
    n = scores.shape[0]
    order = np.empty(n, dtype=int)
    taken = np.zeros(n, dtype=bool)
    for j in np.argsort(-scores.max(axis=1)):
        pick = int(np.argmax(np.where(taken, -np.inf, scores[j])))
        order[j] = pick
        taken[pick] = True
    return order


def ketkets(
    h,
    *,
    order_hint: KetketBasis | None = None,
    adjoint_eig: EigenDecomposition | NoConvergence | None = None,
) -> KetketBasis:
    """Solve the adjoint eigenvector problem that seeds every metric.

    Requires a diagonalizable input; an exceptional point announces
    itself either as solver non-convergence or as an unusable
    (non-finite-condition) eigenvector matrix.  ``order_hint`` replaces
    the default descending eigenvalue order with the column pairing
    closest to a previously computed basis, keeping the family
    continuous along a time profile.  ``adjoint_eig`` is the
    ``eig_general`` result for the adjoint of ``h`` (or the NoConvergence
    that solve ended in) when the caller already has it from a stacked
    solve; only the ordering and scaling are then left to do.
    """
    dec = adjoint_eig
    if dec is None:
        try:
            dec = eig_general(adjoint(as_square(h)))
        except NoConvergence as exc:
            dec = exc
    if isinstance(dec, NoConvergence):
        raise DefectiveAtEP(f"adjoint eigenproblem did not converge: {dec}") from dec
    if not np.isfinite(dec.vector_condition) or dec.vector_condition >= COND_CEILING:
        raise DefectiveAtEP("eigenvector matrix is numerically singular")

    values = dec.eigenvalues
    vectors = dec.right_vectors
    if order_hint is not None:
        order = _overlap_order(vectors, as_square(order_hint.vectors))
    else:
        order = _descending_order(values)
    values = values[order]
    vectors = vectors[:, order]

    unit = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
    levels = np.arange(unit.shape[1])
    pivots = unit[levels, levels]
    largest = unit[np.argmax(np.abs(unit), axis=0), levels]
    pivots = np.where(np.abs(pivots) < DIAG_UNIT_FLOOR, largest, pivots)
    return KetketBasis(eigenvalues=values, vectors=unit / pivots)


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
    the physical inner product <.|Theta|.>.
    """
    a = as_square(h)
    t = as_square(theta)
    mismatch = spectral_norm(adjoint(a) @ t - t @ a)
    scale = spectral_norm(a) * spectral_norm(t)
    if scale == 0.0:
        return 0.0 if mismatch == 0.0 else float("inf")
    return mismatch / scale


@dataclass(frozen=True)
class MetricBundle:
    """A metric with its Dyson factorization Theta = Omega^dagger Omega.

    ``omega_kind`` records which factorization produced ``omega``:
    ``ketket_columns`` (rows of Omega are the ketkets, diagonalizes the
    Hamiltonian into ``h_diag``; ``omega_inv`` is the inverse its
    invertibility check computed) or ``hermitian_root`` (Omega = sqrt
    of Theta, Hermitian but not diagonalizing; ``h_diag``, ``kappa``
    and ``omega_inv`` are absent).
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
    linearly dependent and the map stops being invertible.
    """
    v = as_square(basis.vectors)
    omega = adjoint(v)
    try:
        omega_inv = inverse(omega)
    except SingularMatrix as exc:
        raise SingularDyson(f"ketket columns nearly dependent: {exc}") from exc
    kappa = np.ones(v.shape[1])
    return MetricBundle(
        theta=build_metric(basis, kappa),
        kappa=kappa,
        omega=omega,
        omega_inv=omega_inv,
        omega_kind="ketket_columns",
        h_diag=np.diag(np.conj(basis.eigenvalues)),
    )


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
