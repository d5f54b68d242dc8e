"""Physical inner products for the corner-perturbed Hamiltonians.

The eigenvectors of the adjoint operator (the "ketkets") generate an
N-parametric family of positive metrics Theta = sum_n kappa_n
|xi_n><xi_n|.  Every such metric factorizes through a Dyson map Omega
with Theta = Omega^dagger Omega, which maps the non-Hermitian Hamiltonian
to a Hermitian partner.  ``dyson_from_ketkets`` builds the map whose rows
are the ketkets, for the all-ones metric; ``matrix_core.sqrt_hpd`` gives
the Hermitian square root of any metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Tolerances, get_tolerances
from .errors import BadWeights, DefectiveAtEP, NoConvergence, OutOfRange, SingularDyson
from .hamiltonian import build_h, z_from_r
from .matrix_core import (
    COND_CEILING,
    _binary_scales,
    _eigen_arrays,
    _raise_earliest,
    _residual_refusals,
    adjoint,
    as_square,
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
    the gauge is smooth wherever the levels stay apart.  A driven well
    takes the closed form at every N (``_well_ketket_stack``), every other
    well the eigensolver of ``matrix_core`` on H^dagger (``ketkets``).
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
    return np.array([0] * ((n + 1) // 2) + [n - 1] * (n // 2))


def ketkets(h) -> KetketBasis:
    """Solve the adjoint eigenvector problem that seeds every metric.

    H must be a well (``_as_well``), else ValueError.  A driven well, two
    sites included, is solved in closed form at the coupling its corner
    gives (``_driven_coupling``, ``_well_ketket_stack``); any other well by
    ``_eigen_arrays`` on H^dagger, whose ascending unit columns are read in
    reverse, with the stage path's gauge and refusal (``_gauged_bases``).
    It solves the matrix it is given; the stage path takes the coupling
    from the angle instead, and so differs near the exceptional point by
    the rounding of cos phi in H's corner, about 1e-4 relative in kappa at
    sin phi = 1e-6.  A refused well raises DefectiveAtEP, or OutOfRange
    where an end entry rounds to zero.
    """
    a = _as_well(h)
    r = _driven_coupling(a)
    if r is not None:
        values, vectors, errors = _well_ketket_stack(a[None], [r])
    else:
        values, vectors, _, failures = _eigen_arrays(a[None].conj().swapaxes(-1, -2))
        values, vectors, errors = _gauged_bases(values[:, ::-1], vectors[:, :, ::-1], failures)
    _raise_earliest(errors)
    return KetketBasis(eigenvalues=values[0], vectors=vectors[0])


def _as_well(h) -> np.ndarray:
    """H as a square array if it is a well of two or more sites, else ValueError:
    complex symmetric (H^T = H) and tridiagonal with nonzero off-diagonals, as
    ``build_h`` gives at any corner value, where ``ketkets``'s gauge holds."""
    a = as_square(h)
    rows, cols = np.indices(a.shape)
    offprod = np.diagonal(a, 1) * np.diagonal(a, -1)
    if not (len(a) > 1 and (a == a.T).all() and (offprod != 0).all()
            and not a[np.abs(rows - cols) > 1].any()):
        raise ValueError("H must be a complex symmetric tridiagonal well, no off-diagonal zero")
    return a


def _driven_coupling(h: np.ndarray):
    """The coupling sqrt(1 - c^2) of a driven well, build_h(N, i c) with |c| <= 1,
    by ``z_from_r`` (c and r enter alike); None for any other well."""
    c = h[-1, -1].imag
    if abs(c) <= 1.0 and (h == build_h(len(h), 1j * c)).all():
        return z_from_r(c).imag
    return None


def _gauged_bases(values, unit, failures):
    """Descending adjoint eigenbases in the end-row gauge, with their refusals.

    ``unit`` (m, N, N) holds one unit eigenvector of H^dagger per value of
    ``values`` (m, N), both in descending order; ``failures`` maps each
    matrix whose solve failed to its NoConvergence.  The well's H^dagger is
    complex symmetric, so its unit eigenvectors have V^T V = diag(c) and
    cond_2(V) <= N / min_j s_j, with s_j = |c_j| level j's reciprocal
    eigenvalue condition.  A failed solve becomes DefectiveAtEP, and so
    does a matrix whose SVD-free bound reaches ``COND_CEILING``: that
    refuses every matrix whose cond_2(V) does.  Any other matrix with a
    pivot entry below the smallest normal double, NaN included, becomes
    OutOfRange: far outside the unit circle a level localized at one
    corner can have its far end entry round to zero.  A vanished pivot,
    as a failed solve's identity columns hold, is taken as one.  Returns
    the values, the columns scaled as ``KetketBasis`` says and the map from
    each refused matrix to its refusal, a failed solve's over the others.
    """
    n = unit.shape[-1]
    with np.errstate(divide="ignore"):
        condition = n / np.abs(np.einsum("mij,mij->mj", unit, unit)).min(axis=-1)
    singular = ~(condition < COND_CEILING)
    pivots = unit[:, _pivot_rows(n), np.arange(n)]
    vanished = ~(np.abs(pivots) >= np.finfo(float).tiny)
    errors = {
        k: DefectiveAtEP("eigenvector matrix is numerically singular") if singular[k]
        else OutOfRange(f"end entry of level {np.argmax(vanished[k])} rounds to zero")
        for k in np.flatnonzero(singular | vanished.any(axis=-1)).tolist()
    }
    pivots[vanished] = 1.0
    unsolved = {k: _unsolved(failure) for k, failure in failures.items()}
    return values, unit / pivots[:, None, :], {**errors, **unsolved}


def _unsolved(failure) -> DefectiveAtEP:
    """The refusal of a well whose eigen solve failed with ``failure``."""
    return DefectiveAtEP(f"adjoint eigenproblem did not converge: {failure}")


#: Newton steps the angle solve of ``_well_angles`` may take
_ANGLE_STEPS = 60


def _well_angles(n: int, r):
    """Angles u_k = pi/2 - theta_k of the levels below E = 2 of driven wells.

    The well with corner z = i cos phi has the levels E_k = 2 - 2 cos theta_k,
    where theta_k is the one root of N theta + arg(cos theta + i kappa sin
    theta) = k pi in ((k-1) pi/N, k pi/N), with kappa = r^2 / (2 - r^2) and
    the coupling r = sin phi (Znojil, J. Math. Phys. 50, 2009, 122105; Yueh,
    Appl. Math. E-Notes 5, 2005, 66), at every N >= 2.  kappa comes from r
    as given: the stage path passes sin phi and ``ep_scan`` its grid, since
    1 - |z|^2 from a rounded corner loses the pair that meets at r = 0
    below r ~ 1e-4.  The levels are symmetric about E = 2 and an odd N has
    one at exactly 2, so only k = 1 ... floor(N/2) are solved, each in
    u = pi/2 - theta, where the pair nearest E = 2 keeps its relative
    precision:
    g(u) = N u - j pi - atan2(kappa cos u, sin u) = 0 on [j pi/N, (j+1) pi/N],
    j = N/2 - k, with g' = N + kappa / (sin^2 u + kappa^2 cos^2 u).
    Plain Newton needs no bracket: for 0 <= kappa <= 1, g is increasing and
    concave on [0, pi/2], which holds every bracket, as g'' = -kappa
    (1 - kappa^2) sin 2u / (sin^2 u + kappa^2 cos^2 u)^2 <= 0.  So every
    iterate lands at or left of the root, and not left of the bracket, as
    g(u) <= N u - j pi <= g'(u) (u - j pi/N); from there it climbs to the
    root.  A root stops when its step is within 4 eps u.  For j = 0, the
    pair that meets at r = 0, the start is the root of N u = atan(kappa / u)
    with atan(q) ~ q / sqrt(1 + (2q/pi)^2), within 30% of the true one, and
    at kappa = 0 the root u = 0 itself; otherwise one fixed-point step
    u = (j pi + atan2(kappa cos u, sin u)) / N from the bracket's middle,
    left of the root as the atan2 is at most pi/2.
    A root that has stopped no longer moves, so each matrix's angles do not
    depend on the rest of the stack.  Returns the (m, N//2) angles, largest
    first, and per matrix whether all of them converged within
    ``_ANGLE_STEPS``.
    """
    r = np.asarray(r, dtype=float)[:, None]
    kappa = r * r / (2.0 - r * r)
    j = n / 2 - np.arange(1, n // 2 + 1)
    t = 2 * n * kappa / np.pi**2
    j_pi, tiny = j * np.pi, 4 * np.finfo(float).eps
    lo = j_pi / n
    mid = (lo + (lo + np.pi / n)) / 2  # rounds unlike (j + 1/2) pi / N
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(
            j == 0,
            np.sqrt(kappa / n / (t + np.sqrt(1 + t * t))),
            (j_pi + np.arctan2(kappa * np.cos(mid), np.sin(mid))) / n,
        )
        done = u == 0  # kappa = 0: the root itself, where g' is 0 / 0
        for _ in range(_ANGLE_STEPS):
            sin_u, kappa_cos = np.sin(u), kappa * np.cos(u)
            g = n * u - j_pi - np.arctan2(kappa_cos, sin_u)
            step = g / (n + kappa / (sin_u * sin_u + kappa_cos**2))
            done |= np.abs(step) <= tiny * u
            if done.all():
                break
            u = np.where(done, u, u - step)
    return u, done.all(axis=-1)


def _well_levels(n: int, r):
    """Levels of an (m,) stack of driven wells at the couplings ``r``.

    With x = cos theta of each level (``_well_angles``), the levels are
    E = 2 - 2 x, symmetric about E = 2.  Returns the (m, (N + 1) // 2) values
    x >= 0, ascending (the middle level 0 of an odd N first), the (m, N)
    levels, real and non-increasing as every consumer reads them (the angles
    lie in disjoint brackets), a row NaN throughout where its angle solve did
    not converge, and the map from each such row to its NoConvergence.
    """
    angles, converged = _well_angles(n, r)
    odd = n % 2
    x = np.sin(angles[:, ::-1])
    if odd:
        x = np.concatenate([np.zeros((len(x), 1)), x], axis=1)
    values = (2.0 + 2.0 * np.concatenate([x[:, odd:][:, ::-1], -x], axis=-1)).astype(complex)
    why = f"angle solve exhausted {_ANGLE_STEPS} Newton steps"
    failures = {k: NoConvergence(why) for k in np.flatnonzero(~converged).tolist()}
    if failures:
        values[~converged] = np.nan
    return x, values, failures


def _well_ketket_stack(h: np.ndarray, r):
    """Adjoint eigenbases of an (m, N, N) stack of driven wells, in closed form.

    ``h`` is build_h(N, z) with z = i c, |c| <= 1, and ``r`` its coupling
    sqrt(1 - c^2) (sin phi for z = i cos phi), from which the levels come
    (``_well_levels``); conj(z) = conj(i c) is read from H's last corner,
    2 + i c.  With x = cos theta of each level, the column of H^dagger
    has the Chebyshev form v_i = U_(i-1)(x) - conj(z) U_(i-2)(x), rows
    i = 1 ... N, from the recurrence v_0 = conj(z), v_1 = 1, v_(i+1) =
    2 x v_i - v_(i-1); it is one on row 1.  U_k(-x) = (-1)^k U_k(x), so one
    real recurrence over the x >= 0 half gives every column.  A well is
    refused as the other wells are (``_gauged_bases``), with angles that
    did not converge as its failed solve, and with the eigenpair defect of
    the unit columns against H^dagger held to the residual cap of
    ``matrix_core._eigen_arrays``, formed from H's own diagonals
    (``_well_mismatch``).  It serves every N >= 2; at r = 0 the middle pair
    of an even N meets, and that well is refused.  Returns what ``_gauged_bases`` does.
    """
    n, odd = h.shape[-1], h.shape[-1] % 2
    x, values, failures = _well_levels(n, r)
    cheb = np.empty((n + 1,) + x.shape)  # U_-1 ... U_(N-1) at each x
    cheb[0], cheb[1] = 0.0, 1.0
    twice = 2 * x
    for i in range(1, n):
        np.multiply(twice, cheb[i], out=cheb[i + 1])
        cheb[i + 1] -= cheb[i - 1]
    cheb = cheb.transpose(1, 0, 2)  # [matrix, row, level]
    now, before = cheb[:, 1:], cheb[:, :-1]
    zbar = np.conj(1j * h[:, -1, -1].imag)[:, None, None]
    signs = np.where(np.arange(n) % 2, -1.0, 1.0)[:, None]
    below = signs * (now[:, :, odd:] + zbar * before[:, :, odd:])
    above = now - zbar * before
    # descending energy is ascending x: -x, then 0, then +x, whose pivot row
    # N-1 takes the reversed conjugate (H^dagger = P conj(H^dagger) P under
    # the row reversal P), one there by the recurrence's start
    columns = np.concatenate(
        [below[:, :, ::-1], above[:, :, :odd], above[:, ::-1, odd:].conj()], axis=-1
    )
    unit = columns / np.linalg.norm(columns, axis=-2, keepdims=True)
    _, failures = _residual_refusals(h, values, unit, failures, _well_mismatch)
    return _gauged_bases(values, unit, failures)


def _well_mismatch(h: np.ndarray, values, v: np.ndarray) -> np.ndarray:
    """H^dagger V - V diag(values) for an (m, N, N) stack of wells H, each given
    whole or scaled, from H's three diagonals: every off-diagonal entry is the
    real hop t = H[1, 0], the main diagonal -2 t inside, and H^dagger holds
    H's two corners conjugated: a few passes over V, no adjoint or product."""
    hop = h[:, 1:2, :1].real
    ends = slice(None, None, h.shape[-1] - 1)  # rows 0 and N-1
    mismatch = v * (-2.0 * hop - values[:, None, :])
    hopped = hop * v
    mismatch[:, 1:] += hopped[:, :-1]
    mismatch[:, :-1] += hopped[:, 1:]
    corners = np.diagonal(h, axis1=-2, axis2=-1)[:, ends, None].conj()
    mismatch[:, ends] += (corners + 2.0 * hop) * v[:, ends]
    return mismatch


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
    """``quasi_hermiticity_residual`` of each (H, Theta) pair of two stacks.

    A pair whose M = H^dagger Theta - Theta H is not finite is taken again
    with H and Theta each scaled by a power of two (``_binary_scales``),
    under which the residual does not change; the other pairs keep every bit.
    """
    mismatch = h.conj().swapaxes(-1, -2) @ theta - theta @ h
    odd = np.flatnonzero(~np.isfinite(mismatch).all(axis=(-2, -1)))
    if odd.size:
        h, theta = np.array(h), np.array(theta)  # scaled in copies
        for a in (h, theta):
            a[odd] *= _binary_scales(a[odd])[:, None, None]
        mismatch[odd] = h[odd].conj().swapaxes(-1, -2) @ theta[odd] - theta[odd] @ h[odd]
    mismatch, norm_h, norm_theta = np.linalg.norm(np.stack([mismatch, h, theta]), 2, axis=(-2, -1))
    scale = norm_h * norm_theta
    unscaled = np.where(mismatch == 0.0, 0.0, np.inf)
    return np.divide(mismatch, scale, out=unscaled, where=scale != 0.0)


@dataclass(frozen=True)
class MetricBundle:
    """The all-ones ketket metric with its map Theta = Omega^dagger Omega.

    The rows of Omega are the ketkets, so Omega diagonalizes the
    Hamiltonian into ``h_diag``; ``omega_inv`` comes from the columns'
    c-products (``_dyson_stack``).  ``dyson_from_ketkets`` builds it.
    """

    theta: np.ndarray
    omega: np.ndarray
    omega_inv: np.ndarray
    h_diag: np.ndarray


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
    _raise_earliest(errors)
    return MetricBundle(
        theta=theta[0],
        omega=omega[0],
        omega_inv=omega_inv[0],
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
    metric Theta = Omega^dagger Omega, the c-products (m, N) and the map
    from each index whose map has some s_j at or below ``eps_singular`` to
    the SingularDyson that refuses it.
    """
    omega = vectors.conj().swapaxes(-1, -2)
    cprods = np.einsum("mij,mij->mj", vectors, vectors)
    usable = np.abs(cprods) > tol.eps_singular * (np.abs(vectors) ** 2).sum(axis=-2)
    omega_inv = vectors.conj() / np.where(usable, cprods, 1.0).conj()[:, None, :]
    theta = vectors @ omega
    errors = _dyson_refusals(usable.all(-1), tol)
    return omega, omega_inv, (theta + theta.conj().swapaxes(-1, -2)) / 2, cprods, errors


def _dyson_refusals(usable, tol: Tolerances) -> dict:
    """Each ketket map not ``usable`` mapped to the SingularDyson of a level at the floor."""
    why = f"nearly dependent: a level's reciprocal condition at or below {tol.eps_singular:g}"
    return {k: SingularDyson(f"ketket columns {why}") for k in np.flatnonzero(~usable).tolist()}
