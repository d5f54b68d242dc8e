"""Spectral machinery for the boundary-controlled well.

Three independent routes to the same eigenvalues live here: the generic
eigensolver (wrapped with reality classification), a secular function
built from the polynomial ansatz that solves the interior recurrence
exactly, and the implicit curve r(E) obtained from the observation that
det(H(r) - E) is affine in r^2.  Keeping the routes separate is the
point: they cross-check each other in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Tolerances, get_tolerances
from .errors import NoConvergence, NoSlope, NotAnEigenvalue, OutOfRange
from .hamiltonian import build_h, z_from_r
from .matrix_core import (
    COND_CEILING,
    EigenDecomposition,
    _decompose_stack,
    _eigvals_stack,
    eig_general,
)

_CLD = np.clongdouble


@dataclass(frozen=True)
class SpectrumResult:
    """Sorted energies with per-level reality flags.

    ``all_real`` is the indicator that the antilinear symmetry of the
    well matrix is unbroken at this boundary value.
    """

    energies: np.ndarray
    real_flags: np.ndarray
    all_real: bool
    vector_condition: float
    eigvecs: np.ndarray


def solve_spectrum(h, tol_real: float | None = None) -> SpectrumResult:
    """Eigendecomposition plus reality classification of each energy."""
    if tol_real is None:
        tol_real = get_tolerances().tol_real
    dec: EigenDecomposition = eig_general(h)
    flags = np.abs(dec.eigenvalues.imag) <= tol_real
    return SpectrumResult(
        energies=dec.eigenvalues,
        real_flags=flags,
        all_real=bool(flags.all()),
        vector_condition=dec.vector_condition,
        eigvecs=dec.right_vectors,
    )


def _cheb_pair(y: complex, count: int):
    """First- and second-kind polynomial sequences T_0..T_{count-1},
    U_0..U_{count-1} at a complex argument, by the three-term recurrence."""
    t = np.empty(count, dtype=complex)
    u = np.empty(count, dtype=complex)
    t[0] = 1.0
    u[0] = 1.0
    if count > 1:
        t[1] = y
        u[1] = 2.0 * y
    for k in range(2, count):
        t[k] = 2.0 * y * t[k - 1] - t[k - 2]
        u[k] = 2.0 * y * u[k - 1] - u[k - 2]
    return t, u


def _boundary_system(n: int, z: complex, e: complex):
    """The 2x2 linear system pinning the ansatz coefficients (A, B).

    Row one imposes the first line of the eigenvalue problem (which
    reduces to A(z - y) + B z = 0); row two imposes the last line.
    """
    y = (2.0 - e) / 2.0
    t, u = _cheb_pair(y, n)
    zc = np.conj(z)
    m = np.array(
        [
            [z - y, z],
            [
                t[n - 2] - (2.0 * y - zc) * t[n - 1],
                u[n - 2] - (2.0 * y - zc) * u[n - 1],
            ],
        ],
        dtype=complex,
    )
    return y, t, u, m


def secular_value(n: int, z: complex, e: complex) -> complex:
    """Determinant of the boundary system; zero exactly on the spectrum."""
    if n < 2:
        raise OutOfRange(f"need at least two sites, got {n}")
    _, _, _, m = _boundary_system(n, z, e)
    return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


@dataclass(frozen=True)
class ChebyshevSolution:
    """Ansatz data for one eigenvector.

    ``a`` and ``b`` weight the first- and second-kind polynomial
    sequences; ``components`` is the resulting site amplitude vector.
    The pair (a, b) is scaled so its max-modulus entry equals one.
    """

    y: complex
    a: complex
    b: complex
    components: np.ndarray


def chebyshev_eigvec(n: int, z: complex, e: complex) -> ChebyshevSolution:
    """Reconstruct the eigenvector at an energy on the spectrum.

    The coefficient pair spans the kernel of the boundary system.  At
    arguments where the two polynomial families degenerate into one
    (y = 0 is the notorious case) the ansatz cannot span the eigenvector,
    so the components fall back to the transfer recurrence seeded by the
    first site, which solves the same problem for any y.
    """
    s = secular_value(n, z, e)
    if abs(s) > 1e-8:
        raise NotAnEigenvalue(f"|secular value| = {abs(s):.3e} at energy {e}")
    y, t, u, m = _boundary_system(n, z, e)
    _, sv, vh = np.linalg.svd(m)
    if sv[0] <= 1e-12 * max(1.0, float(np.abs(m).max())):
        ab = np.array([1.0, 0.0], dtype=complex)  # whole plane is kernel
    else:
        ab = vh[1].conj()
    ab = ab / ab[np.argmax(np.abs(ab))]
    components = ab[0] * t + ab[1] * u
    if np.abs(components).max() <= 1e-10 * max(1.0, np.abs(ab).max()):
        components = np.empty(n, dtype=complex)
        components[0] = 1.0
        if n > 1:
            components[1] = 2.0 * y - z
        for k in range(2, n):
            components[k] = 2.0 * y * components[k - 1] - components[k - 2]
    return ChebyshevSolution(y=complex(y), a=ab[0], b=ab[1], components=components)


def _corner_det(n: int, z: complex, e, z_last=None) -> complex:
    """det(H(z) - E) by the continuant recurrence in extended precision.

    The off-diagonal products are all one, so intermediates stay O(1)
    and clustered roots remain resolvable.  ``z_last`` overrides the
    conjugate in the far corner, for analytic continuation off the
    physical coupling band.
    """
    if z_last is None:
        z_last = np.conj(z)
    diag = np.full(n, _CLD(2.0) - _CLD(e), dtype=_CLD)
    diag[0] -= _CLD(z)
    diag[-1] -= _CLD(z_last)
    p_prev = _CLD(1.0)  # det of the empty block
    p = diag[0]
    for k in range(1, n):
        p, p_prev = diag[k] * p - p_prev, p
    return p


@dataclass(frozen=True)
class SpectralCurvePoint:
    """One sample of the implicit curve r(E).

    ``r_plus``/``r_minus`` are present only when r_squared lands in
    [0, 1]; the rebuilt determinant residual is always reported, using
    the principal branch of the corner parameter when r_squared falls
    outside that band.
    """

    energy: float
    r_squared: float
    r_plus: float | None
    r_minus: float | None
    residual: float


def spectral_curve(n: int, e: float) -> SpectralCurvePoint:
    """Coupling strength at which the given energy joins the spectrum.

    Because z + z* = 0 and z z* = 1 - r^2 hold along z = i*sqrt(1-r^2),
    the determinant det(H(r) - E) is affine in r^2; two evaluations at
    r^2 = 0 and 1 fix the line and its root.
    """
    if n < 2:
        raise OutOfRange(f"need at least two sites, got {n}")
    e = float(e)
    det0 = _corner_det(n, 1j, e)   # r^2 = 0
    det1 = _corner_det(n, 0.0, e)  # r^2 = 1
    slope = det1 - det0
    if abs(complex(slope)) <= 1e-13:
        raise NoSlope(f"determinant does not depend on the coupling at E = {e}")
    r_squared = float((-det0 / slope).real)
    r_plus = r_minus = None
    if -1e-12 <= r_squared <= 1.0 + 1e-12:
        clamped = min(max(r_squared, 0.0), 1.0)
        r_plus = float(np.sqrt(clamped))
        r_minus = -r_plus if r_plus > 0 else 0.0
    # Fresh determinant at the solved coupling; the corner pair (z, -z)
    # keeps z + z_last = 0 and z*z_last = 1 - r^2 on every branch and
    # reduces to (z, conj z) on the physical band where z is imaginary.
    z = 1j * np.sqrt(complex(1.0 - r_squared))
    residual = float(abs(complex(_corner_det(n, z, e, z_last=-z))))
    return SpectralCurvePoint(e, r_squared, r_plus, r_minus, residual)


def ep_scan(n: int, r_grid) -> np.ndarray:
    """Coalescence diagnostics over a coupling grid.

    Returns rows (r, min_gap, vector_condition); the condition number
    blowing up as r -> 0 while the smallest gap closes is the
    exceptional-point signature.  Where the full eigendecomposition
    gives up (defective point), or its condition reaches
    ``COND_CEILING``, the condition is the +inf sentinel; a failed
    decomposition takes its gap from an eigenvalue-only pass, and a nan
    gap means even that failed.  The whole grid is solved as one stack.
    """
    r_values = np.atleast_1d(np.asarray(r_grid, dtype=float))
    if np.any(np.abs(r_values) > 1.0):
        raise OutOfRange("coupling grid must stay within [-1, 1]")

    def min_gap(w: np.ndarray) -> np.ndarray:
        pair_gaps = np.abs(w[:, :, None] - w[:, None, :])
        pair_gaps[:, np.eye(w.shape[1], dtype=bool)] = np.inf
        return pair_gaps.min(axis=(1, 2))

    stack = build_h(n, [z_from_r(r) for r in r_values])
    rows = np.empty((r_values.size, 3), dtype=float)
    rows[:, 0] = r_values
    rows[:, 2] = np.inf
    values = np.full((r_values.size, n), np.nan, dtype=complex)
    failed = []
    for i, dec in enumerate(_decompose_stack(stack)):
        if isinstance(dec, NoConvergence):
            failed.append(i)
        else:
            values[i], rows[i, 2] = dec.eigenvalues, dec.vector_condition
    if failed:
        fallback, errors = _eigvals_stack(stack[failed])
        solved = [error is None for error in errors]
        values[np.array(failed)[solved]] = fallback[solved]
    rows[:, 1] = min_gap(values)
    rows[rows[:, 2] >= COND_CEILING, 2] = np.inf
    return rows
