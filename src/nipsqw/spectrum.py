"""Spectral machinery for the boundary-controlled well.

Three independent routes to the same eigenvalues live here: the well
solve of ``ketkets`` with reality classification (any other matrix takes
``eig_general``), a secular function built from the polynomial ansatz
that solves the interior recurrence exactly, and the implicit curve r(E)
from det(H(r) - E) being affine in r^2 with real coefficients.  Keeping
the routes separate is the point: they cross-check each other in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import get_tolerances
from .errors import NoSlope, NotAnEigenvalue, OutOfRange
from .hamiltonian import build_h, z_from_r
from .matrix_core import COND_CEILING, _eigen_arrays
from .metric import _as_well, _driven_coupling, _unsolved, _well_ketket_stack, _well_levels

@dataclass(frozen=True)
class SpectrumResult:
    """Ascending energies with per-level reality flags; ``all_real`` says the
    antilinear symmetry of the well is unbroken at this boundary value."""

    energies: np.ndarray
    real_flags: np.ndarray
    all_real: bool


def solve_spectrum(h) -> SpectrumResult:
    """A well's levels, ascending, each flagged real against ``tol_real``: the
    solve ``nipsqw spectrum`` prints.  H must be a well (``metric._as_well``)
    equal to its conjugate reversed on both axes, as ``build_h`` gives, else
    ValueError; its levels are H^dagger's.  A driven well's come from its
    angles alone (``metric._well_levels``), any other well's are the
    ascending values of H^dagger's eigen solve (``matrix_core._eigen_arrays``),
    with no ketket columns gauged or checked.  A defective well keeps its
    energies; only failed ones raise its refusal."""
    a = _as_well(h)
    if not (a == a[::-1, ::-1].conj()).all():
        raise ValueError("H must equal its conjugate reversed along both axes")
    r = _driven_coupling(a)
    if r is None:
        values, _, _, failures = _eigen_arrays(a[None].conj().swapaxes(-1, -2))
        energies = values[0]
    else:
        _, values, failures = _well_levels(len(a), [r])
        energies = values[0, ::-1]
    if np.isnan(energies).any():
        raise _unsolved(failures.get(0))
    flags = np.abs(energies.imag) <= get_tolerances().tol_real
    return SpectrumResult(energies=energies, real_flags=flags, all_real=bool(flags.all()))


def _three_term(y: complex, second: complex, count: int) -> np.ndarray:
    """x_0..x_{count-1} of x_k = 2y x_(k-1) - x_(k-2) from the seeds (1, second):
    T_k for second = y, U_k for 2y, and a well's components for 2y - z."""
    x = np.empty(count, dtype=complex)
    x[0] = 1.0
    x[1] = second
    for k in range(2, count):
        x[k] = 2.0 * y * x[k - 1] - x[k - 2]
    return x


def _boundary_system(n: int, z: complex, e: complex):
    """The 2x2 linear system pinning the ansatz coefficients (A, B).

    Row one imposes the first line of the eigenvalue problem (which
    reduces to A(z - y) + B z = 0); row two imposes the last line.
    """
    y = (2.0 - e) / 2.0
    t, u = _three_term(y, y, n), _three_term(y, 2.0 * y, n)
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
    """Determinant of the boundary system; zero exactly on the spectrum.
    OutOfRange where the recurrence or the determinant leaves the double range."""
    if n < 2:
        raise OutOfRange(f"need at least two sites, got {n}")
    if not (np.isfinite(z) and np.isfinite(e)):
        raise OutOfRange(f"corner and energy must be finite, got z = {z}, E = {e}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan carry on to the value
        _, _, _, m = _boundary_system(n, z, e)
        value = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if not np.isfinite(value):
        raise OutOfRange(f"secular value leaves the double range at N = {n}, z = {z}, E = {e}")
    return complex(value)


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
    if not abs(s) <= 1e-8:
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
        components = _three_term(y, 2.0 * y - z, n)
    return ChebyshevSolution(y=complex(y), a=ab[0], b=ab[1], components=components)


@dataclass(frozen=True)
class SpectralCurvePoint:
    """One sample of the implicit curve r(E).

    ``r_plus``/``r_minus`` are present only when r_squared lands in
    [0, 1]; ``residual`` is always reported: |det(H(r) - E)| at the
    printed r_squared, from the affine form of ``_curve_stack``, so it
    reads rounding in r_squared times the slope and grows like |E|^N off
    the band.  It resolves only to about eps_ld |det(H(0) - E)|, with
    eps_ld = 2^-63: a smaller value, 0 included, reads as rounding.
    """

    energy: float
    r_squared: float
    r_plus: float | None
    r_minus: float | None
    residual: float


def _curve_stack(n: int, energies) -> tuple[np.ndarray, np.ndarray]:
    """The curve r^2(E) over a whole energy grid in one vectorized pass.

    With d = 2 - E, det(H(r) - E) = det0 + r^2 beta with real coefficients:
    the corners d - z and d + z enter only through z + z* = 0 and
    z z* = 1 - r^2 along z = i*sqrt(1-r^2).  The continuant alpha over the
    sites, from (1, d), gives det0 = d alpha - (alpha' + beta), alpha' one
    step behind, and the slope beta runs the same recurrence from (0, -1),
    so beta = -alpha' to the bit and det0 = d alpha.  One real recurrence in
    extended precision thus gives both coefficients, the slope exactly
    rather than as a difference of two determinants that cancels off the
    band, and r^2 = -det0 / beta.  The residual is |det0 + r^2 beta| at the
    printed r^2, in extended precision; it resolves to about 2^-63 |det0|.

    Returns an (m, 5) float table whose row k holds the fields of
    ``SpectralCurvePoint`` at ``energies[k]``, and an (m, 5) mask of the
    cells a field leaves undefined (they hold nan): r_plus and r_minus off
    the band, every field but the energy where the slope is at most 1e-13.
    A non-finite energy raises ValueError, and a row past the double range, in
    r^2, residual or 2^-63 |det0|, raises OutOfRange naming the first one.
    """
    if n < 2:
        raise OutOfRange(f"need at least two sites, got {n}")
    e = np.atleast_1d(np.asarray(energies, dtype=float))
    if not np.isfinite(e).all():
        raise ValueError("the curve takes finite energies only")
    d = 2.0 - e.astype(np.longdouble)
    with np.errstate(over="ignore", invalid="ignore"):  # a row past the range is refused below
        alpha_prev, alpha = np.ones_like(d), d
        for _ in range(n - 2):
            alpha, alpha_prev = d * alpha - alpha_prev, alpha
        det0 = d * alpha
        flat = np.abs(alpha_prev) <= 1e-13
        # -det0 / beta and det0 + r^2 beta with beta = -alpha', to the bit;
        # flat rows divide by one instead, so no sentinel or warning arises.
        r_squared = (det0 / np.where(flat, 1.0, alpha_prev)).astype(float)
        residual = np.abs((det0 - r_squared * alpha_prev).astype(float))
        resolved = np.abs(det0) <= np.finfo(float).max / np.finfo(d.dtype).eps
    unfit = ~flat & ~(np.isfinite(r_squared) & np.isfinite(residual) & resolved)
    if unfit.any():
        raise OutOfRange(f"curve leaves the double range at N = {n}, E = {e[unfit.argmax()]}")
    band = (r_squared >= -1e-12) & (r_squared <= 1.0 + 1e-12)
    # np.where, not np.maximum, so a -0.0 r_squared keeps its sign in r_plus.
    capped = np.where(r_squared > 1.0, 1.0, r_squared)
    r_plus = np.sqrt(np.where(r_squared < 0.0, 0.0, capped))
    table = np.column_stack(
        [e, r_squared, r_plus, np.where(r_plus > 0, -r_plus, 0.0), residual]
    )
    absent = np.zeros(table.shape, dtype=bool)
    absent[~band, 2:4] = True
    absent[flat, 1:] = True
    table[absent] = np.nan
    return table, absent


def spectral_curve(n: int, e: float) -> SpectralCurvePoint:
    """Coupling strength at which the given energy joins the spectrum: a stack
    of one over ``_curve_stack``, raising NoSlope where r^2 has no effect."""
    table, absent = _curve_stack(n, [float(e)])
    if absent[0, 1]:
        raise NoSlope(f"determinant does not depend on the coupling at E = {float(e)}")
    return SpectralCurvePoint(*(None if gap else value
                                for value, gap in zip(table[0].tolist(), absent[0])))


def ep_scan(n: int, r_grid) -> np.ndarray:
    """Coalescence diagnostics over a coupling grid.

    Returns rows (r, min_gap, vector_condition); the condition number
    blowing up as r -> 0 while the smallest gap closes is the
    exceptional-point signature.  Each well is solved at the coupling r
    it is given, in closed form at every N (``metric._well_ketket_stack``),
    and its condition is cond_2 of the unit eigenvectors, from one SVD.  Where
    the solve refuses the point (defective), or the condition reaches
    ``COND_CEILING``, the condition is the +inf sentinel.  The gaps come
    from the same solve, which keeps the levels of a defective point; a
    nan gap means the levels themselves failed.  The levels come real and
    descending (``metric._well_levels``), so, rounding being monotone, the
    smallest gap of neighbours is the all-pairs one to the bit.  One stack
    holds the grid.
    """
    r_values = np.atleast_1d(np.asarray(r_grid, dtype=float))
    stack = build_h(n, z_from_r(r_values))
    values, vectors, errors = _well_ketket_stack(stack, r_values)
    sv = np.linalg.svd(vectors / np.linalg.norm(vectors, axis=-2, keepdims=True),
                       compute_uv=False)
    with np.errstate(divide="ignore"):
        condition = sv[:, 0] / sv[:, -1]
    condition[list(errors)] = np.inf
    condition[condition >= COND_CEILING] = np.inf
    gaps = values.real[:, :-1] - values.real[:, 1:]
    return np.column_stack([r_values, gaps.min(axis=-1), condition])
