"""Time evolution with a moving metric.

The instantaneous adjoint eigenbasis gives a map Omega(t) whose time
dependence produces a Coriolis generator Sigma = i Omega^-1 dOmega/dt.
States in the friendly space evolve under G = H - Sigma, and the
moving metric Theta = Omega^dagger Omega keeps <psi|Theta|psi>
constant even though neither G nor H is normal.  An independent
solution in the mapped representation (where the generator is
Hermitian) cross-checks the whole pipeline.

The whole chain -- ketket basis, Dyson map, its analytic slope in the
boundary angle, Coriolis term -- runs on one route, ``_stage_stack``,
as (m, N, N) expressions over a block of stage angles; ``coriolis`` and
``generator`` are stacks of one through it.  Each driven well is solved
in closed form at its coupling sin phi (``metric._well_ketket_stack``),
and the two-site ketket map with its exact slope in extended precision
(``_two_site_map``).

The map part of the block last solved without a refusal is kept as one
read-only entry (``_map_stack``): H, Theta, the map, its inverse, H's
levels and a lazy slope.  ``evolve`` and ``textbook_evolve`` of one drive
solve the same blocks at bit-identical angles, so they share it,
whichever comes first; outputs are the same as a fresh solve's, in
concurrent threads too.

The equation is linear in psi, so each RK4 step is a matrix,
psi_{k+1} = R_k psi_k.  The integrator splits a drive into blocks by one
rule, sized from N (``STAGE_BLOCK``), and takes each block's stages from
one kernel call, the edge stage it shares with the block before
included.  It forms their R_k with stacked matmuls in the dtype of the
stage stack (complex128 from the well solve, so BLAS does them;
extended precision from the two-site map), marches the
extended-precision ket with one matrix-vector product per step and
checks the block's physical norms against the stack's own Theta in one
stacked product.  Each block writes its rows into arrays allocated once
per trajectory, and the integrations return them as a ``Trajectory``:
read-only stacks that build an ``EvolutionState`` only when a row is
read.  The textbook route on the ketket map takes no step matrix: there
Omega H Omega^-1 is the real diagonal of the levels, so each mapped
component only turns, by a phase summed by Simpson's rule on the stages.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import Tolerances, get_tolerances
from .errors import EPProximity, NonRealNorm, NotAnObservable
from .hamiltonian import PhiProfile, build_h, build_h_at_time, z_from_phi
from .matrix_core import MAX_DIM, _eigen_arrays, _root_slope, _sqrt_hpd_stack, as_square
from .matrix_core import _squares_in_range
from .metric import _dyson_refusals, _dyson_stack, _ketket_slope, _quasi_hermiticity_stack
from .metric import _well_ketket_stack

_CLD = np.clongdouble

#: Dyson-map factorizations an integration can be built on: the
#: adjoint-eigenvector columns (default) or the Hermitian square root of
#: the same metric.  They share Theta = Omega^dagger Omega, so each
#: conserves the physical norm, but they are two dynamics, not two gauges
#: of one: Omega_h = U Omega_k adds the Hermitian gauge potential
#: Omega_k^-1 (-i U^dagger dU/dt) Omega_k to G(t), which shifts the
#: quasi-energies of a periodic drive.  At N=3 under
#: sin:phi0=1.2,amp=0.5,freq=3 the one-period eigenphases are -1.4009 and
#: -0.6935 on the root map, -1.3983 and -0.6961 on the ketket map.
MAP_KINDS = ("ketket_columns", "hermitian_root")

#: stage-kernel calls at MAX_DIM sites take STAGE_BLOCK // 2 RK4 steps,
#: and at N sites (MAX_DIM / N)^2 times as many, so no call holds more
#: matrix entries than one at MAX_DIM: 16 steps at N=64, 113 at N=24,
#: 1,024 at N=8 and 16,384 at N=2.  That bounds the memory of a long
#: trajectory, and a refusal wastes at most one call
STAGE_BLOCK = 32


@dataclass(frozen=True)
class EvolutionState:
    """One trajectory sample: ket, metric cache, and physical norm.

    ``generator`` is the matrix the integrator applied to the ket at this
    sample: G = H - Sigma built from the selected map for ``evolve``, the
    mapped Hamiltonian Omega H Omega^-1 for ``textbook_evolve`` -- on the
    ketket map exactly diag(levels), H's real levels in descending order.
    ``omega`` is the Dyson map with Theta = Omega^dagger Omega that
    generator was built from.  Textbook states already live in the
    mapped picture, so their ``theta`` and ``omega`` are the identity.
    """

    t: float
    psi: np.ndarray
    theta: np.ndarray
    phys_norm: float
    generator: np.ndarray
    omega: np.ndarray


class Trajectory(Sequence):
    """The samples of one integration as stacked, read-only arrays.

    ``t`` (m,), ``psi`` (m, N), ``theta``, ``generator`` and ``omega``
    (m, N, N) and ``phys_norm`` (m,) hold the fields of the m samples,
    in double precision; a textbook trajectory's ``theta`` and ``omega``
    are one broadcast identity.  As a sequence it is the samples in time
    order: row k is built as an ``EvolutionState`` (float ``t`` and
    ``phys_norm``, views of the row's arrays) only when it is read, and
    a slice is a ``Trajectory`` of views.  Adding a sequence of states
    gives the list of both, as list concatenation does.  The constructor
    makes the arrays it is given read-only.
    """

    __slots__ = ("t", "psi", "theta", "phys_norm", "generator", "omega")

    def __init__(self, t, psi, theta, phys_norm, generator, omega):
        for name, array in zip(self.__slots__, (t, psi, theta, phys_norm, generator, omega)):
            array.flags.writeable = False
            setattr(self, name, array)

    def _stacks(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __len__(self):
        return len(self.t)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return Trajectory(*(array[k] for array in self._stacks()))
        t, psi, theta, phys_norm, generator, omega = (array[k] for array in self._stacks())
        return EvolutionState(float(t), psi, theta, float(phys_norm), generator, omega)

    def __iter__(self):
        t, psi, theta, phys_norm, generator, omega = self._stacks()
        return map(EvolutionState, t.tolist(), psi, theta, phys_norm.tolist(), generator, omega)

    def __add__(self, other):
        return [*self, *other]


@dataclass(frozen=True)
class GeneratorSnapshot:
    """The three generators at one instant, with their eigenvalues."""

    t: float
    H: np.ndarray
    Sigma: np.ndarray
    G: np.ndarray
    sigma_eigs: np.ndarray
    g_eigs: np.ndarray


#: the map part of the most recent block solved without a refusal, replaced
#: whole: ((N, map, tolerances, angle dtype, angle bytes), its read-only entry)
_map_memo = None


def _kept(key, solve):
    """The entry ``solve()`` returns, kept read-only for a repeat of ``key``.

    One entry, the last key solved; its arrays and the arguments of its
    closing slope partial are made read-only.  It is read once and replaced
    whole, so no thread reads another's block as its own: at worst both
    solve.  A ``solve`` that raises keeps nothing.
    """
    global _map_memo
    entry = _map_memo
    if entry is not None and entry[0] == key:
        return entry[1]
    arrays = solve()
    for array in (*arrays[:-1], *arrays[-1].args):
        array.flags.writeable = False
    _map_memo = key, arrays
    return arrays


def _map_stack(n, phis, tol, hermitian_map):
    """H, Theta, Omega, Omega^-1, the levels and the slope dOmega/dphi of a block.

    The part of a block that ``evolve`` and ``textbook_evolve`` share: the
    two-site ketket map of ``_two_site_map``, or the ketket basis of each H
    with its Dyson map and metric, and with ``hermitian_map`` the Hermitian
    root of Theta as Omega; both refuse a level's s_j at the
    ``eps_singular`` floor, at two sites |sin phi|.  The levels (m, N) are
    H's real eigenvalues in the descending order of the ketket map's rows,
    so that map gives Omega H Omega^-1 = diag(levels).  The slope is a
    partial of ``_map_slope`` over the arrays it needs, evaluated only when
    called, which textbook stages never do.  The rate enters only after the
    map, so the last block solved without a refusal is kept (``_kept``),
    keyed on N, the map, the tolerances and the exact bytes of its angles.
    A refused block raises its earliest refused stage's error, found by
    solving the map of the clean prefix before it, and is never kept.
    """

    def refuse(errors):
        first = next((k for k, error in enumerate(errors) if error is not None), None)
        if first is not None:
            if first:  # an earlier stage may still fail a later step
                _map_stack(n, phis[:first], tol, hermitian_map)
            raise errors[first]

    def solve():
        if n == 2 and not hermitian_map:
            refuse(_dyson_refusals(np.abs(np.sin(phis)) > tol.eps_singular, tol))
            return _two_site_map(phis)
        h = build_h(n, z_from_phi(phis))
        values, vectors, errors = _well_ketket_stack(h, np.sin(phis))
        refuse(errors)
        omega, omega_inv, theta, cprods, errors = _dyson_stack(vectors, tol)
        refuse(errors)
        ketkets = phis, values, vectors, cprods
        levels = values.real  # H^dagger's levels, real in a well, so H's too
        if not hermitian_map:
            return h, theta, omega, omega_inv, levels, partial(_map_slope, *ketkets)
        root, root_inv, basis, roots, errors = _sqrt_hpd_stack(theta, tol)
        refuse(errors)
        slope = partial(_map_slope, *ketkets, omega, basis, roots)
        return h, theta, root, root_inv, levels, slope

    return _kept((n, hermitian_map, tol, phis.dtype, phis.tobytes()), solve)


def _map_slope(phis, values, vectors, cprods, ketket_omega=None, basis=None, roots=None):
    """dOmega/dphi from Nelson's slope dV of the ketket columns V.

    The ketket map V^dagger takes dV^dagger (``_ketket_slope``); the root of
    its metric, given that map and the root's eigenbasis, is differentiated
    through its Sylvester equation (``_root_slope``).
    """
    slope = _ketket_slope(phis, values, vectors, cprods)
    if basis is None:
        return slope.conj().swapaxes(-1, -2)
    lift = slope @ ketket_omega
    return _root_slope(basis, roots, lift + lift.conj().swapaxes(-1, -2))


def _stage_stack(n, phis, rates, tol, textbook=False, hermitian_map=False):
    """H, Sigma, Theta and Omega at every stage angle, each (m, N, N).

    The block's map part (``_map_stack``) and its slope times the rate
    give Sigma = i Omega^-1 dOmega/dt; textbook stages return
    Omega H Omega^-1 in Sigma's place, on the ketket map exactly
    diag(levels).  Each stage depends on its own angle and rate alone, so
    any split into blocks gives the same arrays.  A refused stack raises
    its earliest stage's refusal.
    """
    h, theta, omega, omega_inv, levels, slope = _map_stack(n, phis, tol, hermitian_map)
    if textbook:
        mapped = omega @ h @ omega_inv if hermitian_map else levels[:, :, None] * np.eye(n)
        return h, mapped, theta, omega
    return h, 1j * (omega_inv @ (slope() * rates[:, None, None])), theta, omega


def coriolis(n: int, profile: PhiProfile, t: float, tol: Tolerances | None = None) -> np.ndarray:
    """Coriolis generator Sigma(t) = i Omega^-1(t) dOmega/dt.

    The stage kernel on a stack of one, as ``evolve`` applies it, in
    complex128: the map is differentiated exactly through the boundary
    angle (the only route by which time enters), and the chain rule
    multiplies in the profile's rate.  A non-finite t, phi or rate raises
    ValueError.
    """
    tol = tol if tol is not None else get_tolerances()
    t = float(t)
    phi, phi_dot = profile(t) if np.isfinite(t) else (t, t)  # no profile at inf or NaN
    if not np.isfinite([t, phi, phi_dot]).all():
        raise ValueError(f"t, phi and its rate must be finite, got {t:g}, {phi:g}, {phi_dot:g}")
    if abs(np.sin(phi)) < tol.ep_margin:
        raise EPProximity(
            f"|sin phi| = {abs(np.sin(phi)):.3e} is inside the "
            f"exceptional-point margin {tol.ep_margin:g} at t = {t:.6g}"
        )
    return _stage_stack(n, np.array([phi]), np.array([phi_dot]), tol)[1][0].astype(complex)


def generator(
    n: int, profile: PhiProfile, t: float, tol: Tolerances | None = None
) -> GeneratorSnapshot:
    """Snapshot of H, Sigma, and G = H - Sigma with their spectra."""
    sigma = coriolis(n, profile, t, tol=tol)
    h = build_h_at_time(n, profile, float(t))
    g = h - sigma
    values, _, _, errors = _eigen_arrays(np.stack([sigma, g]))
    for error in errors:
        if error is not None:
            raise error
    return GeneratorSnapshot(
        t=float(t), H=h, Sigma=sigma, G=g, sigma_eigs=values[0], g_eigs=values[1]
    )


# ------------------------------------------------------------- integration


def _stage_times(t0: float, t1: float, dt: float):
    """Step sizes and the RK stage grid t0, t0+dt/2, t0+dt, ...

    The horizon end is always hit exactly; a remainder shorter than dt
    becomes one final shortened step.
    """
    span = t1 - t0
    n_full = int(np.floor(span / dt + 1e-9))
    remainder = span - n_full * dt
    if remainder <= 1e-9 * dt:
        remainder = 0.0
    steps = np.full(n_full + bool(remainder), dt)
    taus = np.longdouble(t0) + np.arange(2 * n_full + 1) * (np.longdouble(dt) / 2)
    if remainder:
        steps[-1] = remainder
        taus = np.append(taus, [taus[-1] + np.longdouble(remainder) / 2, np.longdouble(t1)])
    return steps, taus


def _propagators(gens, steps):
    """RK4 step matrices R_k, with psi_{k+1} = R_k psi_k, one per step.

    ``gens`` holds the stage generators G_0, G_1/2, G_1, G_3/2, ... of the
    steps in order, 2m + 1 of them.  The ODE is linear, so the classic
    stages K_1 = -i G_0, K_2 = -i G_1/2 (I + h/2 K_1),
    K_3 = -i G_1/2 (I + h/2 K_2) and K_4 = -i G_1 (I + h K_3) are
    matrices and R = I + h/6 (K_1 + 2 K_2 + 2 K_3 + K_4).  The
    propagators take the dtype of the stage stack: complex128 keeps the
    matmuls on BLAS, which extended precision would not be.
    """
    g0, g_half, g1 = gens[:-1:2], gens[1::2], gens[2::2]
    h = np.asarray(steps, dtype=np.finfo(gens.dtype).dtype)[:, None, None]
    k1 = -1j * g0
    k2 = -1j * (g_half + (h / 2) * (g_half @ k1))
    k3 = -1j * (g_half + (h / 2) * (g_half @ k2))
    k4 = -1j * (g1 + h * (g1 @ k3))
    return np.eye(gens.shape[-1], dtype=gens.dtype) + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


#: largest |Im| / |Re| a metric norm or expectation may show and still
#: count as real to rounding
IMAG_GATE = 1e-10
_DOUBLE_MAX = np.finfo(float).max


def _unreal(values, floor=0.0):
    """The real-value gate: {index: "non-finite" or "complex (value)"} of
    the refused values, in index order.

    A value passes when |Im| <= IMAG_GATE max(floor, |Re|) and both parts
    fit a double; NaN or a part past the double range is non-finite,
    refused before a cast to float can warn.
    """
    values = np.asarray(values)
    re, im = np.abs(values.real), np.abs(values.imag)
    finite = (re <= _DOUBLE_MAX) & (im <= _DOUBLE_MAX)
    refused = np.flatnonzero(~(finite & (im <= IMAG_GATE * np.maximum(floor, re))))
    return {
        k: f"complex ({complex(values[k]):.3e})" if finite[k] else "non-finite"
        for k in refused.tolist()
    }


def _metric_norms(kets, thetas):
    """<psi_k|Theta_k|psi_k> of each ket against its metric, complex.

    Theta psi first, then the inner product, as stacked matmuls: each row
    rounds as ``np.vdot(psi, theta @ psi)`` does, which einsum would not.
    """
    return (kets.conj()[:, None, :] @ (thetas @ kets[..., None]))[:, 0, 0]


def _two_site_map(phis):
    """``_map_stack`` of two sites on the ketket map, in extended precision.

    The closed-form map family at every stage angle at once.  Where
    sin phi < 0 the well solve's gauge is the family at -phi; H is even
    in phi, so the map is taken there (``mirror`` is -1) and its angle
    derivative changes sign.  Over 801 stages it costs about 0.001 ms per
    stage, the well solve 0.010 ms in one piece and 0.020 ms in blocks
    of 32 (2-core x86 VM, numpy 2.4).
    """
    phis = np.asarray(phis, dtype=np.longdouble)
    mirror = np.where(np.sin(phis) < 0, -1.0, 1.0)
    phis = mirror * phis
    e = np.exp(_CLD(-1j) * phis.astype(_CLD))
    one, hop = np.full_like(e, 1.0), np.full_like(e, -1.0)
    z = 1j * np.cos(phis.astype(_CLD))
    h = _stack_2x2(2.0 - z, hop, hop, 2.0 + z)
    omega = _stack_2x2(one, -1j * e, 1j * e, one)
    omega_inv = _stack_2x2(one, 1j * e, -1j * e, one) / (1.0 - e * e)[:, None, None]
    theta = omega.conj().swapaxes(-1, -2) @ omega
    levels = np.stack([2.0 - e.imag, 2.0 + e.imag], axis=-1)  # 2 +- |sin phi|
    slope = partial(_two_site_slope, np.where(mirror < 0, -e, e))
    return h, theta, omega, omega_inv, levels, slope


def _two_site_slope(e):
    """d/dphi [[1, -ie], [ie, 1]] = [[0, -e], [e, 0]] of the closed-form map."""
    zero = np.zeros_like(e)
    return _stack_2x2(zero, -e, e, zero)


def _stack_2x2(a, b, c, d):
    """The (m, 2, 2) stack [[a, b], [c, d]] of four length-m arrays."""
    return np.stack([np.stack([a, b], axis=-1), np.stack([c, d], axis=-1)], axis=-2)


def _check_inputs(n, profile, psi0, t0, t1, dt):
    """psi0 as a complex N-vector and t0, t1, dt as floats, or ValueError.

    Each profile parameter, t0, t1, dt and psi0 entry must be finite, with
    dt > 0, t0 <= t1, psi0 nonzero and the horizon under 2^53 steps (a
    count a double holds exactly).
    """
    if not np.all(np.isfinite(tuple(profile.params.values()))):
        raise ValueError(f"profile {profile!r} takes finite numbers only")
    t0, t1, dt = float(t0), float(t1), float(dt)
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt:g}")
    if not -np.inf < t0 <= t1 < np.inf:
        raise ValueError(f"t0 and t1 must be finite, t1 not below t0, got {t0:g} and {t1:g}")
    if not (t1 - t0) / dt < 2.0**53:
        raise ValueError("dt splits the horizon into 2^53 steps or more")
    if psi0.shape != (n,):
        raise ValueError(f"initial ket must have length {n}, got {psi0.size}")
    if not (np.all(np.isfinite(psi0)) and np.any(psi0)):
        raise ValueError("initial ket must be finite and nonzero")
    return psi0, t0, t1, dt


def _integrate(n, profile, psi0, t0, t1, dt, tol, textbook, map_kind):
    psi0, t0, t1, dt = _check_inputs(n, profile, psi0, t0, t1, dt)
    if map_kind not in MAP_KINDS:
        raise ValueError(f"map_kind must be one of {MAP_KINDS}, got {map_kind!r}")
    hermitian_map = map_kind == "hermitian_root"
    tol = tol if tol is not None else get_tolerances()

    steps, taus = _stage_times(t0, t1, dt)
    phis, rates = profile(np.asarray(taus, dtype=float))

    # the prefix ends at the last step whose stages all clear the margin;
    # usable is -1 when the first stage is inside it
    bad = np.flatnonzero(~(np.abs(np.sin(phis)) >= tol.ep_margin))
    usable, t_fail = len(steps), None
    if bad.size:
        usable, t_fail = (int(bad[0]) - 1) // 2, float(taus[bad[0]])

    rows = usable + 1
    psis = np.empty((rows, n), dtype=complex)
    generators = np.empty((rows, n, n), dtype=complex)
    phys_norms = np.empty(rows)
    if textbook:
        thetas = omegas = np.broadcast_to(np.eye(n, dtype=complex), generators.shape)
    else:
        thetas, omegas = np.empty((2, rows, n, n), dtype=complex)
    per_call = max(1, (STAGE_BLOCK // 2) * MAX_DIM**2 // n**2)
    edges = [0, *range(per_call, usable, per_call), usable] if rows else []
    psi, phase = psi0.astype(_CLD), np.zeros(n, dtype=np.longdouble)
    for lo, hi in zip(edges, edges[1:]):
        # steps lo..hi-1 take stages 2 lo..2 hi; each stage depends on its
        # own angle and rate only, so stage 2 lo matches the block before
        span, block = slice(2 * lo, 2 * hi + 1), slice(lo, hi + 1)
        h, second, theta, omega = _stage_stack(
            n, phis[span], rates[span], tol, textbook, hermitian_map
        )
        gens = second if textbook else h - second
        if textbook and not lo:
            psi = omega[0] @ psi
        if textbook and not hermitian_map:
            # diagonal: psi' = exp(-i Phi) psi'(t0), Phi by Simpson's rule, the
            # running phase first in the cumsum so that any split sums alike
            lam = np.diagonal(gens, axis1=-2, axis2=-1).astype(np.longdouble)
            simpson = steps[lo:hi, None].astype(np.longdouble) / 6 * (
                lam[:-1:2] + 4 * lam[1::2] + lam[2::2])
            phases = np.cumsum(np.concatenate([phase[None], simpson]), axis=0)
            kets, phase = np.exp(_CLD(-1j) * phases) * psi, phases[-1]
        else:
            kets = np.empty((hi - lo + 1, n), dtype=_CLD)
            kets[0] = psi
            propagators = _propagators(gens, steps[lo:hi]).astype(_CLD, copy=False)
            for k, step in enumerate(propagators, 1):
                kets[k] = psi = step @ psi
        if not textbook:
            thetas[block], omegas[block] = theta[::2], omega[::2]
        norms = _metric_norms(kets, thetas[block] if textbook else theta[::2])
        for k, why in _unreal(norms).items():
            time = float(taus[2 * (lo + k)])
            raise NonRealNorm(f"metric norm came out {why} at t = {time:.6g}")
        psis[block], generators[block], phys_norms[block] = kets, gens[::2], norms.real
    states = Trajectory(
        taus[: 2 * rows : 2].astype(float), psis, thetas, phys_norms, generators, omegas
    )
    if t_fail is not None:
        where = "trajectory reached" if rows else "profile starts inside"
        raise EPProximity(
            f"{where} the exceptional-point margin at t = {t_fail:.6g}",
            trajectory=states,
            t_fail=t_fail,
        )
    return states


def evolve(
    n: int,
    profile: PhiProfile,
    psi0,
    t0: float,
    t1: float,
    dt: float,
    tol: Tolerances | None = None,
    map_kind: str = "ketket_columns",
) -> Trajectory:
    """Integrate i dpsi/dt = G(t) psi, sampling every step.

    Classical fixed-step fourth-order Runge-Kutta with the generator
    evaluated at sub-stage times.  The samples come back as a
    ``Trajectory``; every sample carries the metric at its instant and
    the physical norm, which stays constant to the integrator's order.
    A trajectory that would cross the exceptional-point margin aborts
    with the completed prefix attached to the raised error; the
    earliest state whose norm is complex or non-finite raises
    ``NonRealNorm``.  Bad inputs raise ``ValueError`` (``_check_inputs``).
    """
    return _integrate(
        n, profile, psi0, t0, t1, dt, tol, textbook=False, map_kind=map_kind
    )


def textbook_evolve(
    n: int,
    profile: PhiProfile,
    psi0,
    t0: float,
    t1: float,
    dt: float,
    tol: Tolerances | None = None,
    map_kind: str = "ketket_columns",
) -> Trajectory:
    """Solve the mapped problem i dpsi'/dt = (Omega H Omega^-1) psi'.

    The initial ket is mapped through Omega(t0); the generator is
    Hermitian, so the ordinary norm is conserved, making this the
    independent cross-check of the moving-metric integration (states
    carry theta = identity).  On the ketket map the generator is the
    real diagonal Lambda(t), so psi' = exp(-i Phi) psi'(t0) with no step
    error but that of Phi = int Lambda dt, summed by Simpson's rule on the
    RK4 stage grid in extended precision (fourth order, far below
    ``evolve``'s error at one dt): the crosscheck then reads ``evolve``'s
    own error.  The Hermitian-root map is not diagonal and takes RK4.
    Refuses inputs, maps and norms as ``evolve`` does.
    """
    return _integrate(
        n, profile, psi0, t0, t1, dt, tol, textbook=True, map_kind=map_kind
    )


def physical_norm(state: EvolutionState) -> float:
    """Metric norm <psi|Theta|psi>, demanded real to rounding and finite."""
    q = _metric_norms(np.asarray(state.psi)[None], as_square(state.theta)[None])
    why = _unreal(q).get(0)
    if why:
        raise NonRealNorm(f"metric norm came out {why}")
    return float(q[0].real)


def _expectation_stack(kets, thetas, lams):
    """Metric expectations of each ket, with each row's refusal or None.

    Row k is <psi|Theta Lambda|psi> / <psi|Theta|psi> for its own ket,
    metric and operator.  It is refused with ``NotAnObservable`` when
    Lambda fails quasi-Hermiticity against Theta, the 2-norm residual
    |M|_2 / (|Lambda|_2 |Theta|_2) of M = Lambda^dagger Theta - Theta
    Lambda above 1e-8 (``metric._quasi_hermiticity_stack``), else with
    ``NonRealNorm`` when the value is not real to rounding or not finite.

    The gate needs no SVD where the Frobenius bound
    N |M|_F / (|Lambda|_F |Theta|_F), never below the residual, clears it
    with the slack ``_residual_refusals`` keeps against rounding in either
    norm, and only where |Lambda|_F, |Theta|_F and their product are
    ``_squares_in_range``: there neither route's norms of Lambda and Theta,
    nor their product, overflow or underflow, squares of M lost to the
    denormals move the bound by under N^2 2^-111, and an overflowing M
    never clears.  Every other row -- a zero or non-finite matrix, extreme
    scales, a residual near or past the gate -- takes the exact residual,
    which a refusal quotes.
    """
    # M as the exact route forms it, so an overflow raises as it does there
    mismatch = lams.conj().swapaxes(-1, -2) @ thetas - thetas @ lams
    with np.errstate(all="ignore"):
        fm, fl, ft = np.linalg.norm(np.stack([mismatch, lams, thetas]), axis=(-2, -1))
        norms = np.stack([fl, ft, fl * ft])
        bound = lams.shape[-1] * fm / norms[2]
    cleared = (bound <= 1e-8 * (1 - 1e-9)) & _squares_in_range(norms).all(axis=0)
    doubt = np.flatnonzero(~cleared)
    gaps = np.zeros(len(bound))
    if doubt.size:
        gaps[doubt] = _quasi_hermiticity_stack(lams[doubt], thetas[doubt])
    # Python's complex division, which rounds unlike numpy's near the gate
    values = [
        num / den
        for num, den in zip(_metric_norms(kets, thetas @ lams).tolist(),
                            _metric_norms(kets, thetas).tolist())
    ]
    whys = _unreal(values, floor=1.0)
    errors = [
        NotAnObservable(f"metric compatibility residual {gap:.3e} exceeds 1e-08")
        if gap > 1e-8
        else NonRealNorm(f"expectation came out {whys[k]}") if k in whys
        else None
        for k, gap in enumerate(gaps.tolist())
    ]
    return [value.real for value in values], errors


def expectation(state: EvolutionState, lam) -> float:
    """Normalized metric expectation <psi|Theta Lambda|psi> / <psi|Theta|psi>.

    Only operators compatible with the instantaneous metric qualify;
    for those the value is real up to rounding.
    """
    values, errors = _expectation_stack(
        np.asarray(state.psi)[None], as_square(state.theta)[None], as_square(lam)[None]
    )
    if errors[0] is not None:
        raise errors[0]
    return values[0]
