"""Time evolution with a moving metric.

The instantaneous adjoint eigenbasis gives a map Omega(t) whose time
dependence produces a Coriolis generator Sigma = i Omega^-1 dOmega/dt.
States in the friendly space evolve under G = H - Sigma, and the
moving metric Theta = Omega^dagger Omega keeps <psi|Theta|psi>
constant even though neither G nor H is normal.  An independent
integration in the mapped representation (where the generator is
Hermitian) cross-checks the whole pipeline.

The whole chain -- ketket basis, Dyson map, its analytic slope in the
boundary angle, Coriolis term -- runs on one route, ``_stage_stack``,
as (m, N, N) expressions over a block of stage angles; ``coriolis`` and
``generator`` are stacks of one through it.  At N >= 3 the kernel solves
each driven well in closed form from its angle, with no eigensolver
(``metric._well_ketket_stack``); at N = 2 it takes the general eigen
route (``metric._ketket_stack``).  Two-site runs on the ketket map skip
the kernel: the closed-form map family and its exact derivative are
evaluated in extended precision for every stage at once.

The equation is linear in psi, so each RK4 step is a matrix,
psi_{k+1} = R_k psi_k.  The integrator takes the stages of up to
``STAGE_BLOCK // 2`` steps from one kernel call, forms their R_k with
stacked matmuls in the dtype of the stage stack (complex128 for the
generic kernel, so BLAS does them; extended precision for two sites),
marches the extended-precision ket with one matrix-vector product per
step and checks the block's physical norms in one stacked product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Tolerances, get_tolerances
from .errors import EPProximity, NonRealNorm, NotAnObservable
from .hamiltonian import PhiProfile, build_h, build_h_at_time, z_from_phi
from .matrix_core import _eigen_arrays, _sqrt_hpd_stack, as_square
from .metric import (
    _dyson_stack,
    _ketket_slope,
    _ketket_stack,
    _quasi_hermiticity_stack,
    _well_ketket_stack,
)

_CLD = np.clongdouble

#: Dyson-map factorizations an integration can be built on.  The
#: adjoint-eigenvector columns are the default; the Hermitian square
#: root of the same metric is the gauge-rotated alternative.  The two
#: give different generators G(t) but share Theta = Omega^dagger Omega,
#: so each conserves the same physical norm on its own.
MAP_KINDS = ("ketket_columns", "hermitian_root")

#: stages per call of the stage kernel, STAGE_BLOCK // 2 RK4 steps (the
#: first call also computes the starting stage); bounds the memory of a
#: long trajectory and the work an early refusal wastes.  2,000 steps of
#: ``evolve`` (linear phi0 = 0.9, omega = 0.6, dt 0.001) take, beside the
#: states, in blocks of 32 / in blocks of 128 / in one piece: at N=3
#: 0.2 / 0.4 / 4.2 MB for 0.09-0.14 / 0.06 / 0.04 s; at N=8 0.7 / 2.1 / 34 MB
#: for 0.20 / 0.09-0.12 / 0.10-0.13 s; at N=24 4.6 / 17 / 315 MB for
#: 0.47-0.64 / 0.51-0.57 / 0.98 s (two runs, median of 3 each; 2-core x86
#: VM, numpy 2.4).  With the closed-form wells the per-block overhead
#: outweighs the solve up to N=8, but a retune waits for a benchmark op
#: whose trajectory spans blocks
STAGE_BLOCK = 32


@dataclass(frozen=True)
class EvolutionState:
    """One trajectory sample: ket, metric cache, and physical norm.

    ``generator`` is the matrix the integrator applied to the ket at this
    sample: G = H - Sigma built from the selected map for ``evolve``, the
    mapped Hamiltonian Omega H Omega^-1 for ``textbook_evolve``.
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


@dataclass(frozen=True)
class GeneratorSnapshot:
    """The three generators at one instant, with their eigenvalues."""

    t: float
    H: np.ndarray
    Sigma: np.ndarray
    G: np.ndarray
    sigma_eigs: np.ndarray
    g_eigs: np.ndarray


def _stage_stack(n, phis, rates, tol, textbook=False, hermitian_map=False):
    """H, Sigma, Theta and Omega at every stage angle, each (m, N, N).

    The ketket basis of each H, its Dyson map and metric, and Nelson's
    slope of the map, times the rate, give Sigma = i Omega^-1 dOmega/dt;
    with ``hermitian_map`` the map is the Hermitian root of the same
    metric, differentiated through its Sylvester equation.  Textbook
    stages return Omega H Omega^-1 in Sigma's place.  Each stage depends
    on its own angle and rate alone, so any split into blocks gives the
    same arrays.  A refused stack raises its earliest stage's refusal.
    """

    def refuse(errors):
        first = next((k for k, error in enumerate(errors) if error is not None), None)
        if first is not None:
            if first:  # an earlier stage may still fail a later step
                _stage_stack(n, phis[:first], rates[:first], tol, textbook, hermitian_map)
            raise errors[first]

    h = build_h(n, z_from_phi(phis))
    values, vectors, errors = _well_ketket_stack(h, phis) if n > 2 else _ketket_stack(h)
    refuse(errors)
    omega, omega_inv, theta, cprods, errors = _dyson_stack(vectors, tol)
    refuse(errors)
    slope = None if textbook else _ketket_slope(phis, values, vectors, cprods)
    if hermitian_map:
        lift = None if textbook else slope @ omega
        tangent = None if textbook else lift + lift.conj().swapaxes(-1, -2)
        omega, omega_inv, omega_dot, errors = _sqrt_hpd_stack(theta, tol, tangent)
        refuse(errors)
    elif not textbook:
        omega_dot = slope.conj().swapaxes(-1, -2)
    if textbook:
        return h, omega @ h @ omega_inv, theta, omega
    return h, 1j * (omega_inv @ (omega_dot * rates[:, None, None])), theta, omega


def coriolis(
    n: int,
    profile: PhiProfile,
    t: float,
    tol: Tolerances | None = None,
) -> np.ndarray:
    """Coriolis generator Sigma(t) = i Omega^-1(t) dOmega/dt.

    The stage kernel on a stack of one: the ketket map is differentiated
    exactly through the boundary angle (the only route by which time
    enters), and the chain rule multiplies in the profile's rate.
    """
    tol = tol if tol is not None else get_tolerances()
    phi, phi_dot = profile(float(t))
    if abs(np.sin(phi)) < tol.ep_margin:
        raise EPProximity(
            f"|sin phi| = {abs(np.sin(phi)):.3e} is inside the "
            f"exceptional-point margin {tol.ep_margin:g} at t = {t:.6g}"
        )
    return _stage_stack(n, np.array([phi]), np.array([phi_dot]), tol)[1][0]


def generator(
    n: int,
    profile: PhiProfile,
    t: float,
    tol: Tolerances | None = None,
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
    """The real-value gate: per value None, "non-finite" or "complex (value)".

    A value passes when |Im| <= IMAG_GATE max(floor, |Re|) and both parts
    fit a double; NaN or a part past the double range is non-finite,
    refused before a cast to float can warn.
    """
    values = np.asarray(values)
    re, im = np.abs(values.real), np.abs(values.imag)
    finite = (re <= _DOUBLE_MAX) & (im <= _DOUBLE_MAX)
    real = finite & (im <= IMAG_GATE * np.maximum(floor, re))
    return [
        None if ok else f"complex ({complex(values[k]):.3e})" if fin else "non-finite"
        for k, (ok, fin) in enumerate(zip(real.tolist(), finite.tolist()))
    ]


def _metric_norms(kets, thetas):
    """<psi_k|Theta_k|psi_k> of each ket against its metric, complex.

    Theta psi first, then the inner product, as stacked matmuls: each row
    rounds as ``np.vdot(psi, theta @ psi)`` does, which einsum would not.
    """
    return (kets.conj()[:, None, :] @ (thetas @ kets[..., None]))[:, 0, 0]


def _two_site_stack(phis, rates, textbook):
    """``_stage_stack`` for two sites in closed form, in extended precision.

    The closed-form ketket map family and its exact angle derivative,
    at every stage angle at once.  It stays beside the generic kernel
    for speed: over 801 stages it costs about 0.001 ms per stage, the
    generic kernel 0.010 ms in one piece and 0.020 ms in blocks of 32
    (2-core x86 VM, numpy 2.4).
    """
    phis = np.asarray(phis, dtype=np.longdouble)
    e = np.exp(_CLD(-1j) * phis.astype(_CLD))
    one, zero, hop = (np.full_like(e, value) for value in (1.0, 0.0, -1.0))
    z = 1j * np.cos(phis.astype(_CLD))
    h = _stack_2x2(2.0 - z, hop, hop, 2.0 + z)
    omega = _stack_2x2(one, -1j * e, 1j * e, one)
    omega_inv = _stack_2x2(one, 1j * e, -1j * e, one) / (1.0 - e * e)[:, None, None]
    theta = omega.conj().swapaxes(-1, -2) @ omega
    if textbook:
        return h, omega @ h @ omega_inv, theta, omega
    # d/dphi [[1, -ie], [ie, 1]] = [[0, -e], [e, 0]], times the rate
    omega_dot = _stack_2x2(zero, -e, e, zero)
    omega_dot *= np.asarray(rates, dtype=float).astype(_CLD)[:, None, None]
    return h, 1j * (omega_inv @ omega_dot), theta, omega


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

    margin_ok = np.abs(np.sin(phis)) >= tol.ep_margin
    bad = np.flatnonzero(~margin_ok)
    usable = len(steps)
    t_fail = None
    if bad.size:
        first_bad = int(bad[0])
        if first_bad == 0:
            raise EPProximity(
                f"profile starts inside the exceptional-point margin at t = {t0:.6g}",
                trajectory=[],
                t_fail=float(taus[0]),
            )
        usable = (first_bad - 1) // 2
        t_fail = float(taus[first_bad])

    two_site = n == 2 and not hermitian_map
    per_call = max(1, usable if two_site else STAGE_BLOCK // 2)
    edges = [0, *range(per_call, usable, per_call), usable]
    psi = psi0.astype(_CLD)
    states = []
    for lo, hi in zip(edges, edges[1:]):
        # steps lo..hi-1 take stages 2 lo..2 hi; the block before ends at
        # stage 2 lo, so only the first block computes its starting state
        start = int(lo > 0)
        span = slice(2 * lo + start, 2 * hi + 1)
        h, second, theta, omega = (
            _two_site_stack(phis[span], rates[span], textbook) if two_site
            else _stage_stack(n, phis[span], rates[span], tol, textbook, hermitian_map)
        )
        gens = second if textbook else h - second
        if textbook and not start:
            psi = omega[0] @ psi
        propagators = _propagators(
            np.concatenate([last_gen, gens]) if start else gens, steps[lo:hi]
        )
        last_gen = gens[-1:]
        kets = np.empty((hi - lo + 1, n), dtype=_CLD)
        kets[0] = psi
        for k, step in enumerate(propagators.astype(_CLD, copy=False), start=1):
            kets[k] = psi = step @ psi
        kets = kets[start:]
        at_state = slice(start, None, 2)  # the stack rows at even global stages
        times = taus[2 * (lo + start) : 2 * hi + 1 : 2]
        if textbook:
            theta = omega = np.broadcast_to(np.eye(n), theta.shape)
        norms = _metric_norms(kets, theta[at_state])
        for k, why in enumerate(_unreal(norms)):
            if why:
                raise NonRealNorm(f"metric norm came out {why} at t = {float(times[k]):.6g}")
        states += map(
            EvolutionState,
            times.astype(float).tolist(),
            kets.astype(complex),
            theta[at_state].astype(complex),
            norms.real.astype(float).tolist(),
            gens[at_state].astype(complex),
            omega[at_state].astype(complex),
        )
    if t_fail is not None:
        raise EPProximity(
            f"trajectory reached the exceptional-point margin at t = {t_fail:.6g}",
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
) -> list[EvolutionState]:
    """Integrate i dpsi/dt = G(t) psi, sampling every step.

    Classical fixed-step fourth-order Runge-Kutta with the generator
    evaluated at sub-stage times.  Every sample carries the metric at
    its instant and the physical norm, which stays constant to the
    integrator's order.  A trajectory that would cross the
    exceptional-point margin aborts with the completed prefix attached
    to the raised error; the earliest state whose norm is complex or
    non-finite raises ``NonRealNorm``.  Bad inputs raise ``ValueError``
    (``_check_inputs``).
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
) -> list[EvolutionState]:
    """Integrate the mapped problem i dpsi'/dt = (Omega H Omega^-1) psi'.

    The initial ket is mapped through Omega(t0); the generator is
    Hermitian, so the ordinary norm is conserved, making this the
    independent cross-check of the moving-metric integration (states
    carry theta = identity).  Refuses inputs and norms as ``evolve`` does.
    """
    return _integrate(
        n, profile, psi0, t0, t1, dt, tol, textbook=True, map_kind=map_kind
    )


def physical_norm(state: EvolutionState) -> float:
    """Metric norm <psi|Theta|psi>, demanded real to rounding and finite."""
    q = _metric_norms(np.asarray(state.psi)[None], as_square(state.theta)[None])
    why = _unreal(q)[0]
    if why:
        raise NonRealNorm(f"metric norm came out {why}")
    return float(q[0].real)


def _expectation_stack(kets, thetas, lams):
    """Metric expectations of each ket, with each row's refusal or None.

    Row k is <psi|Theta Lambda|psi> / <psi|Theta|psi> for its own ket,
    metric and operator.  It is refused with ``NotAnObservable`` when
    Lambda fails quasi-Hermiticity against Theta, else with
    ``NonRealNorm`` when the value is not real to rounding or not finite.
    """
    mismatch = _quasi_hermiticity_stack(lams, thetas).tolist()
    # Python's complex division, which rounds unlike numpy's near the gate
    values = [
        num / den
        for num, den in zip(_metric_norms(kets, thetas @ lams).tolist(),
                            _metric_norms(kets, thetas).tolist())
    ]
    errors = [
        NotAnObservable(f"metric compatibility residual {gap:.3e} exceeds 1e-08")
        if gap > 1e-8
        else NonRealNorm(f"expectation came out {why}") if why
        else None
        for gap, why in zip(mismatch, _unreal(values, floor=1.0))
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
