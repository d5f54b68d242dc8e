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
``generator`` are stacks of one through it.  Two-site problems take a
fast path: the closed-form map family and its exact derivative are
evaluated in extended precision for every stage at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Tolerances, get_tolerances
from .errors import EPProximity, NoConvergence, NonRealNorm, NotAnObservable
from .hamiltonian import PhiProfile, build_h, build_h_at_time, z_from_phi
from .matrix_core import _decompose_stack, _sqrt_hpd_stack, as_square
from .metric import _dyson_stack, _ketket_slope, _ketket_stack, quasi_hermiticity_residual

_CLD = np.clongdouble

#: Dyson-map factorizations an integration can be built on.  The
#: adjoint-eigenvector columns are the default; the Hermitian square
#: root of the same metric is the gauge-rotated alternative.  The two
#: give different generators G(t) but share Theta = Omega^dagger Omega,
#: so each conserves the same physical norm on its own.
MAP_KINDS = ("ketket_columns", "hermitian_root")

#: stages per call of the stage kernel; bounds the memory of a long
#: trajectory and the work an early refusal wastes (2,000 steps at N=3:
#: 0.3 MB of kernel arrays in blocks of 32, 10 MB in one piece, 0.31 s
#: against 0.17 s; 2-core x86 VM)
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
    values, vectors, errors = _ketket_stack(h)
    refuse(errors)
    omega, omega_inv, theta, errors = _dyson_stack(vectors, tol)
    refuse(errors)
    slope = None if textbook else _ketket_slope(phis, values, vectors, omega_inv)
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
    spectra = _decompose_stack(np.stack([sigma, g]))
    for dec in spectra:
        if isinstance(dec, NoConvergence):
            raise dec
    return GeneratorSnapshot(
        t=float(t),
        H=h,
        Sigma=sigma,
        G=g,
        sigma_eigs=spectra[0].eigenvalues,
        g_eigs=spectra[1].eigenvalues,
    )


# ------------------------------------------------------------- integration


def _stage_times(t0: float, t1: float, dt: float):
    """Step sizes and the RK stage grid t0, t0+dt/2, t0+dt, ...

    The horizon end is always hit exactly; a remainder shorter than dt
    becomes one final shortened step.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    span = float(t1) - float(t0)
    if span < 0.0:
        raise ValueError("t1 must not precede t0")
    n_full = int(np.floor(span / dt + 1e-9))
    remainder = span - n_full * dt
    if remainder <= 1e-9 * dt:
        remainder = 0.0
    steps = [dt] * n_full + ([remainder] if remainder else [])
    t0_ld = np.longdouble(t0)
    half = np.longdouble(dt) / 2
    taus = [t0_ld + k * half for k in range(2 * n_full + 1)]
    if remainder:
        taus.append(taus[-1] + np.longdouble(remainder) / 2)
        taus.append(np.longdouble(t1))
    return steps, np.array(taus, dtype=np.longdouble)


def _rk4_step(psi, h, g0, g1, g2):
    k1 = -1j * (g0 @ psi)
    k2 = -1j * (g1 @ (psi + (h / 2) * k1))
    k3 = -1j * (g1 @ (psi + (h / 2) * k2))
    k4 = -1j * (g2 @ (psi + h * k3))
    return psi + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def _quadratic_form(psi, theta) -> complex:
    return complex(np.vdot(psi, theta @ psi))


def _make_state(t, psi, generator, theta, omega) -> EvolutionState:
    q = _quadratic_form(psi, theta)
    if abs(q.imag) > 1e-10 * abs(q.real):
        raise NonRealNorm(
            f"metric norm came out complex ({q:.3e}) at t = {float(t):.6g}"
        )
    return EvolutionState(
        t=float(t),
        psi=np.asarray(psi, dtype=complex),
        theta=np.array(theta, dtype=complex),
        phys_norm=float(q.real),
        generator=np.array(generator, dtype=complex),
        omega=np.array(omega, dtype=complex),
    )


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


def _integrate(n, profile, psi0, t0, t1, dt, tol, textbook, map_kind):
    if map_kind not in MAP_KINDS:
        raise ValueError(f"map_kind must be one of {MAP_KINDS}, got {map_kind!r}")
    hermitian_map = map_kind == "hermitian_root"
    tol = tol if tol is not None else get_tolerances()
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    if psi0.shape != (n,):
        raise ValueError(f"initial ket must have length {n}")
    if np.linalg.norm(psi0) == 0.0:
        raise ValueError("initial ket must be nonzero")

    steps, taus = _stage_times(float(t0), float(t1), float(dt))
    phis, rates = profile(np.asarray(taus, dtype=float))
    phis = np.atleast_1d(phis)
    rates = np.atleast_1d(rates)

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

    n_stages = 2 * usable + 1
    phis, rates = phis[:n_stages], rates[:n_stages]
    two_site = n == 2 and not hermitian_map
    block = n_stages if two_site else STAGE_BLOCK

    def stages():
        """(generator, theta, omega) of every stage in order, a block at a time."""
        for lo in range(0, n_stages, block):
            span = slice(lo, lo + block)
            h, second, theta, omega = (
                _two_site_stack(phis[span], rates[span], textbook) if two_site
                else _stage_stack(n, phis[span], rates[span], tol, textbook, hermitian_map)
            )
            yield from zip(second if textbook else h - second, theta, omega)

    identity = np.eye(n, dtype=complex)

    def state_at(k, psi, gen, theta, omega):
        if textbook:
            theta = omega = identity
        return _make_state(taus[2 * k], psi, gen, theta, omega)

    stage = stages()
    g0, theta, omega = next(stage)
    psi = psi0.astype(_CLD)
    if textbook:
        psi = omega @ psi
    states = [state_at(0, psi, g0, theta, omega)]
    for k in range(usable):
        (g1, _, _), (g2, theta, omega) = next(stage), next(stage)
        psi = _rk4_step(psi, np.longdouble(steps[k]), g0, g1, g2)
        states.append(state_at(k + 1, psi, g2, theta, omega))
        g0 = g2
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
    to the raised error.
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
    carry theta = identity).
    """
    return _integrate(
        n, profile, psi0, t0, t1, dt, tol, textbook=True, map_kind=map_kind
    )


def physical_norm(state: EvolutionState) -> float:
    """Metric norm <psi|Theta|psi>, demanded real to rounding."""
    q = _quadratic_form(state.psi, as_square(state.theta))
    if abs(q.imag) > 1e-10 * abs(q.real):
        raise NonRealNorm(f"metric norm has imaginary part {q.imag:.3e}")
    return float(q.real)


def expectation(state: EvolutionState, lam) -> float:
    """Normalized metric expectation <psi|Theta Lambda|psi> / <psi|Theta|psi>.

    Only operators compatible with the instantaneous metric qualify;
    for those the value is real up to rounding.
    """
    lam = as_square(lam)
    theta = as_square(state.theta)
    mismatch = quasi_hermiticity_residual(lam, theta)
    if mismatch > 1e-8:
        raise NotAnObservable(
            f"metric compatibility residual {mismatch:.3e} exceeds 1e-08"
        )
    weight = _quadratic_form(state.psi, theta)
    value = _quadratic_form(state.psi, theta @ lam) / weight
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise NonRealNorm(f"expectation has imaginary part {value.imag:.3e}")
    return float(value.real)
