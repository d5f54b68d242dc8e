"""Time evolution with a moving metric.

The instantaneous adjoint eigenbasis gives a map Omega(t) whose time
dependence produces a Coriolis generator Sigma = i Omega^-1 dOmega/dt.
States in the friendly space evolve under G = H - Sigma, and the
moving metric Theta = Omega^dagger Omega keeps <psi|Theta|psi>
constant even though neither G nor H is normal.  An independent
integration in the mapped representation (where the generator is
Hermitian) cross-checks the whole pipeline.

Two-site problems take a fast path: the closed-form map family is
differentiated in extended precision, which keeps the finite-difference
noise floor far below the fourth-order integrator error so convergence
studies come out clean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Tolerances, get_tolerances
from .errors import EPProximity, NonRealNorm, NotAnObservable
from .hamiltonian import PhiProfile, build_h, build_h_at_time, z_from_phi
from .matrix_core import _decompose_stack, adjoint, as_square, eig_general, inverse, sqrt_hpd
from .metric import build_metric, dyson_from_ketkets, ketkets, quasi_hermiticity_residual

_CLD = np.clongdouble

#: Dyson-map factorizations an integration can be built on.  The
#: adjoint-eigenvector columns are the default; the Hermitian square
#: root of the same metric is the gauge-rotated alternative.  The two
#: give different generators G(t) but share Theta = Omega^dagger Omega,
#: so each conserves the same physical norm on its own.
MAP_KINDS = ("ketket_columns", "hermitian_root")

#: finite-difference step (in the boundary angle) for the extended
#: precision two-site fast path; small enough that the O(step^2)
#: truncation sits below integrator error, large enough to clear the
#: extended-precision rounding floor
TWO_SITE_FD_STEP = 1.5e-7

#: stages per stacked eigen-solve in the generic stage pipeline; bounds
#: the memory of a long trajectory and the work an early failure wastes
#: (2,000 steps at N=3 peak near 20 MB of decompositions when solved in
#: one piece, near 3 MB in blocks of 32, at the same speed)
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


def _ketket_map(basis):
    """Omega whose rows are the ketkets (the ``ketket_columns`` map)."""
    return adjoint(basis.vectors)


def _root_map(basis):
    """Hermitian square root of the all-ones metric (``hermitian_root``)."""
    return sqrt_hpd(build_metric(basis, np.ones(len(basis.eigenvalues))))


def _side_angles(phis, fd: float):
    """Angles phi +- fd in double precision, and their spacing.

    The spacing float(phi+fd) - float(phi-fd) is exactly representable,
    so a central difference divides by the true distance.
    """
    phis = np.asarray(phis, dtype=np.longdouble)
    hi = (phis + np.longdouble(fd)).astype(float)
    lo = (phis - np.longdouble(fd)).astype(float)
    spacing = (hi.astype(np.longdouble) - lo.astype(np.longdouble)).astype(float)
    return hi, lo, spacing


def _adjoint_solves(n: int, angles):
    """(H, adjoint eigendecomposition) pairs at the angles.

    One stacked eigen-solve; a decomposition is the NoConvergence that
    the adjoint's solve ended in when it failed.
    """
    h = build_h(n, z_from_phi(angles))
    return list(zip(h, _decompose_stack(h.conj().swapaxes(-1, -2))))


def _basis(solve, hint=None):
    """Ketket basis of one (H, adjoint eigendecomposition) pair."""
    h, dec = solve
    return ketkets(h, order_hint=hint, adjoint_eig=dec)


def _map_slope(side_map, basis, high, low, spacing):
    """Central difference of ``side_map`` between the side solves.

    The basis at the centre is handed to both sides as the ordering hint
    so the difference never jumps between column pairings.
    """
    upper = side_map(_basis(high, basis))
    lower = side_map(_basis(low, basis))
    return (upper - lower) / spacing


def coriolis(
    n: int,
    profile: PhiProfile,
    t: float,
    fd_step: float | None = None,
    tol: Tolerances | None = None,
) -> np.ndarray:
    """Coriolis generator Sigma(t) = i Omega^-1(t) dOmega/dt.

    The map is differentiated through the boundary angle (the only
    route by which time enters), so the finite-difference error is
    O(fd_step^2) independently of how fast the profile runs.
    """
    tol = tol if tol is not None else get_tolerances()
    fd = float(fd_step) if fd_step is not None else tol.fd_step
    phi, phi_dot = profile(float(t))
    if abs(np.sin(phi)) < tol.ep_margin:
        raise EPProximity(
            f"|sin phi| = {abs(np.sin(phi)):.3e} is inside the "
            f"exceptional-point margin {tol.ep_margin:g} at t = {t:.6g}"
        )
    hi, lo, spacing = _side_angles(phi, fd)
    centre, high, low = _adjoint_solves(n, [phi, hi, lo])
    basis = _basis(centre)
    bundle = dyson_from_ketkets(basis)
    omega_slope = _map_slope(_ketket_map, basis, high, low, spacing)
    omega_dot = omega_slope * float(phi_dot)
    return 1j * (bundle.omega_inv @ omega_dot)


def generator(
    n: int,
    profile: PhiProfile,
    t: float,
    fd_step: float | None = None,
    tol: Tolerances | None = None,
) -> GeneratorSnapshot:
    """Snapshot of H, Sigma, and G = H - Sigma with their spectra."""
    sigma = coriolis(n, profile, t, fd_step=fd_step, tol=tol)
    h = build_h_at_time(n, profile, float(t))
    g = h - sigma
    return GeneratorSnapshot(
        t=float(t),
        H=h,
        Sigma=sigma,
        G=g,
        sigma_eigs=eig_general(sigma).eigenvalues,
        g_eigs=eig_general(g).eigenvalues,
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
        theta=np.asarray(theta, dtype=complex),
        phys_norm=float(q.real),
        generator=generator,
        omega=omega,
    )


class _TwoSiteStages:
    """Stage data for two sites: one extended-precision batch.

    The closed-form map family (adjoint eigenvector columns) is
    evaluated at every stage angle, differenced in the angle with
    exact spacing, and assembled into the requested generator.
    """

    def __init__(self, phis, rates, fd, textbook):
        phis = np.asarray(phis, dtype=np.longdouble)
        rates = np.asarray(rates, dtype=float).astype(_CLD)
        fd_ld = np.longdouble(fd)
        hi = phis + fd_ld
        lo = phis - fd_ld
        omega_dot = (self._maps(hi) - self._maps(lo)) / (hi - lo).astype(_CLD)[
            :, None, None
        ]
        omega_dot *= rates[:, None, None]

        self.omega = self._maps(phis)
        e = np.exp(_CLD(-1j) * phis.astype(_CLD))
        det = 1.0 - e * e
        m = len(phis)
        omega_inv = np.empty((m, 2, 2), dtype=_CLD)
        omega_inv[:, 0, 0] = 1.0
        omega_inv[:, 0, 1] = 1j * e
        omega_inv[:, 1, 0] = -1j * e
        omega_inv[:, 1, 1] = 1.0
        omega_inv /= det[:, None, None]

        sigma = 1j * (omega_inv @ omega_dot)
        z = 1j * np.cos(phis.astype(_CLD))
        h = np.zeros((m, 2, 2), dtype=_CLD)
        h[:, 0, 0] = 2.0 - z
        h[:, 0, 1] = -1.0
        h[:, 1, 0] = -1.0
        h[:, 1, 1] = 2.0 + z
        self.theta = self.omega.conj().swapaxes(-1, -2) @ self.omega
        self.gen = (self.omega @ h @ omega_inv) if textbook else (h - sigma)

    @staticmethod
    def _maps(phis):
        e = np.exp(_CLD(-1j) * phis.astype(_CLD))
        omega = np.empty((len(phis), 2, 2), dtype=_CLD)
        omega[:, 0, 0] = 1.0
        omega[:, 0, 1] = -1j * e
        omega[:, 1, 0] = 1j * e
        omega[:, 1, 1] = 1.0
        return omega

    def generators(self, k):
        return self.gen[2 * k], self.gen[2 * k + 1], self.gen[2 * k + 2]

    def sample(self, k):
        """(generator, theta, omega) at the start of step k."""
        return self.gen[2 * k], self.theta[2 * k], self.omega[2 * k]


class _GenericStages:
    """Stage data through the full pipeline, eigen-solved a block at a time.

    The adjoint problems of ``STAGE_BLOCK`` consecutive stages (each
    centre angle and, unless textbook, its two difference angles) go
    through one stacked eigen-solve when the loop first reaches the
    block.  Ordering, scaling and the Dyson map then run stage by stage:
    column pairings are chained through ordering hints so the map varies
    continuously along the trajectory, and only the most recent stage is
    kept, since access is strictly sequential with one shared endpoint
    between consecutive steps.  With the hermitian_root factorization
    the map is the Hermitian square root of the same metric, smooth in
    the angle by construction.  Textbook stages need no map slope, so
    they solve the centre angles only.
    """

    def __init__(self, n, phis, rates, fd, textbook, hermitian_map=False):
        self.n = n
        self.phis = np.asarray(phis, dtype=float)
        self.rates = np.asarray(rates, dtype=float)
        self.fd = fd
        self.textbook = textbook
        self.hermitian_map = hermitian_map
        self._hint = None
        self._slot = (-1, None)
        self._block = (-1, None)

    def _solved(self, j):
        """The centre solve and the (high, low, spacing) sides at stage j.

        The side triple is None for textbook stages.
        """
        first = j - j % STAGE_BLOCK
        if self._block[0] != first:
            phis = self.phis[first:first + STAGE_BLOCK]
            angles, spacing = [phis], None
            if not self.textbook:
                hi, lo, spacing = _side_angles(phis, self.fd)
                angles += [hi, lo]
            solves = _adjoint_solves(self.n, np.concatenate(angles))
            self._block = (first, (len(phis), solves, spacing))
        size, solves, spacing = self._block[1]
        k = j - first
        if self.textbook:
            return solves[k], None
        return solves[k], (solves[size + k], solves[2 * size + k], spacing[k])

    def _stage(self, j):
        if self._slot[0] != j:
            centre, sides = self._solved(j)
            h = centre[0]
            basis = _basis(centre, self._hint)
            bundle = dyson_from_ketkets(basis)
            self._hint = basis
            if self.hermitian_map:
                omega = sqrt_hpd(bundle.theta)
                omega_inv = inverse(omega)
            else:
                omega, omega_inv = bundle.omega, bundle.omega_inv
            if sides is None:
                gen = omega @ h @ omega_inv
            else:
                side_map = _root_map if self.hermitian_map else _ketket_map
                omega_slope = _map_slope(side_map, basis, *sides)
                gen = h - 1j * (omega_inv @ (omega_slope * self.rates[j]))
            self._slot = (j, (gen, bundle.theta, omega))
        return self._slot[1]

    def generators(self, k):
        g0 = self._stage(2 * k)[0]
        g1 = self._stage(2 * k + 1)[0]
        g2 = self._stage(2 * k + 2)[0]
        return g0, g1, g2

    def sample(self, k):
        """(generator, theta, omega) at the start of step k."""
        return self._stage(2 * k)


def _integrate(n, profile, psi0, t0, t1, dt, fd_step, tol, textbook, map_kind):
    if map_kind not in MAP_KINDS:
        raise ValueError(f"map_kind must be one of {MAP_KINDS}, got {map_kind!r}")
    hermitian_map = map_kind == "hermitian_root"
    tol = tol if tol is not None else get_tolerances()
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    if psi0.shape != (n,):
        raise ValueError(f"initial ket must have length {n}")
    if np.linalg.norm(psi0) == 0.0:
        raise ValueError("initial ket must be nonzero")
    if fd_step is not None:
        fd = float(fd_step)
    else:
        fd = TWO_SITE_FD_STEP if n == 2 and not hermitian_map else tol.fd_step

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
    if n == 2 and not hermitian_map:
        stages = _TwoSiteStages(phis[:n_stages], rates[:n_stages], fd, textbook)
    else:
        stages = _GenericStages(
            n, phis[:n_stages], rates[:n_stages], fd, textbook, hermitian_map
        )

    identity = np.eye(n, dtype=complex)

    def state_at(k, psi):
        gen, theta, omega = stages.sample(k)
        if textbook:
            theta = omega = identity
        return _make_state(taus[2 * k], psi, gen, theta, omega)

    psi = psi0.astype(_CLD)
    if textbook:
        psi = stages.sample(0)[2] @ psi
    states = [state_at(0, psi)]
    for k in range(usable):
        g0, g1, g2 = stages.generators(k)
        psi = _rk4_step(psi, np.longdouble(steps[k]), g0, g1, g2)
        states.append(state_at(k + 1, psi))
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
    fd_step: float | None = None,
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
        n, profile, psi0, t0, t1, dt, fd_step, tol, textbook=False, map_kind=map_kind
    )


def textbook_evolve(
    n: int,
    profile: PhiProfile,
    psi0,
    t0: float,
    t1: float,
    dt: float,
    fd_step: float | None = None,
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
        n, profile, psi0, t0, t1, dt, fd_step, tol, textbook=True, map_kind=map_kind
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
