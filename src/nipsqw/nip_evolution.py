"""Time evolution with a moving metric.

The instantaneous adjoint eigenbasis gives a map Omega(t) whose time
dependence produces a Coriolis generator Sigma = i Omega^-1 dOmega/dt.
States in the friendly space evolve under G = H - Sigma, and the
moving metric Theta = Omega^dagger Omega keeps <psi|Theta|psi>
constant even though neither G nor H is normal.  An independent
solution in the mapped representation (where the generator is
Hermitian) cross-checks the whole pipeline.

The whole chain -- ketket basis, Dyson map, its connection
A = Omega^-1 dOmega/dphi in the boundary angle, Coriolis term
Sigma = i phi' A -- runs on one route, ``_stage_stack``, as (m, N, N)
expressions over a block of stage angles; ``coriolis`` and ``generator``
are stacks of one through it.  Each driven well is solved in closed form
at its coupling sin phi (``metric._well_ketket_stack``), and the two-site
ketket map, its metric and its connection are written in closed form in
extended precision (``_two_site_map``).  The Hermitian root map is the
ketket map's polar factor, from one SVD of it, so both maps share their
refusals.

The map part of a block -- H, Theta, the map, the textbook generator
Omega H Omega^-1 and the connection -- is five read-only arrays kept in
the standard library's one-entry cache (``_map_block``): what the two
integrations apply, each formed once.  A refused block is solved once and
never kept, so the last clean block stays kept.  ``evolve`` and
``textbook_evolve`` of one drive solve the same blocks at bit-identical
angles, so on a drive of one block they share it, whichever comes first;
on a longer drive the second call finds only the first's last block there
and solves every block again.  Outputs are the same as a fresh solve's,
in concurrent threads too.

The equation is linear in psi, so each RK4 step is a matrix,
psi_{k+1} = R_k psi_k.  The integrator splits a drive into blocks by one
rule, sized from N (``STAGE_BLOCK``), and takes each block's stages from
one kernel call, the edge stage it shares with the block before
included.  It forms their R_k with stacked matmuls in the dtype of the
stage stack (complex128 from the well solve, so BLAS does them;
extended precision from the two-site map) and marches the
extended-precision ket: at N = 2 in runs of ``RUN`` steps, with stacked
prefix products (``_run_march``), above it with one matrix-vector
product per step.  It checks the block's physical norms against the
stack's own Theta in one stacked product.  Each block writes its rows
into arrays allocated once per trajectory, and the integrations return
them as a ``Trajectory``: read-only stacks that build an
``EvolutionState`` only when a row is read.  The textbook route on the
ketket map takes no step matrix: there Omega H Omega^-1 is the real
diagonal of the levels, so each mapped component only turns, by a phase
summed by Simpson's rule on the stages.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import Tolerances, get_tolerances
from .errors import EPProximity, NonRealNorm, NotAnObservable
from .hamiltonian import PhiProfile, build_h, build_h_at_time, z_from_phi
from .matrix_core import MAX_DIM, _eigen_arrays, _raise_earliest, _root_slope
from .matrix_core import _squares_in_range, as_square
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

    def __len__(self):
        return len(self.t)

    def __getitem__(self, k):
        rows = [getattr(self, name)[k] for name in self.__slots__]
        if isinstance(k, slice):
            return Trajectory(*rows)
        t, psi, theta, phys_norm, generator, omega = rows
        return EvolutionState(float(t), psi, theta, float(phys_norm), generator, omega)

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


@lru_cache(maxsize=1)
def _map_block(n, hermitian_map, tol, angles):
    """H, Theta, Omega, the textbook generator and the connection
    A = Omega^-1 dOmega/dphi of the block of angles whose float64 array has
    the bytes ``angles``: what the two integrations apply.

    The part of a block that ``evolve`` and ``textbook_evolve`` share: the
    two-site ketket map of ``_two_site_map``, or the ketket basis of each H
    with its Dyson map V^dagger and metric, refused at a level's s_j at the
    ``eps_singular`` floor (at two sites |sin phi|).  The textbook
    generator Omega H Omega^-1 is, on the ketket map, Lambda = diag(levels)
    with H's real eigenvalues in the descending order of the map's rows.
    With ``hermitian_map`` Omega is Theta's Hermitian root, the polar factor
    Y S Y^dagger of V^dagger = X S Y^dagger (Higham, *Functions of
    Matrices*, 2008, ch. 8), from one SVD.  It needs no check of its own:
    the well route keeps every kept V^dagger nonsingular, so S^-1 is
    finite, by N / min_j s_j under ``COND_CEILING``, a normal pivot in
    every column (``metric._gauge_refusals``) and the ``eps_singular`` floor
    (``metric._dyson_stack``).  Each check runs once over the block and
    ``_raise_earliest`` picks the refusal before the map's slope is solved:
    dV^dagger of Nelson's slope dV (``_ketket_slope``), for the root that
    of its Sylvester equation (``_root_slope``); Omega^-1 times it is the
    connection, and Omega^-1 is not kept.  The memo keeps one entry, the
    five arrays read-only, keyed on N, the map, the tolerances and the
    angles' exact bytes; a refused block raises its earliest refused
    stage's error and is never kept, so the last clean block stays kept.
    """
    phis = np.frombuffer(angles)
    if n == 2 and not hermitian_map:
        _raise_earliest(_dyson_refusals(np.abs(np.sin(phis)) > tol.eps_singular, tol))
        arrays = _two_site_map(phis)
    else:
        h = build_h(n, z_from_phi(phis))
        values, vectors, wells = _well_ketket_stack(h, np.sin(phis))
        omega, omega_inv, theta, cprods, dysons = _dyson_stack(vectors, tol)
        _raise_earliest(wells, dysons)
        dv = _ketket_slope(phis, values, vectors, cprods)
        if hermitian_map:
            _, roots, right = np.linalg.svd(omega)
            basis = right.conj().swapaxes(-1, -2)
            root = (basis * roots[:, None, :]) @ right
            omega_inv = (basis / roots[:, None, :]) @ right
            lift = dv @ omega
            slope = _root_slope(basis, roots, lift + lift.conj().swapaxes(-1, -2))
            omega = (root + root.conj().swapaxes(-1, -2)) / 2
            mapped = omega @ h @ omega_inv
        else:
            slope = dv.conj().swapaxes(-1, -2)
            # H^dagger's levels, real in a well, so H's too
            mapped = values.real[:, :, None] * np.eye(n)
        arrays = h, theta, omega, mapped, omega_inv @ slope
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _stage_stack(n, phis, rates, tol, textbook=False, hermitian_map=False):
    """H, Sigma, Theta and Omega at every stage angle, each (m, N, N).

    The block's map part, kept by ``_map_block``, gives Sigma = i Omega^-1
    dOmega/dt as its connection times i and the rate, with no matrix
    product; textbook stages return the kept Omega H Omega^-1 in Sigma's
    place, on the ketket map exactly diag(levels).  Each stage depends on
    its own angle and rate alone, so any split into blocks gives the same
    arrays.  A refused stack raises its earliest stage's refusal.
    """
    h, theta, omega, mapped, connection = _map_block(
        n, hermitian_map, tol, np.asarray(phis, dtype=float).tobytes())
    if textbook:
        return h, mapped, theta, omega
    return h, (1j * rates)[:, None, None] * connection, theta, omega


def _inside_margin(n, phis, tol):
    """The indices of the angles the exceptional-point margin refuses, and
    the pair of levels that meets there.

    At sin phi = 0 the middle pair of an even N, levels N/2 and N/2 + 1
    counted from below, meets (``metric._well_angles``, j = 0), so there
    an angle with |sin phi| under ``ep_margin`` (or NaN) is refused.  An odd
    N has no such pair: its levels stay apart, so no angle is refused.
    """
    pair = f"where levels {n // 2} and {n // 2 + 1} meet"
    if n % 2:
        return (), pair
    return np.flatnonzero(~(np.abs(np.sin(phis)) >= tol.ep_margin)), pair


def coriolis(n: int, profile: PhiProfile, t: float, tol: Tolerances | None = None) -> np.ndarray:
    """Coriolis generator Sigma(t) = i Omega^-1(t) dOmega/dt.

    The stage kernel on a stack of one, as ``evolve`` applies it, in
    complex128: the map is differentiated exactly through the boundary
    angle (the only route by which time enters), and the chain rule
    multiplies in the profile's rate.  A non-finite t, phi or rate raises
    ValueError, an angle inside the margin EPProximity (``_inside_margin``).
    """
    tol = tol if tol is not None else get_tolerances()
    t = float(t)
    phi, phi_dot = profile(t) if np.isfinite(t) else (t, t)  # no profile at inf or NaN
    if not np.isfinite([t, phi, phi_dot]).all():
        raise ValueError(f"t, phi and its rate must be finite, got {t:g}, {phi:g}, {phi_dot:g}")
    inside, pair = _inside_margin(n, np.array([phi]), tol)
    if len(inside):
        raise EPProximity(
            f"|sin phi| = {abs(np.sin(phi)):.3e} is inside the "
            f"exceptional-point margin {tol.ep_margin:g} at t = {t:.6g}, {pair}"
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
    _raise_earliest(errors)
    return GeneratorSnapshot(
        t=float(t), H=h, Sigma=sigma, G=g, sigma_eigs=values[0], g_eigs=values[1]
    )


# ------------------------------------------------------------- integration


def _stage_times(t0: float, t1: float, dt: float):
    """Step sizes and the RK stage grid t0, t0+dt/2, t0+dt, ..., t1.

    In extended precision.  A remainder shorter than dt becomes one final
    shortened step.  The last stage time is t1 itself, and the last step
    takes its size and midpoint from its own span, so the horizon end is
    hit exactly.
    """
    span = t1 - t0
    n_full = math.floor(span / dt + 1e-9)
    count = n_full + (span - n_full * dt > 1e-9 * dt)
    half = np.longdouble(dt) / 2
    taus = np.longdouble(t0) + np.arange(2 * count + 1) * half
    steps = np.full(count, 2 * half)
    if count:
        taus[-1] = t1
        steps[-1] = taus[-1] - taus[-3]
        taus[-2] = taus[-3] + steps[-1] / 2
    return steps, taus


def _propagators(gens, steps):
    """RK4 step matrices R_k, with psi_{k+1} = R_k psi_k, one per step.

    ``gens`` holds the stage generators G_0, G_1/2, G_1, G_3/2, ... of the
    steps in order, 2m + 1 of them.  The ODE is linear, so the classic
    stages K_1 = -i G_0, K_2 = -i G_1/2 (I + h/2 K_1),
    K_3 = -i G_1/2 (I + h/2 K_2) and K_4 = -i G_1 (I + h K_3) are
    matrices and R = I + h/6 (K_1 + 2 K_2 + 2 K_3 + K_4).  Each step's
    h is taken into its stage generators once, B = -i h/2 G, so that with
    B_h the half stage's, h K_1 = 2 B_0, h K_2 = 2 Y_2, h K_3 = 2 Y_3 and
    h K_4 = 2 Y_4 for Y_2 = B_h (I + B_0), Y_3 = B_h (I + Y_2) and
    Y_4 = B_1 (I + 2 Y_3), and R = I + (B_0 + 2 (Y_2 + Y_3) + Y_4) / 3:
    twelve elementwise passes beside the three products, where the
    textbook stages took seventeen.  The propagators take the dtype of
    the stage stack: complex128 keeps the matmuls on BLAS, which extended
    precision would not be.
    """
    scale = -0.5j * np.asarray(steps, dtype=np.finfo(gens.dtype).dtype)[:, None, None]
    b0, b_half, b1 = scale * gens[:-1:2], scale * gens[1::2], scale * gens[2::2]
    y2 = b_half @ b0
    y2 += b_half
    y3 = b_half @ y2
    y3 += b_half
    y4 = b1 @ y3
    y4 *= 2
    y4 += b1
    y2 += y3
    y2 *= 2
    y2 += b0
    y2 += y4
    y2 /= 3
    diagonal = np.arange(gens.shape[-1])
    y2[:, diagonal, diagonal] += 1
    return y2


#: the two-site march takes its steps in runs of RUN, counted from t0
#: (``_run_march``)
RUN = 16


def _run_march(propagators, lo, head, prefix):
    """The kets after steps lo, lo+1, ... of a drive, marched in runs.

    Steps are grouped into runs of ``RUN``, counted from t0, so step k sits
    at position k % RUN of its run (Blelloch, "Prefix sums and their
    applications", 1990).  One stacked product per run position forms
    every run's prefix products P_j = R_j ... R_0, the run heads (the kets
    at run starts) advance in sequence, each by its run's full product,
    and one stacked product P_j head gives all rows.  ``head`` is the ket
    at the start of the run that step lo is in, and ``prefix`` that run's
    product of the steps before lo (None at a run start); the returned
    head and prefix are those of the run that step lo + m is in, so that
    the next call continues the open run and any split into calls gives
    the same bits.  In the dtype of the propagators, extended precision.
    """
    count, n = len(propagators), propagators.shape[-1]
    off = lo % RUN
    runs = -(-(off + count) // RUN)
    products = np.empty((runs * RUN, n, n), dtype=propagators.dtype)
    products[off:off + count] = propagators
    grid = products.reshape(runs, RUN, n, n)
    if off:
        grid[0, off - 1] = prefix
    for j in range(1, RUN):  # the runs holding position j, from this call or carried
        first, last = int(j < off), -(-(off + count - j) // RUN)
        grid[first:last, j] = grid[first:last, j] @ grid[first:last, j - 1]
    heads = np.empty((runs + 1, n), dtype=propagators.dtype)
    heads[0] = head
    end = (off + count) % RUN
    for r in range(runs - bool(end)):  # the runs that close in this call
        heads[r + 1] = grid[r, -1].dot(heads[r])
    runs_of_steps = np.arange(off, off + count) // RUN
    kets = (products[off:off + count] @ heads[runs_of_steps, :, None])[:, :, 0]
    if end:
        return kets, heads[runs - 1], grid[runs - 1, end - 1].copy()
    return kets, heads[runs], None


#: largest |Im| / |Re| a metric norm or expectation may show and still
#: count as real to rounding
IMAG_GATE = 1e-10
#: largest quasi-Hermiticity residual |M|_2 / (|Lambda|_2 |Theta|_2) of an
#: operator Lambda that still counts as an observable of the metric Theta
OBSERVABLE_GATE = 1e-8
_DOUBLE_MAX = np.finfo(float).max
#: half the smallest subnormal double, in the norms' extended precision
#: (0.0 where long double is double): a norm whose real part is not above
#: it rounds to zero or below as a double
_HALF_SUBNORMAL = np.longdouble(np.finfo(float).smallest_subnormal) / 2


def _unreal(values, floor=0.0):
    """The real-value gate: {index: "non-finite" or "complex (value)"} of
    the refused values, in index order.

    A value passes when |Im| <= IMAG_GATE max(floor, |Re|) and both parts
    fit a double; NaN or a part past the double range is non-finite,
    refused before a cast to float can warn.
    """
    values = np.asarray(values)
    re, im = np.abs(values.real), np.abs(values.imag)
    # |Im| within the gate of a |Re| that fits a double fits one too
    passed = (re <= _DOUBLE_MAX) & (im <= IMAG_GATE * np.maximum(floor, re))
    if passed.all():
        return {}
    return {
        k: f"complex ({complex(values[k]):.3e})"
        if re[k] <= _DOUBLE_MAX and im[k] <= _DOUBLE_MAX else "non-finite"
        for k in np.flatnonzero(~passed).tolist()
    }


def _metric_norms(kets, thetas=None):
    """<psi_k|Theta_k|psi_k> of each ket against its metric, complex.

    Theta psi first, then the inner product, as stacked matmuls: each row
    rounds as ``np.vdot(psi, theta @ psi)`` does, which einsum would not.
    No ``thetas`` is the identity metric, whose product would move no bit
    of a norm's real part.
    """
    images = kets[..., None] if thetas is None else thetas @ kets[..., None]
    return (kets.conj()[:, None, :] @ images)[:, 0, 0]


def _two_site_map(phis):
    """``_map_block``'s arrays of two sites on the ketket map, in extended precision.

    The closed-form map family at every stage angle at once, from one
    e = exp(-i phi) per stage: Re e = cos phi, Im e = -sin phi.  Where
    sin phi < 0 the well solve's gauge is the family at -phi; H is even in
    phi, so the map is taken there (``mirror``: e conjugated) and its angle
    derivative changes sign, e' = -e in place of e.  Omega = [[1, -ie],
    [ie, 1]] gives Theta = [[1 + |e|^2, -2i Re e], [2i Re e, 1 + |e|^2]]
    and the connection A = [[i e e', -e'], [e', i e e']] / (1 - e^2), each
    entry written in closed form; no Omega^-1 and no matrix product is
    formed.  The textbook generator is diag(2 + |sin phi|, 2 - |sin phi|).
    """
    e = np.exp(_CLD(-1j) * np.asarray(phis, dtype=_CLD))
    mirror = e.imag > 0  # sin phi < 0: the family at -phi, whose e is conj(e)
    np.negative(e.imag, out=e.imag, where=mirror)
    one, hop = np.full_like(e, 1.0), np.full_like(e, -1.0)
    z = 1j * e.real  # i cos phi
    h = _stack_2x2(2.0 - z, hop, hop, 2.0 + z)
    omega = _stack_2x2(one, -1j * e, 1j * e, one)
    diagonal = 1.0 + (e.real * e.real + e.imag * e.imag)
    across = np.zeros_like(e)
    across.imag = 2.0 * e.real  # 2i Re e, with the real zero positive as a product gives it
    theta = _stack_2x2(diagonal, across.conj(), across, diagonal)
    lower = np.where(mirror, -e, e) / (1.0 - e * e)  # e' / (1 - e^2)
    connection = _stack_2x2(1j * e * lower, -lower, lower, 1j * e * lower)
    mapped = np.zeros((len(e), 2, 2), dtype=np.longdouble)
    mapped[:, 0, 0], mapped[:, 1, 1] = 2.0 - e.imag, 2.0 + e.imag  # 2 +- |sin phi|
    return h, theta, omega, mapped, connection


def _stack_2x2(a, b, c, d):
    """The (m, 2, 2) stack [[a, b], [c, d]] of four length-m arrays."""
    out = np.empty((len(a), 2, 2), dtype=np.result_type(a, b, c, d))
    out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = a, b, c, d
    return out


def _check_inputs(n, profile, psi0, t0, t1, dt):
    """psi0 as a complex N-vector and t0, t1, dt as floats, or ValueError.

    Each profile parameter, t0, t1, dt and psi0 entry must be finite, with
    dt > 0, t0 <= t1, psi0 nonzero and the horizon under 2^53 steps (a
    count a double holds exactly).
    """
    if not all(map(math.isfinite, profile.params.values())):
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
    if not (np.isfinite(psi0).all() and psi0.any()):
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
    fit = np.isfinite(phis) & np.isfinite(rates)
    if not fit.all():
        time = float(taus[np.flatnonzero(~fit)[0]])
        raise ValueError(f"profile angle phi or its rate is not finite at t = {time:.6g}")

    # the prefix ends at the last step whose stages all clear the margin,
    # as a run to that step's time would; usable is -1 when the first stage
    # is inside it
    bad, pair = _inside_margin(n, phis, tol)
    usable, t_fail = len(steps), None
    if len(bad):
        usable, t_fail = (int(bad[0]) - 1) // 2, float(taus[bad[0]])
        if usable > 0:
            steps, taus = _stage_times(t0, float(taus[2 * usable]), dt)
            phis, rates = profile(np.asarray(taus, dtype=float))
            usable = len(steps)

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
    head = prefix = None  # the two-site march's open run (``_run_march``)
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
            if n == 2:
                kets[1:], head, prefix = _run_march(propagators, lo, head if lo else psi, prefix)
                psi = kets[-1]
            else:
                for k, step in enumerate(propagators, 1):
                    kets[k] = psi = step.dot(psi)  # in the order of @, with less call overhead
        if not textbook:
            thetas[block], omegas[block] = theta[::2], omega[::2]
        norms = _metric_norms(kets, None if textbook else theta[::2])
        positive, refused = norms.real > _HALF_SUBNORMAL, _unreal(norms)
        if not positive.all():  # a NaN row keeps the gate's reason
            refused = {**dict.fromkeys(np.flatnonzero(~positive).tolist(), "not positive"),
                       **refused}
        if refused:
            k = min(refused)
            time = float(taus[2 * (lo + k)])
            raise NonRealNorm(f"metric norm came out {refused[k]} at t = {time:.6g}")
        psis[block], generators[block], phys_norms[block] = kets, gens[::2], norms.real
    states = Trajectory(
        taus[: 2 * rows : 2].astype(float), psis, thetas, phys_norms, generators, omegas
    )
    if t_fail is not None:
        where = "trajectory reached" if rows else "profile starts inside"
        raise EPProximity(
            f"{where} the exceptional-point margin at t = {t_fail:.6g}, {pair}",
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
    A trajectory that would cross the exceptional-point margin of an even
    N aborts with the completed prefix attached to the raised error; the
    earliest state whose norm is complex, non-finite or not positive as a
    double (it rounds to zero or below) raises ``NonRealNorm``.  Bad inputs
    raise ``ValueError`` (``_check_inputs``), and so does a profile angle or
    rate that is not finite, at its first stage time, before any stage is
    solved.
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


def _expectation_stack(kets, thetas, lams):
    """Metric expectations of each ket and the map from each refused row to its refusal.

    Row k is <psi|Theta Lambda|psi> / <psi|Theta|psi> for its own ket,
    metric and operator.  It is refused with ``NotAnObservable`` when
    Lambda fails quasi-Hermiticity against Theta, the 2-norm residual
    |M|_2 / (|Lambda|_2 |Theta|_2) of M = Lambda^dagger Theta - Theta
    Lambda above ``OBSERVABLE_GATE`` (``metric._quasi_hermiticity_stack``),
    else with ``NonRealNorm`` when the value is not real to rounding or not
    finite.

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
    cleared = (bound <= OBSERVABLE_GATE * (1 - 1e-9)) & _squares_in_range(norms).all(axis=0)
    doubt = np.flatnonzero(~cleared).tolist()
    gaps = _quasi_hermiticity_stack(lams[doubt], thetas[doubt]).tolist() if doubt else []
    # Python's complex division, which rounds unlike numpy's near the gate;
    # a norm that underflows to zero gives NaN, which the gate refuses
    values = [
        num / den if den else complex("nan")
        for num, den in zip(_metric_norms(kets, thetas @ lams).tolist(),
                            _metric_norms(kets, thetas).tolist())
    ]
    unreal = {k: NonRealNorm(f"expectation came out {why}")
              for k, why in _unreal(values, floor=1.0).items()}
    gated = {
        k: NotAnObservable(f"metric compatibility residual {gap:.3e} exceeds {OBSERVABLE_GATE:g}")
        for k, gap in zip(doubt, gaps) if gap > OBSERVABLE_GATE
    }
    return [value.real for value in values], {**unreal, **gated}


def expectation(state: EvolutionState, lam) -> float:
    """Normalized metric expectation <psi|Theta Lambda|psi> / <psi|Theta|psi>.

    Only operators compatible with the instantaneous metric qualify;
    for those the value is real up to rounding.
    """
    values, errors = _expectation_stack(
        np.asarray(state.psi)[None], as_square(state.theta)[None], as_square(lam)[None]
    )
    _raise_earliest(errors)
    return values[0]
