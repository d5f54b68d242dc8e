"""Exact two-site closed forms used as ground truth by the other modules.

Everything here is elementary trigonometry on the boundary angle phi
and its rate phi_dot: the Dyson map and its derivative, the metric,
the Coriolis generator, and the full interaction-picture generator,
each with hand-solved eigenvalues.  The only numerics is a square
root, so these serve as oracles for the matrix pipelines.

They state the package's gauge.  Where sin phi < 0 the package's ketket
map is the family at -phi with rate -phi_dot, so every Omega-, Sigma- or
G-valued form evaluates there; the metric, its eigenvalues and the regime
are even under that map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EPProximity

#: below this |sin phi| the closed forms divide by (numerically) zero
EP_SIN_FLOOR = 1e-12


def _require_off_ep(phi: float) -> float:
    s = float(np.sin(phi))
    if abs(s) < EP_SIN_FLOOR:
        raise EPProximity(
            f"|sin phi| = {abs(s):.3e} is inside the exceptional-point guard"
        )
    return s


def _gauge(phi: float, phi_dot: float = 0.0) -> tuple[float, float]:
    """(phi, phi_dot) in the package's gauge: (-phi, -phi_dot) where sin phi < 0."""
    return (-phi, -phi_dot) if np.sin(phi) < 0 else (phi, phi_dot)


@dataclass(frozen=True)
class N2Params:
    """Boundary angle and rate, with the derived stationarity ratio D.

    D = phi_dot / (2 sin phi) compares the drive speed against the
    level splitting; its square against sin^2(phi) separates the two
    dynamical regimes.
    """

    phi: float
    phi_dot: float

    @property
    def D(self) -> float:
        return self.phi_dot / (2.0 * _require_off_ep(self.phi))


def omega_s(phi: float) -> np.ndarray:
    """Closed-form Dyson map; its adjoint carries the ketkets as columns."""
    phi, _ = _gauge(phi)
    off = -1j * np.exp(-1j * phi)
    return np.array([[1.0, off], [-off, 1.0]])


def omega_s_inv(phi: float) -> np.ndarray:
    """Exact inverse; blows up at the exceptional point sin phi = 0."""
    phi, _ = _gauge(phi)
    _require_off_ep(phi)
    off = 1j * np.exp(-1j * phi)
    return np.array([[1.0, off], [-off, 1.0]]) / (2j * np.sin(phi) * np.exp(-1j * phi))


def omega_s_dot(phi: float, phi_dot: float) -> np.ndarray:
    """Time derivative of the Dyson map along phi(t)."""
    phi, phi_dot = _gauge(phi, phi_dot)
    off = np.exp(-1j * phi)
    return phi_dot * np.array([[0.0, -off], [off, 0.0]])


def theta_s(phi: float) -> np.ndarray:
    """Closed-form metric for unit weights."""
    c = np.cos(phi)
    return np.array([[2.0, -2j * c], [2j * c, 2.0]])


def theta_eigs(phi: float) -> tuple[float, float]:
    """Metric eigenvalues (2 - 2cos phi, 2 + 2cos phi), in that order."""
    c = float(np.cos(phi))
    return 2.0 - 2.0 * c, 2.0 + 2.0 * c


def sigma_s(phi: float, phi_dot: float) -> np.ndarray:
    """Coriolis generator i Omega^-1 dOmega/dt in closed form."""
    phi, phi_dot = _gauge(phi, phi_dot)
    s = _require_off_ep(phi)
    d = phi_dot / (2.0 * s)
    diag = 1j * np.exp(-1j * phi)
    return d * np.array([[diag, -1.0], [1.0, diag]])


def sigma_eigs(phi: float, phi_dot: float) -> tuple[complex, complex]:
    """Coriolis eigenvalues, (plus, minus) branch order."""
    phi, phi_dot = _gauge(phi, phi_dot)
    s = _require_off_ep(phi)
    c = np.cos(phi)
    plus = (1.0 + 1j * (c + 1.0) / s) * phi_dot / 2.0
    minus = (1.0 + 1j * (c - 1.0) / s) * phi_dot / 2.0
    return complex(plus), complex(minus)


def _w_pair(phi: float, phi_dot: float) -> tuple[complex, complex]:
    s = _require_off_ep(phi)
    d = phi_dot / (2.0 * s)
    c = np.cos(phi)
    root = np.sqrt(complex(s * s - d * d))
    return complex(-1j * d * c + root), complex(-1j * d * c - root)


def g_s(phi: float, phi_dot: float) -> np.ndarray:
    """Full interaction-picture generator G = H - Sigma in closed form."""
    phi, phi_dot = _gauge(phi, phi_dot)
    s = _require_off_ep(phi)
    d = phi_dot / (2.0 * s)
    c = np.cos(phi)
    a = 1.0 - d
    b = 1.0 + d
    shift = 2.0 - d * s
    return np.array(
        [
            [shift - 1j * b * c, -a],
            [-b, shift + 1j * a * c],
        ]
    )


def g_eigs(phi: float, phi_dot: float) -> tuple[complex, complex]:
    """Generator eigenvalues 2 - D sin phi + w_pm, (plus, minus) order.

    w_pm = -i D cos phi +/- sqrt(sin^2 phi - D^2) with the principal
    branch, so the pair splits along the real axis in the almost
    stationary regime and along the imaginary axis past it.
    """
    phi, phi_dot = _gauge(phi, phi_dot)
    s = _require_off_ep(phi)
    d = phi_dot / (2.0 * s)
    w_plus, w_minus = _w_pair(phi, phi_dot)
    shift = 2.0 - d * s
    return shift + w_plus, shift + w_minus


def regime(params: N2Params) -> str:
    """Dynamical regime from the sign of sin^2(phi) - D^2."""
    s = _require_off_ep(params.phi)
    gap = s * s - params.D**2
    if gap == 0.0:
        return "boundary"
    if gap > 0.0:
        return "almost_stationary"
    w_plus, w_minus = _w_pair(params.phi, params.phi_dot)
    assert max(abs(w_plus.real), abs(w_minus.real)) <= 1e-12
    return "strongly_non_stationary"
