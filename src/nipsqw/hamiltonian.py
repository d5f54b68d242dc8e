"""Boundary-controlled discrete square-well matrices.

The model is an N-site chain with hopping -1 and diagonal 2, except that
the two corner entries are shifted by a complex boundary value z (top
left by z, bottom right by its conjugate).  All the non-Hermiticity, and
in the driven case all the time dependence, lives in that single number.
Three parametrizations are provided: the raw complex z, the mixed
boundary pair (alpha, beta) on a lattice of spacing h, and the angle
phi with z = i*cos(phi) so that the coupling strength is sin(phi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DegenerateBoundary, OutOfRange
from .matrix_core import as_square, spectral_norm


@dataclass(frozen=True)
class RobinParams:
    """Mixed boundary-condition data (alpha, beta) on lattice spacing grid_h."""

    alpha: float
    beta: float
    grid_h: float

    def __post_init__(self):
        if not self.grid_h > 0:
            raise OutOfRange(f"grid spacing must be positive, got {self.grid_h}")


def robin_to_z(params: RobinParams) -> complex:
    """Collapse the boundary pair into the single corner value z.

    z = 1 / (1 - beta*h - i*alpha*h).  The denominator must stay away
    from zero; otherwise the corner entry is unbounded.
    """
    w = 1.0 - params.beta * params.grid_h - 1j * params.alpha * params.grid_h
    if abs(w) <= 1e-12:
        raise DegenerateBoundary(f"1 - beta*h - i*alpha*h = {w} is too small")
    return 1.0 / w


def z_from_r(r: float) -> complex:
    """Corner value on the positive imaginary axis, z = i*sqrt(1 - r^2)."""
    r = float(r)
    if abs(r) > 1.0:
        raise OutOfRange(f"coupling strength must satisfy |r| <= 1, got {r}")
    return 1j * np.sqrt(1.0 - r * r)


def z_from_phi(phi):
    """Signed-angle corner value z = i*cos(phi), so sin(phi) is the coupling.

    Unlike ``z_from_r(sin(phi))`` this keeps the sign of cos(phi), which
    distinguishes the two halves of a driven sweep through phi = pi/2;
    the two agree on [0, pi/2].  An array of angles gives an array of
    corner values.
    """
    phi = np.asarray(phi, dtype=float)
    z = 1j * np.cos(phi)
    return z if phi.ndim else complex(z)


def build_h(n: int, z) -> np.ndarray:
    """N-site well matrix: tridiagonal (-1, 2, -1) with corners 2-z, 2-z*.

    An array of corner values gives the stack of matrices, one per value.
    """
    if n < 2:
        raise OutOfRange(f"need at least two sites, got {n}")
    z = np.asarray(z, dtype=complex)
    sites = np.arange(n)
    h = np.zeros(z.shape + (n, n), dtype=complex)
    h[..., sites, sites] = 2.0
    h[..., sites[1:], sites[:-1]] = -1.0
    h[..., sites[:-1], sites[1:]] = -1.0
    h[..., 0, 0] = 2.0 - z
    h[..., -1, -1] = 2.0 - np.conj(z)
    return h


class PhiProfile:
    """Driving angle phi(t) together with its exact time derivative.

    Calling the profile returns the pair (phi, phi_dot); both scalars
    and arrays of times are accepted.  Tabulated profiles interpolate
    with a cubic spline and differentiate the spline itself, never the
    raw samples.
    """

    KINDS = ("constant", "linear", "sinusoidal", "tabulated")

    def __init__(self, kind: str, params: dict, spline: CubicSpline | None = None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown profile kind {kind!r}")
        self.kind = kind
        self.params = dict(params)
        self._spline = spline
        self._spline_dot = spline.derivative() if spline is not None else None

    @classmethod
    def constant(cls, phi: float) -> "PhiProfile":
        return cls("constant", {"phi": float(phi)})

    @classmethod
    def linear(cls, phi0: float, omega: float) -> "PhiProfile":
        return cls("linear", {"phi0": float(phi0), "omega": float(omega)})

    @classmethod
    def sinusoidal(cls, phi0: float, amplitude: float, frequency: float) -> "PhiProfile":
        return cls(
            "sinusoidal",
            {"phi0": float(phi0), "amp": float(amplitude), "freq": float(frequency)},
        )

    @classmethod
    def tabulated(cls, times, phis) -> "PhiProfile":
        t = np.asarray(times, dtype=float)
        p = np.asarray(phis, dtype=float)
        if t.ndim != 1 or t.shape != p.shape or t.size < 4:
            raise ValueError("tabulated profile needs matching 1-d arrays, >= 4 samples")
        if np.any(np.diff(t) <= 0):
            raise ValueError("tabulated times must be strictly increasing")
        return cls("tabulated", {"t_min": t[0], "t_max": t[-1]}, spline=CubicSpline(t, p))

    @classmethod
    def from_spec(cls, text: str) -> "PhiProfile":
        """Parse the CLI grammar.

        constant:phi=<f> | linear:phi0=<f>,omega=<f> |
        sin:phi0=<f>,amp=<f>,freq=<f> | table:<path to two-column CSV t,phi>
        """
        kind, sep, rest = text.partition(":")
        if not sep:
            raise ValueError(f"profile {text!r} is missing the ':' separator")
        if kind == "table":
            data = np.loadtxt(rest, delimiter=",", dtype=float, ndmin=2)
            if data.shape[1] != 2:
                raise ValueError(f"{rest}: expected two columns t,phi")
            return cls.tabulated(data[:, 0], data[:, 1])
        expected_keys = {
            "constant": ("phi",),
            "linear": ("phi0", "omega"),
            "sin": ("phi0", "amp", "freq"),
        }.get(kind)
        if expected_keys is None:
            raise ValueError(f"unknown profile kind {kind!r}")
        values = {}
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise ValueError(f"profile item {item!r} is not key=value")
            if key not in expected_keys or key in values:
                raise ValueError(f"unexpected profile key {key!r} for {kind!r}")
            values[key] = float(val)
        missing = [k for k in expected_keys if k not in values]
        if missing:
            raise ValueError(f"profile {kind!r} is missing keys {missing}")
        if kind == "constant":
            return cls.constant(values["phi"])
        if kind == "linear":
            return cls.linear(values["phi0"], values["omega"])
        return cls.sinusoidal(values["phi0"], values["amp"], values["freq"])

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if self.kind == "constant":
            phi = np.full_like(t_arr, self.params["phi"])
            dot = np.zeros_like(t_arr)
        elif self.kind == "linear":
            phi = self.params["phi0"] + self.params["omega"] * t_arr
            dot = np.full_like(t_arr, self.params["omega"])
        elif self.kind == "sinusoidal":
            amp, freq = self.params["amp"], self.params["freq"]
            phi = self.params["phi0"] + amp * np.sin(freq * t_arr)
            dot = amp * freq * np.cos(freq * t_arr)
        else:
            phi = self._spline(t_arr)
            dot = self._spline_dot(t_arr)
        if t_arr.ndim == 0:
            return float(phi), float(dot)
        return np.asarray(phi, dtype=float), np.asarray(dot, dtype=float)

    def min_abs_sin(self, t_grid) -> float:
        """Smallest |sin(phi)| over a grid of times (guard helper)."""
        phi, _ = self(np.asarray(t_grid, dtype=float))
        return float(np.min(np.abs(np.sin(phi))))

    def __repr__(self):
        inner = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"PhiProfile.{self.kind}({inner})"


def build_h_at_time(n: int, profile: PhiProfile, t: float) -> np.ndarray:
    """Well matrix along a driving profile: build_h with z = i*cos(phi(t))."""
    phi, _ = profile(t)
    return build_h(n, z_from_phi(phi))


def pt_residual(h) -> float:
    """Deviation from symmetry under index reversal plus conjugation.

    Returns ||P conj(H) P - H|| with P the antidiagonal permutation.
    Zero for every matrix produced by build_h, whatever z is.
    """
    a = as_square(h)
    flipped = a.conj()[::-1, ::-1]
    return spectral_norm(flipped - a)
