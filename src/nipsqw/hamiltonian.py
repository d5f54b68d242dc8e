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

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBoundary, OutOfRange


@dataclass(frozen=True)
class RobinParams:
    """Mixed boundary-condition data (alpha, beta) on lattice spacing grid_h."""

    alpha: float
    beta: float
    grid_h: float

    def __post_init__(self):
        if not np.isfinite([self.alpha, self.beta, self.grid_h]).all():
            raise OutOfRange(f"alpha, beta and grid spacing must be finite, got {self}")
        if not self.grid_h > 0:
            raise OutOfRange(f"grid spacing must be positive, got {self.grid_h}")


def robin_to_z(params: RobinParams) -> complex:
    """Collapse the boundary pair into the single corner value z.

    z = 1 / (1 - beta*h - i*alpha*h).  The denominator must stay away
    from zero; otherwise the corner entry is unbounded.  This one-sided
    corner converges to the continuum well at first order in h: at
    alpha = 1.3, beta = 0 and h = pi / N the n = 1 level of H / h^2 is off
    by 0.066, 0.035 and 0.018 at N = 64, 128 and 256.  The cell-centred corner
    z = exp(i gamma) with tan(gamma / 2) = alpha h / 2 converges at second order.
    Finite data whose products overflow the denominator raise OutOfRange.
    """
    w = 1.0 - params.beta * params.grid_h - 1j * params.alpha * params.grid_h
    if not np.isfinite(w):
        raise OutOfRange(f"1 - beta*h - i*alpha*h = {w} is not finite")
    if abs(w) <= 1e-12:
        raise DegenerateBoundary(f"1 - beta*h - i*alpha*h = {w} is too small")
    return 1.0 / w


def z_from_r(r):
    """Corner value on the positive imaginary axis, z = i*sqrt(1 - r^2), the one
    statement of the driven corner, formed as i*sqrt((1 - |r|)(1 + |r|)), which
    does not cancel near |r| = 1.  An array of couplings gives an array of corner
    values; |r| > 1 or NaN anywhere raises OutOfRange naming the first."""
    r = np.asarray(r, dtype=float)
    refused = np.flatnonzero(~(np.abs(r) <= 1.0))
    if refused.size:
        raise OutOfRange(f"coupling strength must satisfy |r| <= 1, got {r.flat[refused[0]]}")
    z = 1j * np.sqrt((1.0 - np.abs(r)) * (1.0 + np.abs(r)))
    return z if r.ndim else complex(z)


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
    well = np.zeros((n, n), dtype=complex)
    diagonals = well.reshape(-1)  # main, upper and lower diagonals as strided slices
    diagonals[:: n + 1], diagonals[1 :: n + 1], diagonals[n :: n + 1] = 2.0, -1.0, -1.0
    h = np.empty(z.shape + (n, n), dtype=complex)
    h[...] = well  # one copy of the well per corner value
    h[..., 0, 0] = 2.0 - z
    h[..., -1, -1] = 2.0 - np.conj(z)
    return h


def _not_a_knot(t, p) -> np.ndarray:
    """Coefficients (4, K - 1) of the not-a-knot cubic spline through K knots.

    ``CubicSpline``'s default spline: the knot slopes m solve its
    tridiagonal system, interior rows h_i m_(i-1) + 2 (h_(i-1) + h_i) m_i +
    h_(i-1) m_(i+1) = 3 (h_i d_(i-1) + h_(i-1) d_i) over the widths h and
    chord slopes d, and an end row asking one cubic across the two end
    intervals.  Each end row taken from its neighbour leaves a diagonally
    dominant system in the interior slopes, solved by one forward and one
    backward sweep; the end rows then give the end slopes.  Interval i
    holds ((c_3 s + c_2) s + c_1) s + c_0 at s = t - t_i, so its slope is
    (3 c_3 s + 2 c_2) s + c_1.
    """
    h = np.diff(t)
    d = np.diff(p) / h
    first, last = h[0] + h[1], h[-1] + h[-2]
    ends = (((h[0] + 2 * first) * h[1] * d[0] + h[0] ** 2 * d[1]) / first,
            (h[-1] ** 2 * d[-2] + (2 * last + h[-1]) * h[-2] * d[-1]) / last)
    rhs = 3 * (h[1:] * d[:-1] + h[:-1] * d[1:])
    rhs[[0, -1]] -= ends
    diag = 2 * (h[:-1] + h[1:])
    diag[[0, -1]] = first, last
    widths, diag, rhs = h.tolist(), diag.tolist(), rhs.tolist()
    for i in range(1, len(diag)):  # forward: row i - 1 clears row i's lower entry
        w = widths[i + 1] / diag[i - 1]
        diag[i] -= w * widths[i - 1]
        rhs[i] -= w * rhs[i - 1]
    m = [rhs[-1] / diag[-1]]  # backward, from the last interior slope
    for i in range(len(diag) - 2, -1, -1):
        m.append((rhs[i] - widths[i] * m[-1]) / diag[i])
    m = np.array([(ends[0] - first * m[-1]) / h[1], *m[::-1], (ends[1] - last * m[0]) / h[-2]])
    excess = (m[:-1] + m[1:] - 2 * d) / h
    return np.stack([p[:-1], m[:-1], (d - m[:-1]) / h - excess, excess / h])


class PhiProfile:
    """Driving angle phi(t) together with its exact time derivative.

    Calling the profile returns the pair (phi, phi_dot); both scalars
    and arrays of times are accepted.  Tabulated profiles interpolate
    with the not-a-knot cubic spline (``_not_a_knot``) and differentiate
    the spline itself, never the raw samples; they refuse times outside
    the table with ``OutOfRange`` instead of extrapolating.
    """

    #: each law's parameter names, in the order of ``params`` and the repr
    LAWS = {"constant": ("phi",), "linear": ("phi0", "omega"),
            "sinusoidal": ("phi0", "amp", "freq"), "tabulated": ("t_min", "t_max")}

    def __init__(self, kind: str, params: dict, spline: tuple | None = None):
        """A law of ``LAWS`` with exactly its parameters, each a real number
        kept as a float, and a spline, the knots and their ``_not_a_knot``
        coefficients, for ``tabulated`` only; else ValueError."""
        if kind not in self.LAWS:
            raise ValueError(f"unknown profile kind {kind!r}")
        names = self.LAWS[kind]
        if set(params) != set(names):
            raise ValueError(f"profile {kind!r} takes exactly {', '.join(names)}, "
                             f"got {', '.join(map(str, params)) or 'nothing'}")
        if (spline is None) == (kind == "tabulated"):
            raise ValueError("a tabulated profile, and only it, takes a spline")
        if not all(isinstance(params[name], numbers.Real) for name in names):
            raise ValueError(f"profile {kind!r} takes real numbers only, got {params!r}")
        self.kind = kind
        self.params = {name: float(params[name]) for name in names}
        self._spline = spline

    @classmethod
    def _law(cls, kind: str, *values, spline=None) -> "PhiProfile":
        return cls(kind, dict(zip(cls.LAWS[kind], values)), spline)

    @classmethod
    def constant(cls, phi: float) -> "PhiProfile":
        return cls._law("constant", phi)

    @classmethod
    def linear(cls, phi0: float, omega: float) -> "PhiProfile":
        return cls._law("linear", phi0, omega)

    @classmethod
    def sinusoidal(cls, phi0: float, amplitude: float, frequency: float) -> "PhiProfile":
        return cls._law("sinusoidal", phi0, amplitude, frequency)

    @classmethod
    def tabulated(cls, times, phis) -> "PhiProfile":
        t = np.asarray(times, dtype=float)
        p = np.asarray(phis, dtype=float)
        if t.ndim != 1 or t.shape != p.shape or t.size < 4:
            raise ValueError("tabulated profile needs matching 1-d arrays, >= 4 samples")
        if np.any(np.diff(t) <= 0):
            raise ValueError("tabulated times must be strictly increasing")
        with np.errstate(all="ignore"):  # an overflow shows in the coefficients
            coefficients = _not_a_knot(t, p)
        if not np.isfinite(coefficients).all():
            raise ValueError("tabulated profile takes finite numbers only, spline included")
        return cls._law("tabulated", t[0], t[-1], spline=(t, coefficients))

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
        law = {"constant": "constant", "linear": "linear", "sin": "sinusoidal"}.get(kind)
        if law is None:
            raise ValueError(f"unknown profile kind {kind!r}")
        values = {}
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise ValueError(f"profile item {item!r} is not key=value")
            if key in values:
                raise ValueError(f"profile key {key!r} is given twice")
            values[key] = float(val)
        return cls(law, values)

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
            # no extrapolation; the slack admits the stage grid's end rounding
            lo, hi = self.params["t_min"], self.params["t_max"]
            slack = 1e-9 * (hi - lo)
            outside = t_arr[(t_arr < lo - slack) | (t_arr > hi + slack)]
            if outside.size:
                raise OutOfRange(
                    f"time {outside.flat[0]:.17g} is outside the table's span "
                    f"[{lo:.17g}, {hi:.17g}]"
                )
            knots, coefficients = self._spline
            k = np.clip(np.searchsorted(knots, t_arr, side="right") - 1, 0, len(knots) - 2)
            s = t_arr - knots[k]
            c0, c1, c2, c3 = coefficients[:, k]
            phi = ((c3 * s + c2) * s + c1) * s + c0
            dot = (3 * c3 * s + 2 * c2) * s + c1
        if t_arr.ndim == 0:
            return float(phi), float(dot)
        return np.asarray(phi, dtype=float), np.asarray(dot, dtype=float)

    def __repr__(self):
        inner = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"PhiProfile.{self.kind}({inner})"


def build_h_at_time(n: int, profile: PhiProfile, t: float) -> np.ndarray:
    """Well matrix along a driving profile: build_h with z = i*cos(phi(t))."""
    phi, _ = profile(t)
    return build_h(n, z_from_phi(phi))
