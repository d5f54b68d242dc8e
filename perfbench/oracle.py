"""Independent checks of every op's output, run outside the timed region.

The checks rebuild the well matrix with numpy from the op's own inputs and
test what any correct answer must satisfy, whatever gauge or ordering the
package uses:

* drives: the physical norm <psi|Theta|psi> stays flat, every returned
  Theta is a positive metric for H(t), and the moving-metric trajectory
  agrees with the textbook (mapped) one level by level;
* CLI evolve tables: the norm column stays flat, the energy expectation lies
  inside the spectrum of H(t), any cross-check column is small, and at N=2
  the generator eigenvalues match the closed forms;
* scans: energies, gaps and couplings agree with dense numpy eigenvalues
  (and the secular function), metrics satisfy H^dagger Theta = Theta H.

Each check returns None when the output passes and a short reason when it
does not.  The only package code used here is the closed-form two-site
module and the secular function, neither of which is traced.
"""

from __future__ import annotations

import numpy as np

from nipsqw.n2_oracle import g_eigs
from nipsqw.spectrum import secular_value

from workloads import HR, KK, phi_of

#: norm drift of a correct drive is <= 1e-8 at these steps; the silent
#: N=3 failure through pi/2 drifts by >= 1e-3
NORM_DRIFT_TOL = 1e-6
#: evolve vs textbook agreement, same scale as the drift
AGREE_TOL = 1e-6
#: relative size of H^dagger Theta - Theta H
QH_TOL = 1e-8
#: eigenvalue error allowed at an exceptional point: a defective pair moves
#: by ~sqrt(eps * ||H||) ~ 3e-8 under rounding, so 1e-6 leaves a margin
EP_ATOL = 1e-6
#: secular function on the spectrum (measured <= 2e-12 up to N=64)
SECULAR_TOL = 1e-9
#: generator eigenvalues against the two-site closed forms
N2_TOL = 1e-8


def well(n: int, z, z_last=None) -> np.ndarray:
    """Stack of well matrices, one per corner value in ``z``."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    z_last = np.conj(z) if z_last is None else np.atleast_1d(z_last)
    h = np.zeros((z.size, n, n), dtype=complex)
    idx = np.arange(n)
    h[:, idx, idx] = 2.0
    h[:, idx[:-1], idx[1:]] = -1.0
    h[:, idx[1:], idx[:-1]] = -1.0
    h[:, 0, 0] = 2.0 - z
    h[:, -1, -1] = 2.0 - z_last
    return h


def _dagger(a):
    return np.conj(np.swapaxes(a, -1, -2))


def _fro(a):
    return np.linalg.norm(a, axis=(-2, -1))


def _drift(norms) -> float:
    return float(np.max(np.abs(norms - norms[0])) / abs(norms[0]))


def _grid_error(times, steps, dt) -> float:
    return float(np.max(np.abs(np.asarray(times) - dt * np.arange(steps + 1))))


# ------------------------------------------------------------------ drives


def check_drive(op, output) -> str | None:
    ev, tb = output
    spec = op.spec
    if len(ev) != op.rows or len(tb) != op.rows:
        return f"rows {len(ev)}/{len(tb)} != {op.rows}"
    times = np.array([s.t for s in ev])
    if _grid_error(times, spec["steps"], spec["dt"]) > 1e-9:
        return "time grid"
    psi = np.array([s.psi for s in ev])
    theta = np.array([s.theta for s in ev])
    if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(theta))):
        return "non-finite state"

    quad = np.einsum("ki,kij,kj->k", psi.conj(), theta, psi)
    reported = np.array([s.phys_norm for s in ev])
    if np.any(np.abs(quad - reported) > 1e-9 * np.abs(quad)):
        return "phys_norm is not <psi|Theta|psi>"
    drift = _drift(quad.real)
    if drift > NORM_DRIFT_TOL:
        return f"norm drift {drift:.2e}"

    h = well(op.n, 1j * np.cos(phi_of(spec, times)[0]))
    theta_scale = _fro(theta)
    if np.any(_fro(theta - _dagger(theta)) > 1e-10 * theta_scale):
        return "metric not Hermitian"
    herm = (theta + _dagger(theta)) / 2
    levels = np.linalg.eigvalsh(herm)
    if np.any(levels[:, 0] <= 1e-12 * levels[:, -1]):
        return "metric not positive"
    qh = _fro(_dagger(h) @ herm - herm @ h) / (_fro(h) * theta_scale)
    if np.max(qh) > QH_TOL:
        return f"metric residual {np.max(qh):.2e}"

    psi_tb = np.array([s.psi for s in tb])
    tb_norms = np.sum(np.abs(psi_tb) ** 2, axis=1)
    if _drift(tb_norms) > NORM_DRIFT_TOL:
        return f"textbook norm drift {_drift(tb_norms):.2e}"
    if spec["map"] == HR:
        # the Hermitian-root map is the unique positive root of Theta
        w, v = np.linalg.eigh(herm)
        root = (v * np.sqrt(w)[:, None, :]) @ _dagger(v)
        mapped = np.einsum("kij,kj->ki", root, psi)
        gap = np.linalg.norm(mapped - psi_tb, axis=1) / np.sqrt(tb_norms)
    else:
        # a diagonalizing map fixes each level's weight |(Omega psi)_j|^2 =
        # (phi_j^+ Theta phi_j) |c_j|^2 with psi = sum_j c_j phi_j, whatever
        # the normalization of its rows; compare the sorted weights
        _, right = np.linalg.eig(h)
        coeff = np.linalg.solve(right, psi[:, :, None])[:, :, 0]
        weight = np.real(np.einsum("kij,kjl,kli->ki", _dagger(right), herm, right))
        ours = np.sort(weight * np.abs(coeff) ** 2, axis=1)
        theirs = np.sort(np.abs(psi_tb) ** 2, axis=1)
        gap = np.max(np.abs(ours - theirs), axis=1) / tb_norms
    if np.max(gap) > AGREE_TOL:
        return f"evolve vs textbook {np.max(gap):.2e}"
    return None


def check_evolve_table(op, output) -> str | None:
    header, data = output
    spec = op.spec
    col = {name: i for i, name in enumerate(header)}
    if data.shape[0] != op.rows:
        return f"rows {data.shape[0]} != {op.rows}"
    times = data[:, col["t"]]
    if _grid_error(times, spec["steps"], spec["dt"]) > 1e-9:
        return "time grid"
    drift = _drift(data[:, col["phys_norm"]])
    if not drift <= NORM_DRIFT_TOL:
        return f"norm drift {drift:.2e}"
    phi, rate = phi_of(spec, times)
    if spec["observable"]:
        energies = np.linalg.eigvals(well(op.n, 1j * np.cos(phi))).real
        value = data[:, col["expect_hamiltonian"]]
        slack = 1e-9 * np.max(np.abs(energies), axis=1)
        if np.any(value < energies.min(axis=1) - slack) or np.any(
            value > energies.max(axis=1) + slack
        ):
            return "energy expectation outside the spectrum"
    if spec["crosscheck"]:
        worst = float(np.max(data[:, col["crosscheck"]]))
        if not worst <= AGREE_TOL:
            return f"crosscheck column {worst:.2e}"
    if op.n == 2 and spec["map"] == KK:
        got = np.stack([data[:, col[f"g{i}_re"]] + 1j * data[:, col[f"g{i}_im"]]
                        for i in range(2)], axis=1)
        want = np.array([g_eigs(p, r) for p, r in zip(phi, rate)])
        straight = np.max(np.abs(got - want), axis=1)
        swapped = np.max(np.abs(got - want[:, ::-1]), axis=1)
        worst = float(np.max(np.minimum(straight, swapped)))
        if worst > N2_TOL:
            return f"g columns vs closed form {worst:.2e}"
    return None


# ------------------------------------------------------------------- scans


def _min_gap(values) -> np.ndarray:
    gaps = np.abs(values[:, :, None] - values[:, None, :])
    idx = np.arange(values.shape[1])
    gaps[:, idx, idx] = np.inf
    return gaps.min(axis=(1, 2))


def check_epscan(op, output) -> str | None:
    header, data = output
    spec = op.spec
    if header != ["r", "min_gap", "vector_condition"] or data.shape[0] != op.rows:
        return "table shape"
    r = np.linspace(spec["r_min"], spec["r_max"], spec["samples"])
    if np.max(np.abs(data[:, 0] - r)) > 1e-15:
        return "coupling grid"
    values, vectors = np.linalg.eig(well(op.n, 1j * np.sqrt(1.0 - r * r)))
    gap = _min_gap(values)
    err = np.abs(data[:, 1] - gap)
    if not np.all(err <= EP_ATOL + 1e-9 * gap):
        return f"min_gap off by {np.nanmax(err):.2e}"
    cond = np.linalg.cond(vectors / np.linalg.norm(vectors, axis=1, keepdims=True))
    got = data[:, 2]
    tame = cond < 1e6
    if np.any(np.abs(got[tame] - cond[tame]) > 1e-6 * cond[tame]):
        return "vector_condition off"
    if np.any(~(got[~tame] >= 1e5)):
        return "vector_condition too small at a coalescence"
    return None


def check_curve(op, output) -> str | None:
    header, data = output
    spec = op.spec
    if header != ["energy", "r_squared", "r_plus", "r_minus", "residual"]:
        return "table shape"
    if data.shape[0] != op.rows:
        return f"rows {data.shape[0]} != {op.rows}"
    energy = np.linspace(spec["e_min"], spec["e_max"], spec["samples"])
    if np.max(np.abs(data[:, 0] - energy)) > 1e-15 * 4:
        return "energy grid"
    r2 = data[:, 1]
    flat = np.isnan(r2)
    if np.any(flat):
        # no root: det(H - E) must not depend on the coupling there
        ends = np.linalg.det(well(op.n, [1j, 0.0], [-1j, 0.0])[:, None]
                             - energy[flat][None, :, None, None] * np.eye(op.n))
        if np.any(np.abs(ends[0] - ends[1]) > 1e-10):
            return "flat row with a slope"
    r2, energy = r2[~flat], energy[~flat]
    rows = data[~flat]
    z = 1j * np.sqrt(1.0 - r2.astype(complex))
    values = np.linalg.eigvals(well(op.n, z, -z))
    miss = np.min(np.abs(values - energy[:, None]), axis=1)
    if np.max(miss) > EP_ATOL:
        return f"energy not in the spectrum at the solved coupling ({np.max(miss):.2e})"
    band = (r2 >= -1e-12) & (r2 <= 1.0 + 1e-12)
    root = np.sqrt(np.clip(r2[band], 0.0, 1.0))
    if np.any(np.abs(rows[band, 2] - root) > 1e-12) or np.any(
        rows[band, 3] != -rows[band, 2]
    ):
        return "r_plus/r_minus"
    if not np.all(np.isnan(rows[~band, 2:4])):
        return "branch given off the band"
    if not np.all(np.isfinite(rows[:, 4]) & (rows[:, 4] >= 0)):
        return "residual column"
    return None


def _boundary(spec) -> complex:
    if "r" in spec:
        return 1j * np.sqrt(1.0 - spec["r"] ** 2)
    return 1j * np.cos(spec["phi"])


def check_spectrum(op, output) -> str | None:
    header, data = output
    if header != ["index", "energy_re", "energy_im", "is_real"] or data.shape[0] != op.n:
        return "table shape"
    z = _boundary(op.spec)
    got = data[:, 1] + 1j * data[:, 2]
    want = np.linalg.eigvals(well(op.n, z)[0])
    got_sorted = got[np.lexsort((got.imag, got.real))]
    want_sorted = want[np.lexsort((want.imag, want.real))]
    if np.max(np.abs(got_sorted - want_sorted)) > 1e-9 * (1 + np.max(np.abs(want))):
        return "energies vs dense eigenvalues"
    if max(abs(secular_value(op.n, z, e)) for e in got) > SECULAR_TOL:
        return "secular function nonzero at an energy"
    if np.any((data[:, 3] == 1.0) != (np.abs(data[:, 2]) <= 1e-9)):
        return "is_real flags"
    return None


def check_metric(op, payload) -> str | None:
    n = op.n
    theta = np.array(payload["theta"]["re"]) + 1j * np.array(payload["theta"]["im"])
    if theta.shape != (n, n):
        return "metric shape"
    h = well(n, _boundary(op.spec))[0]
    scale = np.linalg.norm(h) * np.linalg.norm(theta)
    if np.linalg.norm(h.conj().T @ theta - theta @ h) > 1e-10 * scale:
        return "H^dagger Theta != Theta H"
    levels = np.linalg.eigvalsh((theta + theta.conj().T) / 2)
    if levels[0] <= 1e-12 * levels[-1]:
        return "metric not positive"
    reported = np.sort(np.array(payload["positivity_eigs"]))
    if np.max(np.abs(reported - levels)) > 1e-9 * levels[-1]:
        return "positivity_eigs"
    if not payload["qh_residual"] <= 1e-10:
        return "qh_residual"
    return None


CHECKS = {
    "drive": check_drive,
    "evolve": check_evolve_table,
    "epscan": check_epscan,
    "curve": check_curve,
    "spectrum": check_spectrum,
    "metric": check_metric,
}


def check(op, outcome) -> str | None:
    """None when the op's output is right; otherwise why it failed."""
    if outcome.error is not None:
        return outcome.error
    return CHECKS[op.kind](op, outcome.output)
