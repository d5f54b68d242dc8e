"""Fingerprint library and CLI outputs, to show a refactor moves no bit.

Prints first ``kernel numpy=<version> blas=<core>``, the OpenBLAS core that
numpy's bundled library runs (``unknown`` where there is none), since most
lines move with the BLAS kernel, and then twelve sha256 lines:

* ``library <integration> <map>``, one line for each of ``evolve`` and
  ``textbook_evolve`` on each map: all six stacks of every call of that
  integration on that map over a fixed grid of drives (N = 2, 3, 4, 5, 8,
  16; constant, linear through pi/2 and sinusoidal laws, plus an N=16 drive
  of two stage-kernel calls), run in three call orders: evolve, textbook,
  evolve; textbook, evolve, textbook; and each call with the map memo
  emptied.  A change to one route moves only its own line;
* ``refusals``: the error type, message and prefix length (or the stacks
  of a clean run) of drives towards the exceptional point under raised
  ``eps_singular`` and raised or zero ``ep_margin``, at N = 2 to 6;
* ``evolve-cli`` and ``scan-cli``: every table, stdout, stderr and exit
  code of the benchmark's ops of that workload, two rounds of seeds 1-3,
  run in process;
* ``snapshots`` and ``two-site snapshots``: H, Sigma, G and both spectra
  of every ``generator`` snapshot (or its refusal) of a grid of drives,
  instants and tolerances, at N = 3, 4, 5, 8, 16 and at N = 2;
* ``spectra``: the energies and reality flags of ``solve_spectrum`` and
  the levels and columns of ``ketkets`` (or each refusal) on wells at
  N = 2, 3, 4, 6, 8, 16, 64, driven at r = 0.5, 1e-4, 1e-8, 0 and with
  the corners z = 3i, a Robin corner and z = exp(i pi/3);
* ``secular``: the closed-form Chebyshev route at N = 2, 3, 4, 5, 6, 8, 13,
  16, 33, 64 on the corners z = 0, 0.5i, i, 3i, 0.3 + 0.4i, exp(i pi/3) and
  ``z_from_r(1e-8)``: ``secular_value`` at 23 energies over [-0.5, 4.5],
  ``chebyshev_eigvec`` (or its refusal) at each LAPACK eigenvalue of the
  well;
* ``epscan``: ``ep_scan`` at the same N on the grids [], [0],
  [1e-8, -1e-8, 1] and 41 points over [-1, 1], apart from ``secular`` so
  that a change to the scan's solve leaves the Chebyshev route's line.

Run it from any directory on two checkouts and compare the lines, on one
kernel:

    python3 tools/hash_outputs.py
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT, ROOT / "src"):
    sys.path.insert(0, str(path))

import numpy as np  # noqa: E402

from nipsqw import cli, nip_evolution  # noqa: E402
from nipsqw.config import get_tolerances  # noqa: E402
from nipsqw.errors import EPProximity, NipsqwError  # noqa: E402
from nipsqw.hamiltonian import PhiProfile, RobinParams, build_h, robin_to_z, z_from_r  # noqa: E402
from nipsqw.metric import ketkets  # noqa: E402
from nipsqw.spectrum import chebyshev_eigvec, ep_scan, secular_value, solve_spectrum  # noqa: E402
from perfbench.workloads import cli_argv, rounds  # noqa: E402

STACKS = ("t", "psi", "theta", "phys_norm", "generator", "omega")
ORDERS = (("evolve", "textbook_evolve", "evolve"),
          ("textbook_evolve", "evolve", "textbook_evolve"),
          ("cold evolve", "cold textbook_evolve"))
SECULAR_SIZES = (2, 3, 4, 5, 6, 8, 13, 16, 33, 64)


def kernel_line():
    core = "unknown"
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"):
        with contextlib.suppress(OSError, AttributeError):
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            core = corename().decode()
    return f"kernel numpy={np.__version__} blas={core}"


def _cold():
    """Empty the stage kernel's map memo and check that it holds nothing, so
    that a cold run can never read a block kept by the run before."""
    nip_evolution._map_block.cache_clear()
    assert nip_evolution._map_block.cache_info().currsize == 0


def _update(digest, states):
    for name in STACKS:
        digest.update(np.ascontiguousarray(getattr(states, name)).tobytes())


def _run(digests, order, n, profile, t1, dt, **options):
    """Feed each call of ``order`` to ``digests[name]`` of its integration:
    its stacks or its refusal."""
    psi0 = np.linspace(1.0, 0.5, n) + 0.25j * np.arange(n)
    for call in order:
        cold, _, name = call.rpartition(" ")
        digest = digests[name]
        if cold:
            _cold()
        try:
            _update(digest, getattr(nip_evolution, name)(n, profile, psi0, 0.0, t1, dt, **options))
        except NipsqwError as exc:
            prefix = len(exc.trajectory) if isinstance(exc, EPProximity) else -1
            digest.update(f"{type(exc).__name__}: {exc} [{prefix}]".encode())


def library_hashes():
    names = ("evolve", "textbook_evolve")
    digests = {(name, map_kind): hashlib.sha256()
               for name in names for map_kind in nip_evolution.MAP_KINDS}
    laws = (PhiProfile.constant(1.3), PhiProfile.linear(1.45, 0.5),
            PhiProfile.sinusoidal(1.1, 0.3, 0.7))
    drives = [(n, law, 0.4) for n in (2, 3, 4, 5, 8, 16) for law in laws]
    drives.append((16, PhiProfile.linear(1.2, -0.2), 3.0))  # 300 steps, two calls
    for n, law, t1 in drives:
        for map_kind in nip_evolution.MAP_KINDS:
            for order in ORDERS:
                _cold()
                _run({name: digests[name, map_kind] for name in names}, order, n, law, t1,
                     0.01, map_kind=map_kind)
    return {key: digest.hexdigest() for key, digest in digests.items()}


def refusal_hash():
    digest = hashlib.sha256()
    base = get_tolerances()
    tols = [base.replace(**change) for change in (
        {}, {"eps_singular": 0.2}, {"eps_singular": 0.4}, {"ep_margin": 0.3},
        {"ep_margin": 0.0, "eps_singular": 0.3})]
    for n in (2, 3, 4, 5, 6):
        for tol in tols:
            for map_kind in nip_evolution.MAP_KINDS:
                for order in ORDERS[:2]:
                    _cold()
                    _run({"evolve": digest, "textbook_evolve": digest}, order, n,
                         PhiProfile.linear(0.9, -0.5), 1.6, 0.02, tol=tol, map_kind=map_kind)
    return digest.hexdigest()


def snapshot_hash(sizes):
    digest = hashlib.sha256()
    base = get_tolerances()
    laws = (PhiProfile.constant(1.3), PhiProfile.linear(1.45, 0.5),
            PhiProfile.sinusoidal(1.1, 0.3, 0.7), PhiProfile.linear(-0.9, 0.4),
            PhiProfile.linear(0.3, -0.5))
    tols = (base, base.replace(eps_singular=0.5), base.replace(ep_margin=0.3))
    for n in sizes:
        for law in laws:
            for t in (0.0, 0.2, 0.4):
                for tol in tols:
                    try:
                        snap = nip_evolution.generator(n, law, t, tol=tol)
                    except NipsqwError as exc:
                        digest.update(f"{type(exc).__name__}: {exc}".encode())
                        continue
                    for array in (snap.H, snap.Sigma, snap.G, snap.sigma_eigs, snap.g_eigs):
                        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def spectra_hash():
    digest = hashlib.sha256()
    corners = [z_from_r(r) for r in (0.5, 1e-4, 1e-8, 0.0)]
    corners += [3j, robin_to_z(RobinParams(2.0, 1.0, 0.1)), np.exp(1j * np.pi / 3)]
    solves = ((solve_spectrum, ("energies", "real_flags", "all_real")),
              (ketkets, ("eigenvalues", "vectors")))
    for n in (2, 3, 4, 6, 8, 16, 64):
        for z in corners:
            for solve, fields in solves:
                try:
                    result = solve(build_h(n, z))
                except NipsqwError as exc:
                    digest.update(f"{type(exc).__name__}: {exc}".encode())
                    continue
                for name in fields:
                    digest.update(np.ascontiguousarray(getattr(result, name)).tobytes())
    return digest.hexdigest()


def secular_hash():
    digest = hashlib.sha256()
    corners = (0.0, 0.5j, 1j, 3j, 0.3 + 0.4j, np.exp(1j * np.pi / 3), z_from_r(1e-8))
    energies = np.linspace(-0.5, 4.5, 23)
    for n in SECULAR_SIZES:
        for z in corners:
            digest.update(np.array([secular_value(n, z, e) for e in energies]).tobytes())
            for e in np.linalg.eigvals(build_h(n, z)):
                try:
                    solution = chebyshev_eigvec(n, z, e)
                except NipsqwError as exc:
                    digest.update(f"{type(exc).__name__}: {exc}".encode())
                    continue
                digest.update(np.array([solution.y, solution.a, solution.b]).tobytes())
                digest.update(solution.components.tobytes())
    return digest.hexdigest()


def epscan_hash():
    digest = hashlib.sha256()
    grids = ([], [0.0], [1e-8, -1e-8, 1.0], np.linspace(-1.0, 1.0, 41))
    for n in SECULAR_SIZES:
        for grid in grids:
            digest.update(ep_scan(n, grid).tobytes())
    return digest.hexdigest()


def cli_hash(workload):
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as work:
        out, table = Path(work) / "op.out", Path(work) / "profile.csv"
        for seed in (1, 2, 3):
            batches = rounds(workload, seed)
            for _ in range(2):
                for op in next(batches):
                    out.unlink(missing_ok=True)
                    argv = cli_argv(op, out, table)
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        code = cli.main(argv)
                    for text in (str(code), stdout.getvalue(), stderr.getvalue()):
                        digest.update(text.replace(work, "<work>").encode())
                    digest.update(out.read_bytes() if out.exists() else b"<no table>")
    return digest.hexdigest()


if __name__ == "__main__":
    print(kernel_line())
    for (name, map_kind), line in library_hashes().items():
        print("library", name, map_kind, line)
    print("refusals  ", refusal_hash())
    print("evolve-cli", cli_hash("evolve-cli"))
    print("snapshots ", snapshot_hash((3, 4, 5, 8, 16)))
    print("two-site snapshots", snapshot_hash((2,)))
    print("scan-cli  ", cli_hash("scan-cli"))
    print("spectra   ", spectra_hash())
    print("secular   ", secular_hash())
    print("epscan    ", epscan_hash())
