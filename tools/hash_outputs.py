"""Fingerprint library and CLI outputs, to show a refactor moves no bit.

Prints eight sha256 lines:

* ``library <integration> <map>``, one line for each of ``evolve`` and
  ``textbook_evolve`` on each map: all six stacks of every call of that
  integration on that map over a fixed grid of drives (N = 2, 3, 4, 5, 8,
  16; constant, linear through pi/2 and sinusoidal laws, plus an N=16 drive
  of two stage-kernel calls), run in three call orders: evolve, textbook,
  evolve; textbook, evolve, textbook; and each call with the map memo
  emptied.  A change to one route moves only its own line;
* ``refusals``: the error type, message and prefix length (or the stacks
  of a clean run) of drives towards the exceptional point under raised
  ``eps_singular``, ``eps_pd`` and ``ep_margin``, at N = 2 to 6;
* ``evolve-cli``: every table, stdout, stderr and exit code of the
  benchmark's evolve-cli ops, two rounds of seeds 1-3, run in process;
* ``snapshots`` and ``two-site snapshots``: H, Sigma, G and both spectra
  of every ``generator`` snapshot (or its refusal) of a grid of drives,
  instants and tolerances, at N = 3, 4, 5, 8, 16 and at N = 2.

Run it from any directory on two checkouts and compare the lines:

    python3 tools/hash_outputs.py
"""

from __future__ import annotations

import contextlib
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
from nipsqw.hamiltonian import PhiProfile  # noqa: E402
from perfbench.workloads import cli_argv, rounds  # noqa: E402

STACKS = ("t", "psi", "theta", "phys_norm", "generator", "omega")
ORDERS = (("evolve", "textbook_evolve", "evolve"),
          ("textbook_evolve", "evolve", "textbook_evolve"),
          ("cold evolve", "cold textbook_evolve"))


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
            nip_evolution._map_memo = None
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
                nip_evolution._map_memo = None
                _run({name: digests[name, map_kind] for name in names}, order, n, law, t1,
                     0.01, map_kind=map_kind)
    return {key: digest.hexdigest() for key, digest in digests.items()}


def refusal_hash():
    digest = hashlib.sha256()
    base = get_tolerances()
    tols = [base.replace(**change) for change in (
        {}, {"eps_singular": 0.2}, {"eps_singular": 0.4}, {"eps_pd": 0.3},
        {"eps_pd": 0.99}, {"ep_margin": 0.3}, {"ep_margin": 0.0, "eps_singular": 0.3})]
    for n in (2, 3, 4, 5, 6):
        for tol in tols:
            for map_kind in nip_evolution.MAP_KINDS:
                for order in ORDERS[:2]:
                    nip_evolution._map_memo = None
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


def cli_hash():
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as work:
        out, table = Path(work) / "op.out", Path(work) / "profile.csv"
        for seed in (1, 2, 3):
            batches = rounds("evolve-cli", seed)
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
    for (name, map_kind), line in library_hashes().items():
        print("library", name, map_kind, line)
    print("refusals  ", refusal_hash())
    print("evolve-cli", cli_hash())
    print("snapshots ", snapshot_hash((3, 4, 5, 8, 16)))
    print("two-site snapshots", snapshot_hash((2,)))
