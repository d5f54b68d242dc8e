"""Tolerance defaults and the override-file loader.

Every numerical guard in the package reads its threshold from a
``Tolerances`` record so that studies which deliberately approach the
exceptional point can relax the defaults.  Setting the environment
variable ``NIPSQW_TOL_OVERRIDES`` to the path of a ``key=value`` file
changes the defaults process-wide.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

from .errors import BadOverrides

ENV_VAR = "NIPSQW_TOL_OVERRIDES"


@dataclasses.dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the package.

    eps_singular: reciprocal-condition floor.  The ketket map refuses a
        level whose eigenvalue condition s_j = |v_j^T v_j| / |v_j|^2 is
        at or below it (and a basis with some |v_j^T v_k| above it times
        |v_j| |v_k|); ``inverse`` refuses a matrix with s_min / s_max at
        or below it, and ``sqrt_hpd`` one with lambda_min / lambda_max.
    tol_real: |Im E| threshold of ``solve_spectrum`` for calling an energy real.
    ep_margin: |sin phi| guard radius around the exceptional point that
        an even N meets at sin phi = 0 (odd N has none there).

    Each must be finite and non-negative, else ValueError; zero turns its
    guard off.  The Dyson map is differentiated analytically, so there is
    no difference step among them; an override file that names
    ``fd_step`` is refused as an unknown tolerance.
    """

    eps_singular: float = 1e-12
    tol_real: float = 1e-9
    ep_margin: float = 1e-6

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not 0.0 <= value < float("inf"):
                raise ValueError(f"{field.name} must be finite and non-negative, got {value!r}")

    def replace(self, **changes) -> "Tolerances":
        return dataclasses.replace(self, **changes)


def load_overrides(path: str) -> dict:
    """Parse a key=value override file (# comments ignored); BadOverrides if unusable."""
    known = {f.name for f in dataclasses.fields(Tolerances)}
    overrides = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise BadOverrides(f"{path}: {exc.strerror}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise BadOverrides(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key not in known:
            raise BadOverrides(f"{path}:{lineno}: unknown tolerance {key!r}")
        try:
            overrides[key] = float(value)
        except ValueError:
            raise BadOverrides(f"{path}:{lineno}: {key} is not a number") from None
        if not 0.0 <= overrides[key] < float("inf"):
            raise BadOverrides(f"{path}:{lineno}: {key} must be finite and non-negative")
    return overrides


_DEFAULTS = Tolerances()


def get_tolerances() -> Tolerances:
    """Defaults, with the override file, read on every call, applied when the env var is set."""
    path = os.environ.get(ENV_VAR)
    if not path:
        return _DEFAULTS
    return Tolerances(**load_overrides(path))
