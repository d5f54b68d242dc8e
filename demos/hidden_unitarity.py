"""Drive the boundary in time and watch which norm survives.

With the corner angle drifting linearly, the naive Euclidean norm of the
evolving state wanders by percent amounts, while the physical norm taken
with the co-moving metric stays flat to ~1e-9 over the whole run.  That
flatness is the hidden unitarity of the non-Hermitian well.
"""

import numpy as np

from nipsqw import PhiProfile, evolve

PROFILE = PhiProfile.linear(phi0=1.0, omega=0.1)
PSI0 = np.array([1.0, 0.0])
HORIZON = 5.0
STEP = 1e-3


def main() -> None:
    states = evolve(2, PROFILE, PSI0, 0.0, HORIZON, STEP)
    phys, times = states.phys_norm, states.t
    naive = np.linalg.norm(states.psi, axis=1) ** 2

    print(f"linear drive phi(t) = 1 + 0.1 t on [0, {HORIZON}], {len(states)} samples")
    print(f"{'t':>6s} {'naive |psi|^2':>14s} {'physical norm':>14s}")
    for k in range(0, len(states), len(states) // 10):
        print(f"{times[k]:6.2f} {naive[k]:14.9f} {phys[k]:14.9f}")

    phys_drift = np.abs(phys - phys[0]).max() / phys[0]
    naive_drift = np.abs(naive - naive[0]).max() / naive[0]
    print(f"naive-norm drift    : {naive_drift:.3e}")
    print(f"physical-norm drift : {phys_drift:.3e}")
    assert phys_drift <= 1e-8, "the physical norm must stay conserved"
    print("the metric-weighted norm is the conserved one")


if __name__ == "__main__":
    main()
