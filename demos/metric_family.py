"""Build the whole family of metrics for one well and test each member.

The ketkets of the adjoint Hamiltonian assemble into a positive metric
for any choice of positive weights, so the metric is a family, not a
single operator.  Every member must (a) stay positive definite and
(b) make the well self-adjoint in its weighted inner product.
"""

import numpy as np

from nipsqw import (
    build_h,
    build_metric,
    ketkets,
    quasi_hermiticity_residual,
    z_from_r,
)

COUPLING = 0.6
SIZES = (2, 3, 4, 6, 8)
WEIGHT_SEED = 7


def main() -> None:
    rng = np.random.default_rng(WEIGHT_SEED)
    print(f"coupling r = {COUPLING}, three weight choices per size")
    print(f"{'N':>3s} {'weights':>12s} {'min eig':>12s} {'qh residual':>12s}")
    for n in SIZES:
        h = build_h(n, z_from_r(COUPLING))
        basis = ketkets(h)
        choices = {
            "ones": np.ones(n),
            "ramp": np.linspace(1.0, 3.0, n),
            "random": rng.uniform(0.2, 5.0, n),
        }
        for label, kappa in choices.items():
            theta = build_metric(basis, kappa)
            smallest = np.linalg.eigvalsh(theta).min()
            residual = quasi_hermiticity_residual(h, theta)
            print(f"{n:3d} {label:>12s} {smallest:12.6f} {residual:12.3e}")
            assert smallest > 0, "metric must stay positive definite"
            assert residual <= 1e-9, "metric must hermitize the well"
    print("all members positive definite and hermitizing")


if __name__ == "__main__":
    main()
