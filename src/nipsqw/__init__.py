"""Discrete square well with a Hermiticity-violating corner.

The package builds the tridiagonal well Hamiltonian, solves and classifies
its spectrum, constructs the positive metric that restores a consistent
inner product, and integrates the Schrodinger equation when the boundary
drifts in time — checking along the way that the physical norm stays put.
"""

from .config import Tolerances, get_tolerances
from .errors import (
    BadOverrides,
    BadWeights,
    DefectiveAtEP,
    DegenerateBoundary,
    EPProximity,
    NipsqwError,
    NoConvergence,
    NonRealNorm,
    NoSlope,
    NotAnEigenvalue,
    NotAnObservable,
    NotHermitian,
    NotPositiveDefinite,
    OutOfRange,
    SingularDyson,
    SingularMatrix,
)
from .hamiltonian import (
    PhiProfile,
    RobinParams,
    build_h,
    build_h_at_time,
    robin_to_z,
    z_from_phi,
    z_from_r,
)
from .matrix_core import (
    EigenDecomposition,
    adjoint,
    as_square,
    eig_general,
    eig_hermitian,
    inverse,
    spectral_norm,
    sqrt_hpd,
)
from .metric import (
    KetketBasis,
    MetricBundle,
    build_metric,
    dyson_from_ketkets,
    ketkets,
    quasi_hermiticity_residual,
)
from .nip_evolution import (
    MAP_KINDS,
    EvolutionState,
    GeneratorSnapshot,
    Trajectory,
    coriolis,
    evolve,
    expectation,
    generator,
    textbook_evolve,
)
from .spectrum import (
    ChebyshevSolution,
    SpectralCurvePoint,
    SpectrumResult,
    chebyshev_eigvec,
    ep_scan,
    secular_value,
    solve_spectrum,
    spectral_curve,
)

__version__ = "0.1.0"
