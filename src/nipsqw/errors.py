"""Exception types shared across the package."""


class NipsqwError(Exception):
    """Base class for every package-specific failure."""


class BadOverrides(NipsqwError):
    """The tolerance override file is unreadable or has a malformed line."""


class SingularMatrix(NipsqwError):
    """Matrix failed the reciprocal-condition test required for inversion."""


class NoConvergence(NipsqwError):
    """Eigensolver exhausted its iteration budget or residual contract."""


class NotHermitian(NipsqwError):
    """An operation that requires a Hermitian input received one that is not."""


class NotPositiveDefinite(NipsqwError):
    """Hermitian input lacks the strictly positive spectrum the operation needs."""


class DegenerateBoundary(NipsqwError):
    """Boundary parameters make the corner entry blow up."""


class OutOfRange(NipsqwError):
    """A scalar argument violates its documented domain."""


class NotAnEigenvalue(NipsqwError):
    """Eigenvector reconstruction was asked for an energy off the spectrum."""


class NoSlope(NipsqwError):
    """The determinant does not depend on the boundary strength at this energy."""


class DefectiveAtEP(NipsqwError):
    """The matrix has no complete eigenbasis (exceptional-point input)."""


class BadWeights(NipsqwError):
    """Metric weight vector is not strictly positive with the right length."""


class SingularDyson(NipsqwError):
    """A ketket level is at the ``eps_singular`` condition floor, or the
    columns are not c-orthogonal, so the c-product inverse fails."""


class EPProximity(NipsqwError):
    """A computation came within the guard radius of the exceptional point.

    When raised by ``evolve`` or ``textbook_evolve``, ``trajectory`` is
    the ``Trajectory`` of the states completed before the guard tripped
    (no rows when the first stage is inside the margin) and ``t_fail``
    the offending time; raised elsewhere, ``trajectory`` is empty.
    """

    def __init__(self, message, trajectory=None, t_fail=None):
        super().__init__(message)
        self.trajectory = trajectory if trajectory is not None else ()
        self.t_fail = t_fail


class NonRealNorm(NipsqwError):
    """A quadratic form that must be real came back complex or non-finite,
    or a metric norm came out not positive: its real part rounds to zero or
    below as a double, as a tiny ket's can, so no quotient by it is taken."""


class NotAnObservable(NipsqwError):
    """Candidate operator fails the metric compatibility test."""
