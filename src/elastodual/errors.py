"""Exception types shared across the solvers and dual-certification routines."""


class ElastodualError(Exception):
    """Base class for all package-specific failures."""


class SizeMismatch(ElastodualError):
    """Field length inconsistent with the grid it is paired with."""


class NonConvergence(ElastodualError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class SingularHessian(ElastodualError):
    """A spring-chain system has a zero spring or springs with sum(1/c) = 0."""


class SingularKKTMatrix(ElastodualError):
    """The KKT step's Schur complement, a spring chain in u, is singular."""


class SingularSystem(ElastodualError):
    """The 3D tangent stiffness could not be factorized."""


class PositivityViolated(ElastodualError):
    """The denominator of the bar's perturbed conjugate lost positivity.

    Carries the offending location and the (negative) margin.
    """

    def __init__(self, message, location=None, margin=None):
        super().__init__(message)
        self.location = location
        self.margin = margin


class ConditionViolated(ElastodualError):
    """The displacement-gradient smallness hypothesis fails at the given state."""
