"""Exception types shared across the solvers and dual-certification routines."""


class ElastodualError(Exception):
    """Base class for all package-specific failures."""


class SizeMismatch(ElastodualError):
    """Field length inconsistent with the grid it is paired with."""


class NonConvergence(ElastodualError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class SingularSystem(ElastodualError):
    """A Newton step's linear system could not be solved: a spring chain (the
    bar's KKT step's Schur complement) with a zero spring or sum(1/c) = 0, or
    a 3D tangent that could not be factorized."""


class PositivityViolated(ElastodualError):
    """The denominator of the bar's perturbed conjugate lost positivity; the
    message names the element and the margin."""


class ConditionViolated(ElastodualError):
    """The gradient smallness hypothesis fails at the state, or at every equilibrium."""


class MissingRoutine(ElastodualError):
    """numpy's libraries do not export a LAPACK routine the box needs."""
