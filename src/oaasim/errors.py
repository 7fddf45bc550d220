"""Exception hierarchy shared by all modules.

ValidationError covers malformed inputs (wrong shapes, broken preconditions
the caller can fix); NumericalError covers failures discovered during the
computation itself (degenerate decompositions, eigensolvers that do not
converge, lost amplitude mass). The command line maps them to exit codes 1
and 2.
"""

from contextlib import contextmanager


class SimulatorError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SimulatorError):
    """Input fails a documented precondition."""


class NumericalError(SimulatorError):
    """Computation failed for a numerical reason."""


class DimensionError(ValidationError):
    """Shapes or register dimensions do not match."""


class SymmetryError(ValidationError):
    """Matrix required to be symmetric is not."""


class UnitNormError(ValidationError):
    """Vector required to have unit 2-norm does not."""


class RowNormError(ValidationError):
    """Matrix rows violate a required 2-norm bound."""


class ZeroMatrixError(ValidationError):
    """Matrix with at least one nonzero entry required."""


class PolarDegenerateError(NumericalError):
    """Eigenvalue too close to zero to fix the polar sign."""


class ConvergenceError(NumericalError):
    """Eigensolver did not converge: the one-sided Jacobi route exhausted its
    sweep budget, or LAPACK reported non-convergence in sym_eigen."""


class NoGoodAmplitudeError(NumericalError):
    """State carries no measurable mass on the good subspace."""


@contextmanager
def _located(where: str):
    """Re-raise a NumericalError from the block as the same class, its
    message prefixed with `where: `. A ValidationError names its input
    already and passes unchanged."""
    try:
        yield
    except NumericalError as exc:
        raise type(exc)(f"{where}: {exc}") from exc
