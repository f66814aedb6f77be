"""Exception types shared across the toolkit."""


class QSurfLossError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(QSurfLossError, ValueError):
    """An argument or data record violates a documented precondition."""


class TableFormatError(InvalidInputError):
    """A device-table file is malformed (bad header, unparseable row)."""


class RecordValidationError(InvalidInputError):
    """A parsed device record violates a field invariant."""


class NumericalFailureError(QSurfLossError, RuntimeError):
    """A linear solve or quadrature did not reach the required residual."""


class ConvergenceError(QSurfLossError, RuntimeError):
    """Refinement exhausted its budget before meeting the tolerance."""


class DegenerateFitError(QSurfLossError, RuntimeError):
    """The fit design matrix is rank deficient or nearly collinear."""


class FitFailureError(QSurfLossError, RuntimeError):
    """A nonlinear fit failed to converge or produced an unphysical result."""
