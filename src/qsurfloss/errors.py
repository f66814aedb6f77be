"""Exception types shared across the toolkit, and the finiteness test of
the input checks that raise them."""

import math


def is_finite(value) -> bool:
    """True when a real number is neither NaN nor infinite.

    Unlike :func:`math.isfinite` it answers False, instead of raising
    ``OverflowError``, for an int beyond the float range, so an input check
    can report such a value with its own typed error.
    """
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


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
