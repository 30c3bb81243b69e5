"""Exception types shared across the package.

Input problems (bad arguments, unusable data files) and numeric problems
(solver breakdowns, degenerate configurations) are kept on separate branches
so callers, the CLI in particular, can map them to distinct exit codes.
"""


class PwmError(Exception):
    """Base class for every error raised by this package."""


class PwmInputError(PwmError, ValueError):
    """Invalid argument or unusable input data."""


class InsufficientSampleError(PwmInputError):
    """Sample too small for the requested moment order."""


class MissingColumnError(PwmInputError):
    """Requested column absent from a delimited input file."""


class HullError(PwmError):
    """Hypothesized mean lies outside the open hull of the data."""


class DegenerateSampleError(PwmError):
    """All values identical, so likelihood-ratio inference is undefined."""


class ConvergenceError(PwmError):
    """Iterative solver exhausted its budget.

    ``best`` shows how close the solver got.  From the EL kernels
    (:func:`pwmjel.el.solve_lambda`, :func:`pwmjel.el.solve_rows`) it is
    the :class:`pwmjel.el.ELSolution` at the last iterate.  From an
    interval search whose endpoint stalled it is the best endpoint found,
    a float in the data's units.  Other search failures leave it None.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class NumericError(PwmError):
    """A numeric routine (quadrature, aggregation) failed its tolerance."""
