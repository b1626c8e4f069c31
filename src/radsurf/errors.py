"""Exception hierarchy and the process exit codes used by the CLI."""

EXIT_OK = 0
EXIT_INVARIANT_FAILURE = 1
EXIT_BAD_INPUT = 2
EXIT_NUMERICAL_FAILURE = 3


class RadsurfError(Exception):
    """Base class for all radsurf errors."""

    exit_code = EXIT_BAD_INPUT


class InputError(RadsurfError, ValueError):
    """Invalid measure, body, or parameter specification."""

    exit_code = EXIT_BAD_INPUT


class GateError(InputError):
    """A non-log-concave measure was requested without the explicit opt-in."""


class NormalizationError(InputError):
    """The requested measure cannot be normalized to a probability measure."""


class DegeneratePlanError(InputError):
    """The polytope construction degenerates at this dimension for the
    chosen c_rho: the facet offset reaches the annulus inner radius."""


class NumericsError(RadsurfError, ArithmeticError):
    """A numerical routine failed to reach its accuracy target."""

    exit_code = EXIT_NUMERICAL_FAILURE


class QuadratureError(NumericsError):
    """Adaptive quadrature did not converge; carries the achieved error."""

    def __init__(self, message, achieved_error=None):
        super().__init__(message)
        self.achieved_error = achieved_error
