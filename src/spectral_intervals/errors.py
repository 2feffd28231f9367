"""Exception hierarchy shared by all modules.

Validation errors map to CLI exit code 1, numerical failures to 2,
guard trips to 3.
"""


class SpectralIntervalsError(Exception):
    """Base class for all package errors."""


class ValidationError(SpectralIntervalsError, ValueError):
    """Bad input data (exit code 1)."""


class NumericalError(SpectralIntervalsError):
    """A numerical routine failed to converge (exit code 2)."""


class GuardExceeded(SpectralIntervalsError):
    """A configured combinatorial cap would be exceeded (exit code 3)."""


# -- interval geometry ------------------------------------------------------

class OverlappingIntervals(ValidationError):
    pass


class EmptyInterval(ValidationError):
    pass


class NonFinite(ValidationError):
    pass


class MoveCollision(ValidationError):
    pass


# -- boundary matrices ------------------------------------------------------

class NotUnitary(ValidationError):
    pass


class ConvergenceFailure(NumericalError):
    pass


class DeficientSpan(ValidationError):
    pass


class Inconsistent(ValidationError):
    pass


class WrongStructure(ValidationError):
    pass


class NotEqualLength(ValidationError):
    pass


# -- path engine / evolution ------------------------------------------------

class XNotInOmega(ValidationError):
    pass


class XPlusTNotInOmega(ValidationError):
    pass


class PreconditionViolated(ValidationError):
    pass


class NotEigenCombination(ValidationError):
    pass


# -- analysis suites --------------------------------------------------------

class NotSpectral(ValidationError):
    pass


class InconsistentTheta(ValidationError):
    pass
