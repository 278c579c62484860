"""Exception hierarchy.

Two broad families matter for the CLI exit codes: configuration/validation
problems (exit 2) and numeric failures discovered during evaluation (exit 3).
"""


class PhotonSieveError(Exception):
    """Base class for all errors raised by this package."""


class ValidationFailure(PhotonSieveError):
    """Bad input shape, domain, or configuration. CLI exit code 2."""


class NumericFailure(PhotonSieveError):
    """Numerically unusable input or diverged computation. CLI exit code 3."""


# -- validation ---------------------------------------------------------------

class NotHermitian(ValidationFailure):
    pass


class NotSymmetric(ValidationFailure):
    pass


class NotPositiveDefinite(ValidationFailure):
    pass


class NotSubunitary(ValidationFailure):
    pass


class TooLarge(ValidationFailure):
    """Exponential-cost guard tripped."""


class OddDimension(ValidationFailure):
    pass


class IndexOutOfRange(ValidationFailure):
    pass


class DomainError(ValidationFailure):
    pass


class PartitionMismatch(ValidationFailure):
    pass


class LayoutMismatch(ValidationFailure):
    pass


class LengthMismatch(ValidationFailure):
    pass


class RankViolation(ValidationFailure):
    pass


class NotNormalized(ValidationFailure):
    pass


# -- numeric ------------------------------------------------------------------

class NonFinite(NumericFailure):
    pass


class SingularCovariance(NumericFailure):
    pass


class ProbabilityOutOfRange(NumericFailure):
    """A computed probability fell outside [0, 1] by more than rounding."""


class ZeroProbability(NumericFailure):
    """A conditional state was requested for an outcome of probability 0."""
