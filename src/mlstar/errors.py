"""Exception hierarchy for evaluation and certification failures."""


class MLStarError(Exception):
    """Base class for every error raised by this package."""


class DomainError(MLStarError, ValueError):
    """An argument lies outside the operation's domain."""


class SeriesTruncationError(MLStarError):
    """The requested series tolerance is unreachable within the term cap."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class NearZeroDenominatorError(MLStarError):
    """A normalized Mittag-Leffler value fell below the zero guard."""

    def __init__(self, message, z=None):
        super().__init__(message)
        self.z = z


class DegenerateOperatorError(MLStarError):
    """The operator integral vanished or overflowed away from the origin."""


class JobFileError(MLStarError, ValueError):
    """A job document failed validation."""
