"""Exception types shared across the package."""


class LqnError(Exception):
    """Base class for package errors."""


class NotPermissibleError(LqnError):
    """A mass or density value is zero or negative somewhere on the support."""


class NotNormalizedError(LqnError):
    """Masses do not sum, or the density does not integrate, to one."""


class DimensionMismatchError(LqnError):
    """Operands have incompatible shapes, lengths, or supports."""


class RankDeficientError(LqnError):
    """A generator matrix does not have full row rank."""


class TooLargeError(LqnError):
    """A requested enumeration exceeds its cap, or a size overflows int64 arithmetic."""


class NoFeasibleRateError(LqnError):
    """No integer code dimension below the block length meets the rate rule."""
