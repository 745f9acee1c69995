"""Typed error signals shared across the package."""


class InputError(ValueError):
    """Invalid argument (out-of-range parameter, dimension mismatch, non-finite input).

    regions holds the indices of the offending regions of a SensorSet, when known.
    """

    def __init__(self, message, regions=()):
        super().__init__(message)
        self.regions = regions


class QuadratureError(RuntimeError):
    """A quadrature Gram missed its closed-form reference at every node count."""


class ResolutionError(RuntimeError):
    """Covering construction cannot resolve a radius below the grid spacing."""


class NonObservableError(RuntimeError):
    """Observability constant is not finite: a solve with the Gramian's factor hit a
    zero pivot or overflowed (e.g. an empty sensor set)."""


class NonControllableError(RuntimeError):
    """HUM control is not finite: a solve with the Gramian's factor hit a zero pivot
    or overflowed."""


class VerificationError(AssertionError):
    """A mathematical inequality failed numerically; carries the offending data."""

    def __init__(self, message, ledger=None):
        super().__init__(message)
        self.ledger = ledger


class ConfigError(ValueError):
    """Config file or --set problem; carries the config line number when known."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
