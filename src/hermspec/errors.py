"""Typed error signals shared across the package."""


class InputError(ValueError):
    """Invalid argument (out-of-range parameter, dimension mismatch, non-finite input)."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge; carries the last two iterates."""

    def __init__(self, message, previous=None, current=None):
        super().__init__(message)
        self.previous = previous
        self.current = current


class ResolutionError(RuntimeError):
    """Covering construction cannot resolve a radius below the grid spacing."""


class NonObservableError(RuntimeError):
    """Observability Gramian is singular at tolerance (e.g. empty sensor set)."""


class NonControllableError(RuntimeError):
    """HUM system is singular at the configured eigenvalue floor."""


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
