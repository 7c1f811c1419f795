"""Exception types shared across the package."""


class ProchainError(Exception):
    pass


class RingMismatch(ProchainError):
    """Operands live over different coefficient rings."""


class ContainmentViolation(ProchainError):
    """A subgroup that was required to contain another does not."""


class WindowViolation(ProchainError):
    """A homology-window certificate required by an operation failed."""


class PreconditionViolated(ProchainError):
    """An operation was called on inputs outside its contract."""


class PostconditionViolated(ProchainError):
    """A result failed an identity that its construction guarantees."""


class SizeBudgetExceeded(ProchainError):
    """An object would be larger than the package builds; the message names
    the object and its shape."""


class ParseError(ProchainError):
    """Workspace file could not be parsed; message carries the location."""


class ValidationError(ProchainError):
    """Workspace object failed validation; message names object and degree."""
