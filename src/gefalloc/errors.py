"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Raised when an instance or allocation document fails validation."""


class GuardError(RuntimeError):
    """Raised when a forced route or a checked helper is invoked outside its
    precondition.

    Guards are caller bugs, not solvable inputs, so this is deliberately
    not a ValidationError.
    """
