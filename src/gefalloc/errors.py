"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Raised when an instance or allocation document fails validation."""


class GuardError(RuntimeError):
    """Raised when a specialized solver is invoked outside its precondition.

    Guards are caller bugs, not solvable inputs, so this is deliberately
    not a ValidationError.
    """


class BudgetExceededError(RuntimeError):
    """Raised by bounded decision procedures that cannot finish in budget."""

    def __init__(self, nodes: int):
        super().__init__(f"search budget exceeded after {nodes} nodes")
        self.nodes = nodes


def require(cond: bool, msg: str) -> None:
    """Raise GuardError with ``msg`` unless ``cond`` holds."""
    if not cond:
        raise GuardError(msg)
