"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class FrequencyMismatchError(DomainError):
    """The two atoms do not share a single transition frequency."""


class AccuracyError(RuntimeError):
    """A numerical evaluation failed to reach its target accuracy."""
