"""Exception types shared across the package."""


class CronlabError(Exception):
    """Base class for all package errors."""


class StructuralError(CronlabError):
    """Shape / representation / layout mismatch between objects."""


class PreconditionError(CronlabError):
    """An operation's documented precondition was violated."""


class ParameterError(CronlabError):
    """Scalar parameters out of their admissible range."""


class ConvergenceError(CronlabError):
    """An iterative solve failed to reach its tolerance."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []
