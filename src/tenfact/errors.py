"""Exception types shared across the package."""


class TenfactError(Exception):
    """Base class for all tenfact-specific errors."""


class DegenerateInputError(TenfactError):
    """Input is numerically rank-deficient or otherwise degenerate.

    ``columns`` lists the offending column indices when known, so callers
    can re-randomize just those columns and retry.
    """

    def __init__(self, message, columns=()):
        super().__init__(message)
        self.columns = tuple(int(c) for c in columns)


class NumericalFailureError(TenfactError):
    """A numerical routine failed to produce a usable result.

    ``partial`` optionally carries whatever partial result existed when the
    failure occurred (e.g. the factors accumulated before a deflation block
    failed).
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class InvalidConfigError(TenfactError, ValueError):
    """A configuration combination that the algorithms cannot honor (a ``ValueError`` too)."""


class UndefinedResultError(TenfactError):
    """The requested quantity is undefined for the given inputs."""
