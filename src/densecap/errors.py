"""Exception types shared across the package."""

import numbers


class DensecapError(ValueError):
    """Base class for all structured errors raised by this package."""


class DimensionMismatchError(DensecapError):
    """Array shapes do not match what an operation requires."""

    def __init__(self, where, expected, actual):
        self.where = where
        self.expected = expected
        self.actual = actual
        super().__init__(f"{where}: expected {expected}, got {actual}")


class ParseError(DensecapError):
    """A serialized record could not be decoded."""

    def __init__(self, message, line=None):
        self.line = line
        loc = "" if line is None else f" (line {line})"
        super().__init__(f"{message}{loc}")


class ValidationFailedError(DensecapError):
    """A kernel failed structural validation where a valid one was required."""


class CapacityError(DensecapError):
    """Exact computation refused: instance too large for the configured cap."""


class ParameterError(DensecapError):
    """An argument is outside the operation's stated domain."""


class InvalidNetworkError(ParameterError):
    """A network violates a structural invariant (bounds, divisibility, depth)."""


class InvalidBoundError(InvalidNetworkError):
    """The parameter bound B is not finite or is below L+2."""


def require_count(name, value, least=0):
    """Refuse a count or seed that is not an integer of at least ``least``.

    ``bool`` is an ``Integral`` but no count: True would run as 1.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise ParameterError(f"{name} must be {bound}, got {value}")


def require_real(name, value):
    """Refuse a value that is not a real number; a ``bool`` is none."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a real number, got {value!r}")


class EquivalenceViolationError(DensecapError):
    """A quantity that should be constant on a cell varies beyond tolerance."""


class IngestionError(DensecapError):
    """A dataset file is missing, truncated, or malformed."""

    def __init__(self, message, path=None, offset=None):
        self.path = path
        self.offset = offset
        loc = "" if path is None else f" [{path}]"
        off = "" if offset is None else f" at byte {offset}"
        super().__init__(f"{message}{loc}{off}")
