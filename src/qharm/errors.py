"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all qharm errors."""


class FieldError(ToolkitError):
    """Invalid field operation (inverse of zero, unsupported q)."""


class SizeCapError(ToolkitError):
    """An enumeration would exceed the configured size cap."""


class ConsistencyError(ToolkitError):
    """Two independent realizations of the same operator disagreed.

    This is a test-failure signal: it means an internal identity that the
    toolkit asserts on every call was violated beyond tolerance.
    """


class RefinementError(ToolkitError):
    """A character table or irreducible failed a check (eigen-gap, orthogonality, integrality)."""


class InputFormatError(ToolkitError):
    """Malformed input file or out-of-range data."""
