"""Exception hierarchy shared across the toolkit.

Everything raised on bad input derives from :class:`TifsemError` so the CLI
can map domain failures to exit code 1 in one place.
"""

from __future__ import annotations


class TifsemError(Exception):
    """Base class for all toolkit-level errors."""


class XmlParseError(TifsemError):
    """Raised when an input document is not well-formed XML."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class ProfileError(TifsemError):
    """Raised when a dialect profile is internally inconsistent or maps a
    tag to a path that does not exist in the granule schema."""


class RuleError(TifsemError):
    """Raised when a mapping rule document fails validation."""


class IoAssertionError(TifsemError):
    """Raised when an information object with error-level validation issues
    is asserted into a graph."""


class NTriplesParseError(TifsemError):
    """Raised on an N-Triples grammar violation.  Carries the 1-based line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class QuerySyntaxError(TifsemError):
    """Raised on a malformed query.  Carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"at offset {position}: {message}")
        self.position = position


class QueryTypeError(TifsemError):
    """Raised when a filter compares terms with incomparable datatypes."""


class ExportError(TifsemError):
    """Raised when a serialization request cannot be satisfied, e.g. the
    requested JSON-LD root is not a subject in the graph."""
