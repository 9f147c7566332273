"""Exception types shared across the toolkit."""

from __future__ import annotations

from pathlib import Path


class WcrError(Exception):
    """Base class for all toolkit errors."""


class DataError(WcrError):
    """Input data violates a contract (bad values, missing counters, bad shapes)."""


class ParseError(DataError):
    """A text input could not be parsed.

    Carries the 1-based line number when the failure is tied to a line;
    the message starts with the file name when it is known. `source` is
    the file the message names, or None when it names none.
    """

    def __init__(self, message: str, line: int | None = None, source: str | Path | None = None):
        self.line = line
        self.source = source
        if line is not None:
            message = f"line {line}: {message}"
        if source is not None:
            message = f"{source}: {message}"
        super().__init__(message)
