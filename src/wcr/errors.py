"""Exception types shared across the toolkit."""

from __future__ import annotations

from pathlib import Path


class WcrError(Exception):
    """Base class for all toolkit errors."""


class DataError(WcrError):
    """Input data violates a contract (bad values, missing counters, bad shapes)."""


class ParseError(DataError):
    """A text input could not be parsed.

    Carries the 1-based line number when the failure is tied to a line. A
    reader names only the line and the field; `source`, the file the message
    starts with, is set by the code that opened the file (`model.open_binary`
    for a path, `cli._InputStream` for a command's input), else it is None.
    `reason` is the message without them, so an opener can name the file.
    """

    def __init__(self, message: str, line: int | None = None, source: str | Path | None = None):
        self.reason, self.line, self.source = message, line, source
        if line is not None:
            message = f"line {line}: {message}"
        if source is not None:
            message = f"{source}: {message}"
        super().__init__(message)
