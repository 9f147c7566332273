"""Exception types shared across the toolkit."""

from __future__ import annotations

from pathlib import Path


class WcrError(Exception):
    """Base class for all toolkit errors."""


class DataError(WcrError):
    """Input data violates a contract (bad values, missing counters, bad shapes).

    A reader gives the `reason` and the 1-based `line`, if any; `source`, the
    file the message starts with, is set by `model.open_binary` alone.
    """

    def __init__(self, reason: str, line: int | None = None, source: str | Path | None = None):
        super().__init__(reason)
        self.reason, self.line, self.source = reason, line, source

    def __str__(self) -> str:
        message = self.reason if self.line is None else f"line {self.line}: {self.reason}"
        return message if self.source is None else f"{self.source}: {message}"


class ParseError(DataError):
    """A text input could not be parsed."""
