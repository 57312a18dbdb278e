"""Exception types shared across the lab.

Two broad failure classes: the caller asked for something malformed
(ParameterError), or the request is well-formed but too large for the
configured budget (InfeasibleError).  CLI exit codes map onto these.
file_int is the integer check every file reader applies, so that a bad
value in a file is a ParameterError too.
"""

from typing import Any


class HatLabError(Exception):
    """Base class for all lab-specific errors."""


class ParameterError(HatLabError, ValueError):
    """Malformed or out-of-contract arguments (bad shapes, mismatched q, ...)."""


def file_int(value: Any, what: str) -> int:
    """A JSON integer read from a file; floats, bools and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    return value


class InfeasibleError(HatLabError):
    """The request exceeds the configured enumeration budget."""

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class PartitionConditionError(HatLabError):
    """A partition family fails the covering condition needed to build a strategy.

    Carries the offending part-index combination so callers can report it.
    """

    def __init__(self, message: str, combo: tuple[int, ...]):
        super().__init__(message)
        self.combo = combo


class CertificateError(HatLabError):
    """A product certificate failed one of its structural checks."""
