"""Exception types shared across the lab, and the one file boundary.

Two broad failure classes: the caller asked for something malformed
(ParameterError), or the request is well-formed but too large for the
configured budget (InfeasibleError).  CLI exit codes map onto these.
refuse_power refuses a space of q^e items past a budget without forming it.
Every file goes through read_json or write_json, and file_int and file_rows
check the integers read, so whatever is wrong with a file is a ParameterError.
"""

import json
from typing import Any, Callable

import numpy as np


class HatLabError(Exception):
    """Base class for all lab-specific errors."""


class ParameterError(HatLabError, ValueError):
    """Malformed or out-of-contract arguments (bad shapes, mismatched q, ...)."""


def read_json(path: str, what: str, parse: Callable[[dict], Any]) -> Any:
    """`parse` applied to the JSON object in file `path`; bytes that are not
    UTF-8 JSON text, any other top level, and a KeyError or TypeError inside
    `parse` are ParameterErrors."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (ValueError, RecursionError) as exc:  # undecodable, too deep or too long
        raise ParameterError(f"{what} {path} is not JSON text: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParameterError(f"{what} {path} must hold a JSON object")
    try:
        return parse(payload)
    except (KeyError, TypeError) as exc:
        raise ParameterError(f"malformed {what} {path}: {exc}") from exc


def write_json(path: str, payload: dict) -> None:
    """`payload` as one line of JSON text in file `path`."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def file_int(value: Any, what: str) -> int:
    """A JSON integer read from a file; floats, bools and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    return value


def file_rows(rows: Any, what: str, high: int, width: int | None = None) -> np.ndarray | list:
    """A JSON list of lists of ints (not bools) in [0, high), checked at once:
    with `width` entries per row, as an int64 array of shape (rows, width);
    without, the rows as read."""
    if not isinstance(rows, list) or set(map(type, rows)) - {list}:
        raise ParameterError(f"{what}s must be a list of lists")
    if width is not None and set(map(len, rows)) - {width}:
        raise ParameterError(f"every {what} must have {width} entries")
    entries = [c for row in rows for c in row]
    # Python's min and max are exact, so the int64 array below cannot overflow
    if set(map(type, entries)) - {int} or (
            entries and not 0 <= min(entries) <= max(entries) < min(high, 1 << 63)):
        raise ParameterError(f"{what} entries must be integers in [0, {high})")
    return rows if width is None else np.array(entries, dtype=np.int64).reshape(len(rows), width)


MAX_REPORTED_DIGITS = 4000  # Python refuses to print ints past 4300 digits


class InfeasibleError(HatLabError):
    """The request exceeds the configured enumeration budget."""

    def __init__(self, message: str, required: int | str | None = None):
        super().__init__(message)
        self.required = required


def power_past(q: int, e: int, cap: int) -> bool:
    """Whether q**e > cap, without forming a power much past the cap."""
    if q <= 1:
        return q**e > cap
    power = 1
    for _ in range(e):
        power *= q
        if power > cap:
            return True
    return power > cap


def refuse_power(q: int, e: int, cap: int, what: str) -> None:
    """Raise InfeasibleError when the q**e items of `what` exceed `cap`.

    The message names the count as q^e.  `required` is q**e while it has at
    most MAX_REPORTED_DIGITS digits and the text "q^e" past that: Python
    refuses to print longer ints, so no message or JSON report could hold it.
    """
    if power_past(q, e, cap):
        too_long = power_past(q, e, 10**MAX_REPORTED_DIGITS)
        raise InfeasibleError(f"{q}^{e} {what} {cap}",
                              required=f"{q}^{e}" if too_long else q**e)


class PartitionConditionError(HatLabError):
    """A partition family fails the covering condition needed to build a strategy.

    Carries the offending part-index combination so callers can report it.
    """

    def __init__(self, message: str, combo: tuple[int, ...]):
        super().__init__(message)
        self.combo = combo


class CertificateError(HatLabError):
    """A product certificate failed one of its structural checks."""
