"""Shared exception types, the check that keeps floats out, and the
rules that decide which text is an integer or a rational."""

import re
from fractions import Fraction

# ASCII digits only: int() and Fraction() also read "1_0", "1e-1", "0.1"
# and other scripts' digits.
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")


class EdgeListError(ValueError):
    """Malformed edge-list text; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PartitionError(ValueError):
    """A partition or move violates the disjoint-cover contract."""


class SizeGateError(ValueError):
    """An exact enumeration was refused because the input exceeds its size gate."""


def _exact(value, name: str) -> Fraction:
    # A float's binary value is rarely the rational meant (0.1 is not 1/10),
    # a bool is a flag, not a number, and a string is read as the CLI reads it.
    if isinstance(value, (float, bool)) or isinstance(value, str) and not _RATIONAL_RE.fullmatch(value.strip()):
        kind = type(value).__name__
        raise ValueError(f"{name} must be an int, a Fraction or a 'p/q' string, got the {kind} {value!r}")
    return Fraction(value)
