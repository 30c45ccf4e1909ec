"""Shared exception types, and the check that keeps floats out."""

from fractions import Fraction


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
    # and a bool is a flag, not a number.
    if isinstance(value, (float, bool)):
        kind = type(value).__name__
        raise ValueError(f"{name} must be an int, a Fraction or a 'p/q' string, got the {kind} {value!r}")
    return Fraction(value)
