"""Shared exception types, the check that keeps floats out, the rules
that decide which text is an integer or a rational, and the base of the
frozen public records."""

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


class _Record:
    """Base of the frozen public records (Move, Trace, Potential, ...).

    The fields are the base's, then the class's own annotations, in
    order; a class attribute of a field's name is its default. A record
    takes them by position or keyword, then runs __post_init__, which may
    rebind a field with object.__setattr__. It equals only a record of
    its own class with equal fields and hashes by them (by identity under
    eq=False), matches a class pattern by position, and refuses
    assignment and deletion."""

    _fields: tuple = ()

    def __init_subclass__(cls, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(dict.fromkeys([*cls._fields, *cls.__annotations__]))
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            values = {**dict(zip(fields, args)), **kwargs}
            missing = [f for f in fields if f not in values and not hasattr(self, f)]
            if len(args) > len(fields) or len(values) < len(args) + len(kwargs) or values.keys() - set(fields) or missing:
                raise TypeError(
                    f"{type(self).__qualname__}() takes {', '.join(fields)}, each once and each without a "
                    f"default required; got {len(args)} positional arguments and the keywords {sorted(kwargs)}"
                )
            args = [values[f] if f in values else getattr(self, f) for f in fields]
        # One attribute at a time, as dataclasses do: filling __dict__
        # directly makes every later attribute read about 2.5 times as
        # slow on CPython 3.11.
        for f, v in zip(fields, args):
            object.__setattr__(self, f, v)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={v!r}' for f, v in zip(self._fields, self._values()))})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
