"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: CapacityError -> 2, DomainError -> 3,
ParseError -> 4.  Assigning a field of an immutable value (Graph,
CountSequence, ...) raises AttributeError through read_only.
"""


def read_only(self, name, *value):
    """__setattr__ and __delattr__ of the immutable value types."""
    raise AttributeError(f"cannot assign to field {name!r}")


class BoxprimeError(Exception):
    """Base class for all package errors."""


class CapacityError(BoxprimeError):
    """A request exceeds a configured size limit (enumeration order, horizon, ...)."""


class DomainError(BoxprimeError):
    """Input is structurally invalid for the operation (disconnected, empty, ...)."""


class ParseError(BoxprimeError):
    """Malformed textual input (graph6 strings, range expressions)."""
