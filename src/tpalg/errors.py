"""Exception types shared across the library, and the base of its record
types.

Errors that wrap a diagnostic report (an IdentityReport or similar) keep it
on the ``report`` attribute so callers can render the failing instance.
"""

from __future__ import annotations


class Record:
    """Base of the library's record types, whose fields are the names in
    ``__slots__``, in order: equality and hashing by the tuple of field
    values, the repr ``Name(field=value, ...)``, and no assignment once
    ``__init__`` has set the fields with ``object.__setattr__``.  A mutable
    record sets ``__setattr__`` and ``__delattr__`` back to ``object``'s.
    Defined here, not with ``dataclasses``, so that importing the library
    generates no code at run time."""

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class TpalgError(Exception):
    """Base class for all library errors."""


class BadScalar(TpalgError):
    """A scalar string could not be parsed in the expected ring."""


class NotInvertible(TpalgError):
    """Inversion was requested for a non-unit (for example a series whose
    constant term vanishes)."""


class OrderMismatch(TpalgError):
    """Two truncated objects live at different truncation orders."""


class DimMismatch(TpalgError):
    """Two objects that must share a dimension do not."""


class MissingSymbol(TpalgError):
    """A parameter substitution did not cover every symbol in use."""


class UnknownIdentity(TpalgError):
    """An identity name outside the supported catalog was requested."""


class MissingOp(TpalgError):
    """An identity was requested that needs an operation the presentation
    does not carry."""


class _ReportError(TpalgError):
    """Base for errors that carry a diagnostic report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotCommAssoc(_ReportError):
    """An operation expected to be commutative associative is not."""


class NotDerivation(_ReportError):
    """A linear map expected to be a derivation is not."""


class NotNovikov(_ReportError):
    """An operation expected to satisfy the Novikov identities does not."""


class NotNovikovPoisson(_ReportError):
    """A (dot, circ) pair fails one of the compatibility identities."""


class NotCommutativeBase(_ReportError):
    """The degree-zero layer of a deformation is not commutative
    associative, so no classical limit exists."""


class NotLie(_ReportError):
    """A bracket expected to be a Lie bracket is not."""


class NotTPA(_ReportError):
    """A (dot, bracket) pair is not a transposed Poisson structure."""


class NotUnit(TpalgError):
    """The designated element is not a two-sided unit for the product."""


class DependentSpan(TpalgError):
    """A spanning list expected to be linearly independent is not."""


class PreconditionViolated(TpalgError):
    """Structure constants violate a precondition; the offending value is
    kept on the ``detail`` attribute."""

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail


class NotAQuantization(TpalgError):
    """A two-parameter family has a non-vanishing obstruction at h = 0 in
    both slots, so it does not deform the trivial product."""


class OutOfRange(TpalgError):
    """Argument outside the tabulated range."""


class ParseError(TpalgError):
    """A structured input file is malformed; ``path`` locates the field."""

    def __init__(self, message, path=""):
        super().__init__(message if not path else f"{path}: {message}")
        self.path = path


class IndexOutOfRange(ParseError):
    """A structure-constant entry references a basis index outside 1..dim."""
