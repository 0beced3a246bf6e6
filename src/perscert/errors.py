"""Exception hierarchy shared across the package, and ``Frozen``, the base
of its immutable values, whose assignment raises.

The CLI maps these onto exit codes: SchemaError -> 2, BudgetExceededError -> 3,
everything else that signals a violated property or precondition -> 1.
"""


class PerscertError(Exception):
    pass


class DimensionError(PerscertError):
    """Grades of mismatched arity were combined."""


class OrderError(PerscertError):
    """An operation required r <= s in the product order and it failed."""


class ShiftError(PerscertError):
    """A shift grade was required to be nonnegative."""


class InvalidScaleError(PerscertError):
    """A scale factor was required to be positive."""


class CategoryError(PerscertError):
    """Objects or maps do not belong to the expected concrete category."""


class ValidationError(PerscertError):
    """A structural invariant (functoriality, naturality, face closure) failed."""


class SchemaError(PerscertError):
    """Input data did not parse against the wire schema."""


class BudgetExceededError(PerscertError):
    """A search or a construction would exceed its budget."""


class Frozen:
    """Base of the package's immutable values. A subclass names its fields
    in ``_fields`` and sets them in ``__init__`` by ``object.__setattr__``.
    Values of one class are equal when their fields are, hash as the tuple
    of their fields and print as ``Name(field=value, ...)``; assigning or
    deleting an attribute raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
