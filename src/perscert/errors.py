"""Exception hierarchy shared across the package.

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
    """An exhaustive search ran out of budget."""
