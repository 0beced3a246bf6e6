"""Exact grades in R^m with the product order, plus the integer reindexings
used by discretization and zig-zag rectification.

All scalars are exact rationals (``fractions.Fraction``); no floats anywhere
in the core.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .errors import DimensionError, Frozen, InvalidScaleError


def rat(value) -> Fraction:
    """Coerce ints, strings like "3/2", and Fractions to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def _ratio_str(n: int, d: int) -> str:
    """n/d (d > 0) in lowest terms, as "p" or "p/q", with no Fraction
    built."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def rat_to_str(value: Fraction) -> str:
    value = rat(value)
    return _ratio_str(value.numerator, value.denominator)


class Grade(Frozen):
    """An exact point of R^m. Immutable, with structural equality."""

    _fields = ("coords",)

    def __init__(self, coords: Iterable):
        coords = tuple(rat(c) for c in coords)
        if not coords:
            raise DimensionError("a grade needs at least one coordinate")
        object.__setattr__(self, "coords", coords)

    # equality and hashing sit on the search and check hot paths, so they
    # read the one field directly
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash((self.coords,))

    @property
    def m(self) -> int:
        return len(self.coords)

    def _check_arity(self, other: "Grade") -> None:
        if self.m != other.m:
            raise DimensionError(f"arity mismatch: {self.m} vs {other.m}")

    def leq(self, other: "Grade") -> bool:
        self._check_arity(other)
        return all(a <= b for a, b in zip(self.coords, other.coords))

    def __add__(self, other: "Grade") -> "Grade":
        self._check_arity(other)
        return Grade(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "Grade") -> "Grade":
        self._check_arity(other)
        return Grade(a - b for a, b in zip(self.coords, other.coords))

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def __repr__(self) -> str:
        return "Grade(" + ", ".join(rat_to_str(c) for c in self.coords) + ")"


def grade(*coords) -> Grade:
    return Grade(coords)


def zero_grade(m: int) -> Grade:
    return Grade([Fraction(0)] * m)


def scale(r: Grade, c) -> Grade:
    """Multiply every coordinate of a grade by a positive rational."""
    c = rat(c)
    if c <= 0:
        raise InvalidScaleError(f"scale factor must be positive, got {rat_to_str(c)}")
    return Grade(x * c for x in r.coords)


def floor_int(r) -> int:
    """Largest integer <= r."""
    return math.floor(rat(r))


def even_reindex(n: int, m: int = 1) -> int:
    """Block version of the even-floor reindexing: maps n to the largest
    multiple of m whose block index is even, no larger than n."""
    if m < 1:
        raise InvalidScaleError("block size must be >= 1")
    q = n // m
    e = q if q % 2 == 0 else q - 1
    return e * m


def odd_reindex(n: int, m: int = 1) -> int:
    """Block version of the odd-floor reindexing."""
    if m < 1:
        raise InvalidScaleError("block size must be >= 1")
    q = n // m
    o = q if q % 2 == 1 else q - 1
    return o * m
