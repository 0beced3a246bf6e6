"""Finite-grid persistent objects, the delta-morphism calculus, interleaving
certificates with a checker, pullback composition, and the discretization /
rescaling reindexings.

Evaluation semantics, fixed once for the whole package: a persistent object is
piecewise constant on its grid, equals the initial object of its category when
some coordinate lies below the axis minimum, and is constant above each axis
maximum.

Validation rule, also fixed once for the whole package: decoders and public
constructors (``Grid``, ``PersistentObject``, ``DeltaMorphism``,
``DeltaMorphism.from_fn``, ``integer_object``, ``constant_object``) validate
what they receive; library builders, whose outputs are valid because their
inputs are, build them with ``PersistentObject._of``, ``DeltaMorphism._on``
and ``Grid._of`` (and GF(2) matrices with ``gf2.GF2Matrix._of``), which
check nothing. Three checks run once on a value built unchecked:
``_check_axes`` on a grid's scaled axes (``Grid`` and the object decoder),
``PersistentObject._validate`` (its constructor, ``integer_object`` and the
object decoder) and ``DeltaMorphism._validate_components`` (its
constructor, ``from_fn`` and the morphism decoder). The last two build
the sets of keys off the grid only when the counts or a missing place
show one (``_refuse_strays``, which tests each key against the grid's
index ranges), walk the grid without listing it, and report the error the
one-by-one check reports first. They read values only: every edge map,
component and square is checked against its own source and target,
whichever Python objects a decoder shared; an equal object value is checked
once (and, in a complex, an equal simplex or vertex set is built once). A
builder whose output needs more than valid inputs (a natural h, a valid
certificate) checks that first; a certificate by ``_require_valid``.
``tests/test_hygiene.py`` lists every call of a checking constructor or
check.

Interleaving identities, stated once: naturality of a leg is laid out by its
``_Leg`` (``DeltaMorphism.check_natural``), and the two triangle identities
by ``_triangles``; ``_check`` reads both, over a fresh table in
``check_interleaving`` and over the table a partner search pruned g with.
That search reads each row of the table as one equation on g's component at
the row's g index, c . a = b for X's triangle and a . c = b for Y's, the
forms of a naturality square too.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .categories import _is_inclusion, get_category
from .errors import (
    BudgetExceededError,
    CategoryError,
    DimensionError,
    InvalidScaleError,
    OrderError,
    ShiftError,
    ValidationError,
)
from .grades import Grade, floor_int, rat, scale, zero_grade


def _scale(values) -> tuple[int, tuple[int, ...]]:
    """Ints or Fractions, in any order, as (d, ints): their least common
    denominator d and the integers v * d, in the same order."""
    d = math.lcm(*[v.denominator for v in values])
    return d, tuple([v.numerator * (d // v.denominator) for v in values])


def _below(ints, values) -> list[int]:
    """For each integer of values, the index of the largest of the
    increasing integers ints that is <= it, -1 when it is below them all:
    the package's one ``bisect`` call, one per value."""
    right = bisect.bisect_right
    return [right(ints, v) - 1 for v in values]


def _check_axes(scaled):
    """scaled, per-axis (d, ints), once every axis is known to be nonempty
    and strictly increasing: the one check of a grid's axes, for ``Grid``
    and for a decoded grid."""
    for _, ints in scaled:
        if not ints:
            raise ValidationError("grid axes must be nonempty")
        if any(map(operator.ge, ints, ints[1:])):
            raise ValidationError("grid axes must be strictly increasing")
    return scaled


class Grid:
    """Product of m finite, strictly increasing rational axes. Each axis is
    held as (d, ints), its least common denominator d and the integers
    v * d; placing values, merging, translating, locating and comparing
    grids work on those integers (as does ``_positions``, which places
    one-parameter values on an axis), and ``axes`` gives the Fractions."""

    def __init__(self, axes):
        axes = tuple(tuple(rat(v) for v in axis) for axis in axes)
        if not axes:
            raise DimensionError("a grid needs at least one axis")
        self._scaled = _check_axes(tuple(map(_scale, axes)))
        self.axes = axes  # the Fraction view, at hand here

    @classmethod
    def _of(cls, scaled: tuple[tuple[int, tuple[int, ...]], ...]) -> "Grid":
        """The grid of per-axis (d, ints) already known to be nonempty,
        strictly increasing integer tuples over their least common
        denominator d."""
        grid = object.__new__(cls)
        grid._scaled = scaled
        return grid

    @classmethod
    def placing(cls, columns) -> tuple["Grid", list]:
        """The grid of the distinct values of each column (ints or Fractions
        in any order; the columns of one length), and for each row k its
        index on that grid, the index of the point (columns[0][k],
        columns[1][k], ...). Indices compare as the values do. This is the
        one place where exact values become the indices of a grid built of
        them; ``_positions`` places values on an axis that exists."""
        scaled, axes, places = [], [], []
        for column in columns:
            d, ints = _scale(column)
            value = dict(zip(ints, column))  # each distinct value, by its integer
            axis = sorted(value)
            scaled.append((d, tuple(axis)))
            axes.append(tuple([rat(value[v]) for v in axis]))
            places.append(map({v: i for i, v in enumerate(axis)}.__getitem__, ints))
        grid = cls._of(tuple(scaled))
        grid.axes = tuple(axes)  # the Fraction view, at hand here
        return grid, list(zip(*places))

    @functools.cached_property
    def axes(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(v, d) for v in ints) for d, ints in self._scaled)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return self._scaled == other._scaled

    def __hash__(self):
        return hash(self._scaled)

    def __repr__(self) -> str:
        return f"Grid(axes={self.axes!r})"

    @property
    def m(self) -> int:
        return len(self._scaled)

    def shape(self) -> tuple[int, ...]:
        return tuple(len(ints) for _, ints in self._scaled)

    def indices(self):
        return itertools.product(*[range(len(ints)) for _, ints in self._scaled])

    def grade_at(self, idx: tuple[int, ...]) -> Grade:
        return Grade(axis[i] for axis, i in zip(self.axes, idx))

    def points(self):
        for idx in self.indices():
            yield self.grade_at(idx)

    def edges(self):
        """(idx, axis, next_idx) for each unit step inside the grid, by index
        and then by axis."""
        shape = self.shape()
        for idx in self.indices():
            for a, size in enumerate(shape):
                if idx[a] + 1 < size:
                    yield idx, a, idx[:a] + (idx[a] + 1,) + idx[a + 1:]

    def eval_index(self, r: Grade) -> Optional[tuple[int, ...]]:
        """Index of the largest grid point <= r (None when r is below the
        grid): ``locate`` of the one-point grid at the origin, shifted by r."""
        origin = Grid._of(((1, (0,)),) * r.m)
        return self.locate(origin, r)[(0,) * r.m]

    def locate(self, other: "Grid", shift: Grade) -> dict:
        """Index of other -> index in this grid of the largest grid point <=
        that point plus shift (coordinatewise, clamped above; None when some
        coordinate falls below its axis minimum), by one bisect per axis
        value on integers scaled to one common denominator per axis."""
        if other.m != self.m or shift.m != self.m:
            raise DimensionError(f"cannot locate arity {other.m} in arity {self.m}")
        per_axis = []
        for (d, ints), (e, other_ints), s in zip(self._scaled, other._scaled, shift.coords):
            common = math.lcm(d, e, s.denominator)
            if common != d:
                ints = [v * (common // d) for v in ints]
            k, t = common // e, s.numerator * (common // s.denominator)
            per_axis.append(_below(ints, [v * k + t for v in other_ints]))
        return {
            idx: None if -1 in pos else pos
            for idx, pos in zip(other.indices(), itertools.product(*per_axis))
        }

    def merge(self, other: "Grid") -> "Grid":
        """The grid of the union of each pair of axes, over the lcm of their
        denominators (the least one of the union)."""
        if self.m != other.m:
            raise DimensionError("cannot merge grids of different arity")
        out = []
        for (d, a), (e, b) in zip(self._scaled, other._scaled):
            common = math.lcm(d, e)
            if common != d:
                a = [v * (common // d) for v in a]
            if common != e:
                b = [v * (common // e) for v in b]
            out.append((common, tuple(sorted(set(a).union(b)))))
        return Grid._of(tuple(out))

    def translate(self, delta: Grade) -> "Grid":
        """The grid moved by delta; each axis is divided by the gcd of its new
        denominator and integers, so that the denominator stays least."""
        if delta.m != self.m:
            raise DimensionError("translation arity mismatch")
        out = []
        for (d, ints), s in zip(self._scaled, delta.coords):
            common = math.lcm(d, s.denominator)
            k, t = common // d, s.numerator * (common // s.denominator)
            moved = tuple(v * k + t for v in ints)
            g = math.gcd(common, *moved)
            if g != 1:
                common, moved = common // g, tuple(v // g for v in moved)
            out.append((common, moved))
        return Grid._of(tuple(out))


# the step (idx, axis) of an edge (idx, axis, next_idx) of ``Grid.edges``
_STEP = operator.itemgetter(0, 1)


def _is_point(key, shape: tuple[int, ...]) -> bool:
    """Whether key equals the index of a point of a grid of this shape."""
    return (isinstance(key, tuple) and len(key) == len(shape)
            and all(i in range(n) for i, n in zip(key, shape)))


def _is_step(key, shape: tuple[int, ...]) -> bool:
    """Whether key equals the (index, axis) of a step of ``Grid.edges`` on a
    grid of this shape."""
    if not (isinstance(key, tuple) and len(key) == 2):
        return False
    idx, a = key  # a may be any number equal to an axis, hence int(a)
    return (_is_point(idx, shape) and a in range(len(shape))
            and idx[int(a)] + 1 < shape[int(a)])


def _refuse_strays(shape: tuple[int, ...], points: dict, steps: dict) -> None:
    """Refuse any key of points that is no grid point, and of steps that is
    no grid step, on a grid of this shape, naming every such key of both;
    each key is tested alone, so the grid is never walked. A dict holds a
    key off its places exactly when it holds more keys than there are
    places, or as many and misses a place, so callers come here only then."""
    stray = {key for key in points if not _is_point(key, shape)}
    stray.update(key for key in steps if not _is_step(key, shape))
    if stray:
        raise ValidationError(f"keys outside the grid: {sorted(stray, key=repr)}")


class PersistentObject:
    """A functor from R^m (or Z, when integer_indexed) to a concrete category,
    presented on a finite grid. Immutable after construction."""

    def __init__(self, grid: Grid, category: str, objects: dict, edge_maps: dict,
                 integer_indexed: bool = False):
        self._place(grid, category, dict(objects), dict(edge_maps), integer_indexed)
        self._validate()

    @classmethod
    def _of(cls, grid: Grid, category: str, objects: dict, edge_maps: dict,
            integer_indexed: bool = False) -> "PersistentObject":
        """The object of data already known to be valid, which it keeps
        without copying."""
        x = cls.__new__(cls)
        x._place(grid, category, objects, edge_maps, integer_indexed)
        return x

    def _place(self, grid: Grid, category: str, objects: dict, edge_maps: dict,
               integer_indexed: bool):
        self.grid = grid
        self.category_name = category
        self.category = get_category(category)
        self.objects = objects
        self.edge_maps = edge_maps
        self.integer_indexed = bool(integer_indexed)

    # -- validation -------------------------------------------------------

    def _validate(self) -> None:
        if self.integer_indexed:
            if self.grid.m != 1:
                raise DimensionError("integer-indexed objects must have m = 1")
            d, ints = self.grid._scaled[0]
            # ints increase strictly, so they are consecutive when they span len - 1
            if d != 1 or ints[-1] - ints[0] != len(ints) - 1:
                raise ValidationError("integer-indexed axis must be consecutive integers")
        cat, objects, edge_maps, grid = self.category, self.objects, self.edge_maps, self.grid
        shape = grid.shape()
        npoints = math.prod(shape)
        # an axis of n values has n - 1 steps on each of its npoints / n lines
        nsteps = sum(npoints - npoints // n for n in shape)
        # the counts come first: a document that states a large grid in a few
        # bytes is refused from its keys, before any walk
        if not (len(objects) == npoints and len(edge_maps) == nsteps
                and all(map(objects.__contains__, grid.indices()))
                and all(map(edge_maps.__contains__, map(_STEP, grid.edges())))):
            _refuse_strays(shape, objects, edge_maps)
        checked = set()  # each distinct object value is checked once
        check, is_map = cat.check_object, cat.is_map
        if self.category_name == "Complex":  # and each distinct simplex and vertex set once
            check = functools.partial(check, faces={})
            is_map = functools.partial(is_map, vertices={})
        for idx in grid.indices():
            if idx not in objects:
                raise ValidationError(f"missing object at grid index {idx}")
            obj = objects[idx]
            try:
                fresh = obj not in checked
            except TypeError:  # unhashable, so no valid object: check_object says why
                fresh = True
            if fresh:
                check(obj)
                checked.add(obj)
        for idx, a, nxt in grid.edges():
            key = (idx, a)
            if key not in edge_maps:
                raise ValidationError(f"missing edge map at {key}")
            if not is_map(edge_maps[key], objects[idx], objects[nxt]):
                raise ValidationError(f"edge map at {key} is not a valid map")
        if self.grid.m >= 2:
            self._audit_squares()

    def _audit_squares(self) -> None:
        """Each unit square of the grid commutes. When every edge map of a
        set or complex object is an inclusion, every square does: ``is_map``
        has checked that each edge map is defined on exactly the elements
        (vertices) of its source and lands in its target, so both paths
        around a square are the identity on the elements of the square's
        first corner, and nothing is composed."""
        if self.category_name != "F2Vec" and all(map(_is_inclusion, self.edge_maps.values())):
            return
        cat = self.category
        for idx, steps in itertools.groupby(self.grid.edges(), key=lambda e: e[0]):
            for (_, a, idx_a), (_, b, idx_b) in itertools.combinations(steps, 2):
                via_a = cat.compose(
                    self.edge_maps[(idx_a, b)], self.edge_maps[(idx, a)]
                )
                via_b = cat.compose(
                    self.edge_maps[(idx_b, a)], self.edge_maps[(idx, b)]
                )
                if via_a != via_b:
                    raise ValidationError(
                        f"non-commuting square at {idx}, axes ({a},{b})"
                    )

    # -- evaluation -------------------------------------------------------

    @property
    def m(self) -> int:
        return self.grid.m

    def at(self, i: Optional[tuple[int, ...]]):
        """The object at grid index i; the initial object when i is None
        (below the grid)."""
        return self.category.initial() if i is None else self.objects[i]

    def map_between(self, i: Optional[tuple[int, ...]], j: Optional[tuple[int, ...]]):
        """Composite of edge maps from index i to index j (i <= j); the map
        out of the initial object when i is None."""
        cat = self.category
        if i is None:
            return cat.initial_map(self.at(j))
        f = None
        cur = list(i)
        for a in range(self.grid.m):
            while cur[a] < j[a]:
                edge = self.edge_maps[(tuple(cur), a)]
                f = edge if f is None else cat.compose(edge, f)
                cur[a] += 1
        return cat.identity(self.objects[i]) if f is None else f

    def evaluate(self, r: Grade):
        return self.at(self.grid.eval_index(r))

    def structure_map(self, r: Grade, s: Grade):
        """Composite of edge maps from X(r) to X(s); requires r <= s."""
        if not r.leq(s):
            raise OrderError(f"structure map needs r <= s, got {r} and {s}")
        return self.map_between(self.grid.eval_index(r), self.grid.eval_index(s))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PersistentObject):
            return NotImplemented
        if self is other:
            return True
        return (self.category_name == other.category_name and self.grid == other.grid
                and self.objects == other.objects and self.edge_maps == other.edge_maps)

    def __hash__(self):
        return hash((self.category_name, self.grid))


def constant_object(category: str, value, grid: Grid) -> PersistentObject:
    cat = get_category(category)
    objects = {idx: value for idx in grid.indices()}
    edges = {(idx, a): cat.identity(value) for idx, a, _ in grid.edges()}
    return PersistentObject(grid, category, objects, edges)


def _integer_of(category: str, values: list, maps: list, lo: int) -> PersistentObject:
    """``integer_object`` without ``_validate``, for a chain of objects and
    maps already known to be valid."""
    if not values:
        raise ValidationError("grid axes must be nonempty")
    grid = Grid._of(((1, tuple(range(lo, lo + len(values)))),))
    objects = {(k,): v for k, v in enumerate(values)}
    edges = {((k,), 0): f for k, f in enumerate(maps)}
    return PersistentObject._of(grid, category, objects, edges, integer_indexed=True)


def integer_object(category: str, values: list, maps: list, lo: int) -> PersistentObject:
    """Z-indexed object on the window [lo, lo + len(values) - 1]."""
    x = _integer_of(category, values, maps, lo)
    x._validate()
    return x


# -- delta-morphisms -------------------------------------------------------


def canonical_grid(source: PersistentObject, target: PersistentObject, shift: Grade) -> Grid:
    """The merged grid of a morphism source -> target^shift: the source grid
    together with the target grid moved down by shift."""
    if source.category_name != target.category_name:
        raise CategoryError("source and target live in different categories")
    if shift.m != source.m or shift.m != target.m:
        raise DimensionError("shift arity mismatch")
    if not shift.is_nonnegative():
        raise ShiftError(f"morphism shift must be nonnegative, got {shift}")
    neg = Grade(-c for c in shift.coords)
    return source.grid.merge(target.grid.translate(neg))


class _Leg:
    """The geometry every delta-morphism source ->_shift target shares: the
    canonical merged grid, its locate tables ``at_source`` and ``at_target``
    (each merged index to the source-grid index of its point and to the
    target-grid index of its point plus shift), and, built on first use, the
    structure maps of source and target along each merged-grid edge."""

    def __init__(self, source: PersistentObject, target: PersistentObject, shift: Grade):
        self.source, self.target, self.shift = source, target, shift
        self.grid = canonical_grid(source, target, shift)
        self.at_source = source.grid.locate(self.grid, zero_grade(shift.m))
        self.at_target = target.grid.locate(self.grid, shift)
        self.points = list(self.grid.indices())

    def _steps(self, x: PersistentObject, at: dict) -> dict:
        return {(idx, a): x.map_between(at[idx], at[nxt]) for idx, a, nxt in self.grid.edges()}

    @functools.cached_property
    def source_steps(self) -> dict:
        """(index, axis) -> the structure map of source from the point at
        index to the next point along axis."""
        return self._steps(self.source, self.at_source)

    @functools.cached_property
    def target_steps(self) -> dict:
        """``source_steps`` for target, at the points plus shift."""
        return self._steps(self.target, self.at_target)


class DeltaMorphism:
    """A natural transformation X -> Y^shift, stored as one concrete map per
    index of the canonical merged grid of (source, target, shift), on the
    geometry of one ``_Leg``."""

    def __init__(self, source: PersistentObject, target: PersistentObject,
                 shift: Grade, components: dict):
        self._place(_Leg(source, target, shift), dict(components))
        self._validate_components()

    @classmethod
    def _on(cls, leg: _Leg, components: dict) -> "DeltaMorphism":
        """A morphism on leg, which it shares with every other morphism built
        on it, of components already known to be maps of the right type,
        which it keeps without copying."""
        f = cls.__new__(cls)
        f._place(leg, components)
        return f

    def _place(self, leg: _Leg, components: dict):
        self._leg = leg
        self.grid, self.shift = leg.grid, leg.shift
        self.source, self.target = leg.source, leg.target
        self.at_source, self.at_target = leg.at_source, leg.at_target
        self.components = components
        self.category = leg.source.category

    @classmethod
    def from_fn(cls, source, target, shift, fn: Callable[[Grade], object]) -> "DeltaMorphism":
        leg = _Leg(source, target, shift)
        f = cls._on(leg, {idx: fn(leg.grid.grade_at(idx)) for idx in leg.points})
        f._validate_components()
        return f

    def _validate_components(self) -> None:
        components, points = self.components, self._leg.points
        if len(components) != len(points) or not all(map(components.__contains__, points)):
            _refuse_strays(self.grid.shape(), components, {})
        source, target = self.source, self.target
        at_source, at_target = self.at_source, self.at_target
        is_map = self.category.is_map
        if source.category_name == "Complex":  # each distinct vertex set is built once
            is_map = functools.partial(is_map, vertices={})
        for idx in points:
            if idx not in components:
                raise ValidationError(f"missing component at {self.grid.grade_at(idx)}")
            f, src, tgt = components[idx], source.at(at_source[idx]), target.at(at_target[idx])
            if not is_map(f, src, tgt):
                raise ValidationError(
                    f"component at {self.grid.grade_at(idx)} is not a map {src!r} -> {tgt!r}"
                )

    def at(self, i: Optional[tuple[int, ...]]):
        """The component at merged index i. When i is None (below the merged
        grid) source and target are both initial."""
        if i is None:
            return self.category.initial_map(self.category.initial())
        return self.components[i]

    def component_at(self, r: Grade):
        return self.at(self.grid.eval_index(r))

    def check_natural(self) -> Optional[tuple[Grade, int]]:
        """None when natural; otherwise (grade, axis) of the first violation."""
        cat = self.category
        source_steps, target_steps = self._leg.source_steps, self._leg.target_steps
        for idx, a, nxt in self.grid.edges():
            upper = cat.compose(target_steps[(idx, a)], self.components[idx])
            lower = cat.compose(self.components[nxt], source_steps[(idx, a)])
            if upper != lower:
                return (self.grid.grade_at(idx), a)
        return None

    def is_natural(self) -> bool:
        return self.check_natural() is None

    def equals(self, other: "DeltaMorphism") -> bool:
        return (self.shift == other.shift and self.source == other.source
                and self.target == other.target and self.components == other.components)


def identity_shift(x: PersistentObject, delta: Grade) -> DeltaMorphism:
    """S_{0,delta}(id_X): components are the structure maps phi_{r, r+delta}."""
    leg = _Leg(x, x, delta)
    return DeltaMorphism._on(leg, {idx: x.map_between(leg.at_source[idx], leg.at_target[idx])
                                   for idx in leg.points})


def shift_morphism(f: DeltaMorphism, delta: Grade) -> DeltaMorphism:
    """S_{eps,delta}(f), post-composing with target structure maps."""
    if not f.shift.leq(delta):
        raise OrderError(f"cannot shift from {f.shift} to smaller {delta}")
    return compose(f, identity_shift(f.target, delta - f.shift))


def compose(f: DeltaMorphism, g: DeltaMorphism) -> DeltaMorphism:
    """g after f, an (eps + delta)-morphism."""
    if f.target != g.source:
        raise CategoryError("composition mismatch: target of f is not source of g")
    leg = _Leg(f.source, g.target, f.shift + g.shift)
    at_f = f.grid.locate(leg.grid, zero_grade(leg.grid.m))
    at_g = g.grid.locate(leg.grid, f.shift)
    cat = f.category
    return DeltaMorphism._on(leg, {idx: cat.compose(g.at(at_g[idx]), f.at(at_f[idx]))
                                   for idx in leg.points})


# -- interleaving certificates ---------------------------------------------


class InterleavingCert:
    """The legs f: X ->_eps Y and g: Y ->_delta X of an interleaving."""

    def __init__(self, f: DeltaMorphism, g: DeltaMorphism):
        if f.source != g.target or f.target != g.source:
            raise CategoryError("certificate morphisms do not pair up")
        self.f, self.g = f, g

    @property
    def epsilon(self) -> Grade:
        return self.f.shift

    @property
    def delta(self) -> Grade:
        return self.g.shift


class InterleavingReport(NamedTuple):
    valid: bool
    reason: str = ""
    grade: Optional[Grade] = None
    identity: Optional[str] = None


def _triangles(f: _Leg, g: _Leg):
    """The two triangle identities of legs f: X ->_eps Y and g: Y ->_delta
    X, X's first, as (side, grid, index, f index, g index, structure map)
    at each point p of the grid of ``identity_shift`` of that side's object
    at eps + delta, in grid order. Side 0 is X's triangle, g(p + eps) . f(p)
    = X(p -> p + eps + delta); side 1 is Y's, f(p + delta) . g(p) = Y(p ->
    p + eps + delta). This is the only place the triangle grids are built."""
    total = f.shift + g.shift
    zero = zero_grade(total.m)
    for side, z, f_shift, g_shift in ((0, f.source, zero, f.shift),
                                      (1, f.target, g.shift, zero)):
        direct = identity_shift(z, total)
        at_f = f.grid.locate(direct.grid, f_shift)
        at_g = g.grid.locate(direct.grid, g_shift)
        for idx, structure in direct.components.items():
            yield side, direct.grid, idx, at_f[idx], at_g[idx], structure


def _check(f: DeltaMorphism, g: DeltaMorphism, triangles) -> InterleavingReport:
    """Naturality of both legs, then the two triangle identities at the rows
    of triangles, a ``_triangles`` table of their legs; reports the first
    violating grade."""
    for name, leg in (("f", f), ("g", g)):
        violation = leg.check_natural()
        if violation is not None:
            p, axis = violation
            return InterleavingReport(
                False, f"{name} is not natural at {p} along axis {axis}", p, f"naturality({name})"
            )
    cat = f.category
    for side, grid, idx, fi, gj, structure in triangles:
        via = (cat.compose(g.at(gj), f.at(fi)) if side == 0
               else cat.compose(f.at(fi), g.at(gj)))
        if via != structure:
            name, path = ("X", "g^eps . f") if side == 0 else ("Y", "f^delta . g")
            p = grid.grade_at(idx)
            return InterleavingReport(
                False, f"{path} differs from the structure-map shift of {name} at {p}",
                p, f"triangle({name})"
            )
    return InterleavingReport(True, "valid interleaving")


def check_interleaving(cert: InterleavingCert) -> InterleavingReport:
    """Checks naturality of both legs and the two triangle identities
    (``_triangles``); reports the first violating grade."""
    return _check(cert.f, cert.g, _triangles(cert.f._leg, cert.g._leg))


def _require_valid(cert: InterleavingCert) -> None:
    """The precondition of every builder that takes a certificate: it
    replays under ``check_interleaving``."""
    report = check_interleaving(cert)
    if not report.valid:
        raise ValidationError(f"input certificate invalid: {report.reason}")


def self_interleaving(x: PersistentObject, delta: Grade) -> InterleavingCert:
    s = identity_shift(x, delta)
    return InterleavingCert(s, s)


def compose_interleavings(c1: InterleavingCert, c2: InterleavingCert) -> InterleavingCert:
    """X ~(e1,e2)~ Y with Y ~(d1,d2)~ Z gives X ~(e1+d1, e2+d2)~ Z."""
    if c1.f.target != c2.f.source:
        raise CategoryError("middle objects of the two certificates differ")
    return InterleavingCert(compose(c1.f, c2.f), compose(c2.g, c1.g))


# -- pullback of an interleaving -------------------------------------------


class PullbackResult(NamedTuple):
    pullback: PersistentObject  # A
    cert: InterleavingCert      # A ~(eps,delta)~ B
    projection: DeltaMorphism   # A ->_0 X


def pullback_interleaving(cert: InterleavingCert, h: DeltaMorphism) -> PullbackResult:
    """Pull an (eps,delta)-interleaving (f, g) between X and Y back along a
    plain morphism h: B -> Y, producing an (eps,delta)-interleaving between
    the pointwise fiber product A and B. The certificate is replayed and h
    checked for naturality first; A and the morphisms out of it are then
    valid by the universal property."""
    x, y = cert.f.source, cert.f.target
    eps, delta = cert.epsilon, cert.delta
    if h.shift != zero_grade(h.shift.m):
        raise ShiftError("h must be a plain (0-shift) morphism")
    if h.target != y:
        raise CategoryError("h must land in the target of the interleaving")
    _require_valid(cert)
    violation = h.check_natural()
    if violation is not None:
        raise ValidationError(f"h is not natural at {violation[0]} along axis {violation[1]}")
    cat = x.category
    b = h.source

    zero = zero_grade(x.m)
    a_leg = _Leg(x, b, eps)
    a_grid, at_x, at_b = a_leg.grid, a_leg.at_source, a_leg.at_target
    at_f, at_h = cert.f.grid.locate(a_grid, zero), h.grid.locate(a_grid, eps)

    objects = {}
    proj_x_maps = {}
    proj_b_maps = {}
    pairs = {}
    for idx in a_grid.indices():
        objects[idx], proj_x_maps[idx], proj_b_maps[idx], pairs[idx] = cat.fiber_product(
            cert.f.at(at_f[idx]), h.at(at_h[idx]), x.at(at_x[idx]), b.at(at_b[idx])
        )

    edges = {}
    for idx, ax, nxt in a_grid.edges():
        u = cat.compose(a_leg.source_steps[(idx, ax)], proj_x_maps[idx])
        v = cat.compose(a_leg.target_steps[(idx, ax)], proj_b_maps[idx])
        edges[(idx, ax)] = pairs[nxt](u, v, objects[idx])

    a = PersistentObject._of(a_grid, x.category_name, objects, edges)

    # k : A ->_eps B is the second projection and A ->_0 X the first; the
    # canonical grids of both are A's grid, so the projections are their
    # components as they stand
    k = DeltaMorphism._on(_Leg(a, b, eps), proj_b_maps)
    proj = DeltaMorphism._on(_Leg(a, x, zero), proj_x_maps)

    # l : B ->_delta A from the universal property, built out of g . h and
    # the structure-map shift of B
    l_leg = _Leg(b, a, delta)
    l_grid, at_b0, at_a = l_leg.grid, l_leg.at_source, l_leg.at_target
    at_g, at_hl = cert.g.grid.locate(l_grid, zero), h.grid.locate(l_grid, zero)
    at_b1 = b.grid.locate(l_grid, eps + delta)
    l_components = {}
    for idx in l_leg.points:
        u = cat.compose(cert.g.at(at_g[idx]), h.at(at_hl[idx]))
        v = b.map_between(at_b0[idx], at_b1[idx])
        j = at_a[idx]
        l_components[idx] = (cat.initial_map(cat.initial()) if j is None
                             else pairs[j](u, v, b.at(at_b0[idx])))
    l = DeltaMorphism._on(l_leg, l_components)
    return PullbackResult(a, InterleavingCert(k, l), proj)


# -- discretization and rescaling -------------------------------------------


def _positions(grid: Grid, values: list) -> dict:
    """value (an int or a Fraction) -> index in grid (m = 1) of the largest
    point <= value (None when below the grid, as in ``eval_index``), by one
    bisect of the axis's scaled integers per distinct value: a point p/d of
    an axis over d is <= v exactly when p <= floor(v * d)."""
    d, ints = grid._scaled[0]
    distinct = set(values)
    return {v: None if i < 0 else (i,) for v, i in zip(
        distinct, _below(ints, [v.numerator * d // v.denominator for v in distinct]))}


def _sample(x: PersistentObject, fn, lo: int, hi: int) -> PersistentObject:
    """The Z-indexed object n -> X(fn(n)) on the window [lo, hi], for a
    monotone fn: Z -> Z, with the structure maps of X between samples."""
    samples = [fn(n) for n in range(lo, hi + 1)]
    if any(a > b for a, b in zip(samples, samples[1:])):
        raise OrderError("sampling needs a monotone reindexing")
    at = _positions(x.grid, samples)
    values = [x.at(at[v]) for v in samples]
    maps = [x.map_between(at[v], at[w]) for v, w in zip(samples, samples[1:])]
    return _integer_of(x.category_name, values, maps, lo)


def _structure_morphism(x: PersistentObject, source: PersistentObject,
                        target: PersistentObject, shift: Grade, start, end,
                        first: Optional[DeltaMorphism] = None) -> DeltaMorphism:
    """The morphism source ->_shift target (m = 1) whose component at each
    value v of its merged grid is the structure map of x from start(v) to
    end(v), the map out of the initial object when start(v) is below x's
    grid; after first's component at v when first is given."""
    leg = _Leg(source, target, shift)
    d, ints = leg.grid._scaled[0]
    values = ints if d == 1 else leg.grid.axes[0]  # an integral axis as plain ints
    starts, ends = [start(v) for v in values], [end(v) for v in values]
    if any(a > b for a, b in zip(starts, ends)):
        raise OrderError("structure map needs start <= end at every value")
    at = _positions(x.grid, starts + ends)
    maps = [x.map_between(at[a], at[b]) for a, b in zip(starts, ends)]
    if first is not None:
        at_first = _positions(first.grid, values)
        maps = [x.category.compose(push, first.at(at_first[v]))
                for push, v in zip(maps, values)]
    return DeltaMorphism._on(leg, {(k,): f for k, f in enumerate(maps)})


# the most integers restrict_to_Z samples, and the most integers of a
# rectify block window times its block size: both windows follow the values
# of the axis ends and of m, not the size of the input
MAX_WINDOW = 100_000


# the most GF(2) matrix entries a command writes, summed over the maps of
# its document: an F2Vec object states each dimension in a few bytes, and a
# map between spaces of dimensions a and b has a * b entries
MAX_ENTRIES = 1_000_000


def require_entries(count: int, what: str) -> None:
    """Refuse count matrix entries above MAX_ENTRIES; what, as in "the
    induced maps would hold", begins the message."""
    if count > MAX_ENTRIES:
        raise BudgetExceededError(
            f"{what} {count} matrix entries, more than the limit of {MAX_ENTRIES}")


def _window(x: PersistentObject) -> tuple[int, int]:
    """The integer window [lo, hi] that restrict_to_Z samples; more than
    MAX_WINDOW integers are refused."""
    if x.m != 1:
        raise DimensionError("restrict_to_Z needs m = 1")
    axis = x.grid.axes[0]
    lo, hi = floor_int(axis[0]), floor_int(axis[-1]) + 1
    if hi - lo + 1 > MAX_WINDOW:
        raise BudgetExceededError(
            f"restrict_to_Z window [{lo}, {hi}] holds {hi - lo + 1} integers, "
            f"more than the limit of {MAX_WINDOW}")
    return lo, hi


def restrict_to_Z(x: PersistentObject) -> PersistentObject:
    """Sample a 1-parameter object at the integers of a window covering its
    grid; a window of more than MAX_WINDOW integers is refused before any
    sample is taken."""
    return _sample(x, lambda n: n, *_window(x))


def extend_floor(a: PersistentObject) -> PersistentObject:
    """i_*(A): precompose a Z-indexed object with the floor map. With the
    piecewise-constant semantics this is the same grid data, viewed over R."""
    if not a.integer_indexed:
        raise ValidationError("extend_floor expects an integer-indexed object")
    return PersistentObject._of(a.grid, a.category_name, a.objects, a.edge_maps)


def _roundtrip_entries(x: PersistentObject) -> int:
    """A bound on the matrix entries of floor_roundtrip_cert(x), for an
    F2Vec object x, from its dimensions and its integer window alone: the
    entries of x's edge maps, and d^2 for each other map, d the largest
    dimension of x. Those maps are A's edges, one fewer than the window's
    integers, and the components of f and g, each at most one per value of
    x's grid and one per integer of the window."""
    lo, hi = _window(x)
    d = max(x.objects.values())
    maps = (hi - lo) + 2 * (len(x.grid.axes[0]) + hi - lo + 1)
    return sum(f.nrows * f.ncols for f in x.edge_maps.values()) + d * d * maps


def floor_roundtrip_cert(x: PersistentObject) -> InterleavingCert:
    """The 1-interleaving between X and the floor-extension of its integer
    restriction. For an F2Vec object whose certificate could hold more than
    MAX_ENTRIES matrix entries (``_roundtrip_entries``), it is refused
    before any map is built."""
    if x.category_name == "F2Vec":
        require_entries(_roundtrip_entries(x), "the floor round-trip certificate could hold")
    a = extend_floor(restrict_to_Z(x))
    one = Grade([1])
    f = _structure_morphism(x, x, a, one, lambda v: v, lambda v: floor_int(v + 1))
    g = _structure_morphism(x, a, x, one, floor_int, lambda v: v + 1)
    return InterleavingCert(f, g)


def rescale(x: PersistentObject, c) -> PersistentObject:
    """(M_c)^*(X) with M_c(r) = c * r: every grid axis is divided by c."""
    c = rat(c)
    if c <= 0:
        raise InvalidScaleError("rescale factor must be positive")
    grid = Grid._of(tuple(_scale([v / c for v in axis]) for axis in x.grid.axes))
    return PersistentObject._of(grid, x.category_name, x.objects, x.edge_maps)


def rescale_morphism(f: DeltaMorphism, c) -> DeltaMorphism:
    """The morphism between the rescaled objects, with every shift
    coordinate divided by c; dividing every axis by c keeps the merged
    grid's indices, so the components carry over."""
    c = rat(c)
    src = rescale(f.source, c)
    tgt = rescale(f.target, c)
    return DeltaMorphism._on(_Leg(src, tgt, scale(f.shift, 1 / c)), f.components)


def rescale_cert(cert: InterleavingCert, c) -> InterleavingCert:
    return InterleavingCert(rescale_morphism(cert.f, c), rescale_morphism(cert.g, c))
