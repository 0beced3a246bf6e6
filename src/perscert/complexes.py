"""Filtered simplicial complexes with R^m entrance grades, the filtered /
cofibrant characterization, and the example filtrations: Vietoris-Rips,
function-Rips bifiltrations, degree-Rips, and the two-parameter square
gadget. A commuting square of complexes is a persistent complex on the grid
{0,1}^2 (``SQUARE_GRID``), which the gadget takes, so the square is
validated as every persistent object is.

A total order on the vertices is fixed by each complex, so a complex here
stands in for the simplicial set it generates; degenerate simplices carry no
extra grade data.

Exact values become grid indices in one place, ``persist.Grid.placing``. A
metric places its dissimilarities on a one-axis grid, and the Rips builders
grade by their indices; a complex places its grades on the grid of their
distinct coordinates, which ``to_persistent`` filters over, and
``validate`` and the filtration order of ``invariants.filtration_barcode``
compare their indices. Indices compare as the ``Fraction`` values they
stand for, so every grade is as exact as before.

The persistence module's validation rule holds here too: ``FilteredComplex``
normalizes the simplices it receives, while builders whose simplices are
already sorted tuples (the Rips builders, the decoder) build with
``FilteredComplex._of``, as they build persistent objects with
``PersistentObject._of``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple, Optional

from .categories import COMPLEX, _is_inclusion, complex_vertices, simplex, total_order
from .errors import BudgetExceededError, CategoryError, Frozen, SchemaError, ValidationError
from .grades import Grade, rat
from .persist import Grid, PersistentObject


class _Placement(NamedTuple):
    """Exact values placed by ``Grid.placing``."""

    grid: Grid  # the grid of the distinct values
    at: object  # where each value sits on it: a dict or matrix of grid indices


class ValidationReport(NamedTuple):
    valid: bool
    reason: str = ""
    offender: Optional[tuple] = None


class FilteredComplex(Frozen):
    """Simplices with entrance grades; faces enter no later than cofaces.
    ``grade`` maps each simplex to its Grade.

    ``m`` is the arity of the grades. When not given it is read off a grade,
    and a complex without grades has m = 1; a complex with no simplices
    keeps the arity it is given."""

    _fields = ("vertices", "simplices", "grade", "m")

    def __init__(self, vertices, simplices, grade, m: Optional[int] = None):
        self._place(tuple(vertices), frozenset(simplex(s) for s in simplices),
                    {simplex(s): g for s, g in grade.items()}, m)

    @classmethod
    def _of(cls, vertices: tuple, simplices: frozenset, grade: dict,
            m: Optional[int] = None) -> "FilteredComplex":
        """The complex of simplices already normalized by ``simplex``, as
        ``grade`` holds them, which it keeps without copying."""
        f = cls.__new__(cls)
        f._place(vertices, simplices, grade, m)
        return f

    def _place(self, vertices: tuple, simplices: frozenset, grade: dict,
               m: Optional[int]) -> None:
        if m is None:
            some = next(iter(grade.values()), None)
            m = some.m if some is not None else 1
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "simplices", simplices)
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "m", m)

    @functools.cached_property
    def _placement(self) -> _Placement:
        """For grades of one arity: the grid of the distinct coordinates of
        the grades on each axis, and each graded simplex -> the index of its
        grade on that grid. Each distinct grade object is placed once."""
        grades = list({id(g): g for g in self.grade.values()}.values())
        arity = grades[0].m if grades else self.m
        grid, rows = Grid.placing([[g.coords[a] for g in grades] for a in range(arity)])
        by_id = dict(zip(map(id, grades), rows))
        return _Placement(grid, {s: by_id[id(g)] for s, g in self.grade.items()})

    def dimension(self) -> int:
        """Max simplex dimension; -1 for the empty complex by convention."""
        if not self.simplices:
            return -1
        return max(len(s) for s in self.simplices) - 1


def validate(f: FilteredComplex) -> ValidationReport:
    """Grades of arity m, face closure, and monotonicity of the entrance
    grades. Arity comes first, since grades of different arity do not
    compare. Grades compare by grid index (``FilteredComplex._placement``)."""
    arities = {len(g.coords) for g in f.grade.values()}
    if arities and arities != {f.m}:
        graded = total_order(f.grade)
        first = f.grade[graded[0]].m
        for sigma in graded:
            if f.grade[sigma].m != first:
                return ValidationReport(
                    False, f"grades of mixed arity: {first} for "
                    f"{graded[0]!r}, {f.grade[sigma].m} for {sigma!r}", sigma
                )
        return ValidationReport(
            False, f"grades of arity {first}, but the complex has m = {f.m}", graded[0]
        )
    # every grade now has arity m, so faces compare coordinate by coordinate
    at = f._placement.at
    vertices = set(f.vertices)
    for sigma in total_order(f.simplices):
        for v in sigma:
            if v not in vertices:
                return ValidationReport(False, f"unknown vertex {v!r}", sigma)
        if sigma not in at:
            return ValidationReport(False, "simplex missing a grade", sigma)
        coords = at[sigma]
        for i in range(len(sigma)):
            face = sigma[:i] + sigma[i + 1:]
            if not face:
                continue
            if face not in f.simplices:
                return ValidationReport(False, f"face {face!r} missing", sigma)
            if face not in at:
                return ValidationReport(False, "simplex missing a grade", face)
            if not all(map(operator.le, at[face], coords)):
                return ValidationReport(
                    False, f"grade of face {face!r} exceeds grade of {sigma!r}", sigma
                )
    return ValidationReport(True, "valid filtered complex")


def require_valid(f: FilteredComplex) -> None:
    """Raise ``validate``'s reason as a ValidationError unless f is valid.
    Face closure and monotone grades make every sublevel set a closed
    subcomplex, so this is all a sublevel filtration of f needs."""
    report = validate(f)
    if not report.valid:
        raise ValidationError(report.reason)


def to_persistent(f: FilteredComplex) -> PersistentObject:
    """Sublevel filtration: at r, the subcomplex of simplices with grade <= r;
    all structure maps are inclusions. A complex with no simplices gives the
    empty complex on a one-point grid of its arity."""
    require_valid(f)
    m = f.m
    if not f.simplices:
        return _inclusions(Grid([[0]] * m), {(0,) * m: frozenset()})
    # the grid holds every grade, so a simplex is born at its grade's index
    grid, at = f._placement
    born: dict[tuple, list] = {}
    for s in f.simplices:
        born.setdefault(at[s], []).append(s)
    return _inclusions(grid, _grow(grid, born))


def _grow(grid: Grid, born: dict) -> dict:
    """The subcomplexes of a filtration on its grid: at each index, the
    simplices born there and everything present one step below on some
    axis. Indices run in lexicographic order, so those steps come first."""
    objects = {}
    for idx in grid.indices():
        below = [objects[idx[:a] + (i - 1,) + idx[a + 1:]] for a, i in enumerate(idx) if i]
        new = born.get(idx, ())
        if len(below) == 1 and not new:
            objects[idx] = below[0]
        else:
            objects[idx] = frozenset(new).union(*below)
    return objects


def _inclusions(grid: Grid, objects: dict) -> PersistentObject:
    """The persistent complex with these subcomplexes at the grid points,
    whose structure maps are the inclusions (one identity map per distinct
    subcomplex)."""
    identities: dict[frozenset, dict] = {}
    edges = {}
    for idx, a, _ in grid.edges():
        obj = objects[idx]
        if obj not in identities:
            identities[obj] = COMPLEX.identity(obj)
        edges[(idx, a)] = identities[obj]
    return PersistentObject._of(grid, "Complex", objects, edges)


class FilteredCheck(NamedTuple):
    filtered: bool
    witness: Optional[dict] = None  # simplex (in the top complex) -> Grade
    condition: Optional[int] = None
    offender: Optional[tuple] = None
    reason: str = ""


def is_filtered(p: PersistentObject) -> FilteredCheck:
    """Decides the two-condition characterization: all structure maps are
    monomorphisms, and every simplex's appearance set has a minimum grade.

    On success the witness entrance grades are returned; they are read off at
    the top corner of the grid."""
    if p.category_name != "Complex":
        raise CategoryError("is_filtered expects a persistent complex")
    cat = COMPLEX
    inclusions = all(map(_is_inclusion, p.edge_maps.values()))
    # condition 1: injectivity of every edge map on simplices, which holds
    # for inclusions
    if not inclusions:
        for idx, a, _ in p.grid.edges():
            f = p.edge_maps[(idx, a)]
            if not cat.is_injective(f, p.objects[idx]):
                return FilteredCheck(
                    False, condition=1, offender=idx,
                    reason=f"structure map at {idx} along axis {a} is not a monomorphism",
                )
    # condition 2: identify each simplex with its image at the top corner and
    # ask whether its appearance set has a coordinatewise minimum grid point
    if inclusions:
        images = p.objects  # every map to the top corner fixes its vertices
    else:
        top = tuple(s - 1 for s in p.grid.shape())
        images = {}
        for idx in p.grid.indices():
            # in the order first met, which decides the offender reported
            to_top = p.map_between(idx, top)
            images[idx] = tuple(dict.fromkeys(
                cat.apply_simplex(to_top, s) for s in p.objects[idx]
            ))
    # the least corner of the indices holding each distinct image, in grid order
    corners: dict = {}
    for idx in p.grid.indices():
        low = corners.get(images[idx])
        corners[images[idx]] = idx if low is None else tuple(map(min, low, idx))
    # the least corner of each appearance set, which is its minimum if it
    # belongs to the set. On each axis, a simplex's coordinate is the least
    # of the corners of the images holding it: the images are met from the
    # greatest coordinate down, and each sets the coordinate of all it holds
    met = dict.fromkeys(itertools.chain.from_iterable(corners))  # first met first
    least = []
    for a in range(p.grid.m):
        on_axis: dict = {}
        for image in sorted(corners, key=lambda image: corners[image][a], reverse=True):
            on_axis.update(dict.fromkeys(image, corners[image][a]))
        least.append(map(on_axis.__getitem__, met))
    lows = dict(zip(met, zip(*least)))
    witness = {}
    for tau, low in lows.items():
        if tau not in images[low]:
            return FilteredCheck(
                False, condition=2, offender=tau,
                reason=f"appearance set of {tau!r} has no minimum",
            )
        witness[tau] = p.grid.grade_at(low)
    return FilteredCheck(True, witness=witness)


# -- skeleta ------------------------------------------------------------------


def skeleton(f: FilteredComplex, n: int) -> FilteredComplex:
    if n < 0:
        raise ValidationError("skeleton truncation needs n >= 0")
    keep = {s for s in f.simplices if len(s) <= n + 1}
    return FilteredComplex(f.vertices, keep, {s: f.grade[s] for s in keep}, f.m)


# -- metric inputs and the example filtrations -------------------------------


class MetricInput(Frozen):
    """A finite symmetric nonnegative rational dissimilarity matrix; the
    triangle inequality is deliberately not required. ``dist`` is a tuple
    of tuples of Fractions, and ``values`` an optional vertex function."""

    _fields = ("points", "dist", "values")

    def __init__(self, points, dist, values=None):
        points = tuple(points)
        dist = tuple(tuple(rat(x) for x in row) for row in dist)
        n = len(points)
        if len(set(points)) != n:
            raise SchemaError("metric points must be distinct")
        if len(dist) != n or any(len(row) != n for row in dist):
            raise SchemaError("dissimilarity matrix shape does not match points")
        for i in range(n):
            if dist[i][i] != 0:
                raise SchemaError("dissimilarity matrix must have zero diagonal")
            for j in range(n):
                if dist[i][j] != dist[j][i]:
                    raise SchemaError("dissimilarity matrix must be symmetric")
                if dist[i][j] < 0:
                    raise SchemaError("dissimilarities must be nonnegative")
        if values is not None:
            values = tuple(rat(v) for v in values)
            if len(values) != n:
                raise SchemaError("vertex function length does not match points")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.points)

    @functools.cached_property
    def _placement(self) -> _Placement:
        """The one-axis grid of the distinct dissimilarities (the scales, the
        first of them 0), and the matrix of their indices on it: dist[i][j]
        is scales[at[i][j]], and indices compare as the dissimilarities do."""
        n = self.n
        grid, rows = Grid.placing([[d for row in self.dist for d in row]])
        flat = [k for (k,) in rows]
        return _Placement(grid, tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n)))


def metric_from_coordinates(coords, norm: str = "linf") -> MetricInput:
    """L1 or Linf distances from rational coordinates (Euclidean would be
    irrational, so it is excluded)."""
    if norm not in ("l1", "linf"):
        raise ValidationError(f"unknown norm {norm!r}: expected 'l1' or 'linf'")
    coords = [tuple(rat(c) for c in pt) for pt in coords]
    n = len(coords)
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            diffs = [abs(a - b) for a, b in zip(coords[i], coords[j])]
            d = sum(diffs) if norm == "l1" else max(diffs)
            dist[i][j] = dist[j][i] = d
    return MetricInput(range(n), dist)


# The most simplices a Rips builder makes, and the most grid points of a
# degree-Rips object: both are counted before anything is built.
MAX_SIMPLICES = 100_000


def _require_within(count: int, what: str, unit: str) -> None:
    if count > MAX_SIMPLICES:
        raise BudgetExceededError(
            f"{what} has {count} {unit}, more than the limit of {MAX_SIMPLICES}")


def _rips(metric: MetricInput, d_max: int) -> list[tuple[tuple, tuple, int]]:
    """(simplex, positions in metric.points, scale index of its diameter) for
    each vertex subset of size 1 to d_max + 1, by size and then in the order
    of ``itertools.combinations``. A subset's diameter index is that of the
    subset without its last point or of a pair with that point, whichever is
    larger. More than MAX_SIMPLICES subsets are refused before any is
    built."""
    if d_max < 0:
        raise ValidationError("d_max must be >= 0")
    points, at = metric.points, metric._placement.at
    n = len(points)
    _require_within(sum(math.comb(n, k + 1) for k in range(min(d_max, n - 1) + 1)),
                    f"a Rips complex of {n} points up to dimension {d_max}", "simplices")
    diameter = layer = {(i,): 0 for i in range(n)}
    for _ in range(min(d_max, n - 1)):
        layer = {ids + (j,): max(r, *map(at[j].__getitem__, ids))
                 for ids, r in layer.items() for j in range(ids[-1] + 1, n)}
        diameter = {**diameter, **layer}
    return [(simplex(map(points.__getitem__, ids)), ids, r) for ids, r in diameter.items()]


def vietoris_rips(metric: MetricInput, d_max: int) -> FilteredComplex:
    """Simplices are the vertex subsets of size <= d_max + 1, graded by
    diameter; the simplices of one diameter share one grade."""
    simplices = _rips(metric, d_max)
    grades = [Grade([r]) for r in metric._placement.grid.axes[0]]
    grade = {s: grades[r] for s, _, r in simplices}
    return FilteredComplex._of(metric.points, frozenset(grade), grade, 1)


def function_rips(metric: MetricInput, d_max: int) -> FilteredComplex:
    """Bifiltration graded by (diameter, max vertex value)."""
    if metric.values is None:
        raise SchemaError("function_rips needs vertex function values")
    vals = dict(zip(metric.points, metric.values))
    base = vietoris_rips(metric, d_max)
    grade = {
        s: Grade([base.grade[s].coords[0], max(vals[v] for v in s)])
        for s in base.simplices
    }
    return FilteredComplex._of(metric.points, base.simplices, grade, 2)


def degree_rips(metric: MetricInput, d_max: int) -> PersistentObject:
    """Two-parameter degree-Rips. At (r, t) with t = -k, take the scale-r
    Rips complex restricted to vertices of r-neighborhood degree >= k. The
    second axis is negated so both axes increase; the output is generally
    monic but not filtered. Scales are read by grid index, so the degree
    table counts indices."""
    simplices = _rips(metric, d_max)
    n = metric.n
    if n == 0:
        return _inclusions(Grid([[0], [0]]), {(0, 0): frozenset()})
    scales, at = metric._placement.grid.axes[0], metric._placement.at
    _require_within(len(scales) * n,
                    f"a degree-Rips grid of {len(scales)} scales by {n} degrees", "points")
    grid = Grid([scales, range(1 - n, 1)])
    # degree[i][r]: the number of other points within scales[r] of point i,
    # the running total of the points at each index (the point itself at 0)
    degree = []
    for row in at:
        count = [0] * len(scales)
        for r in row:
            count[r] += 1
        count[0] -= 1
        degree.append(list(itertools.accumulate(count)))
    # a simplex is present at (r, t) from its diameter's scale on, once t
    # reaches n - 1 minus its least vertex degree; it is born at its
    # diameter's scale and at each later scale where that degree rises
    born: dict[tuple, list] = {}
    for s, ids, diameter in simplices:
        lows = list(map(min, zip(*[degree[i] for i in ids])))
        rises = itertools.compress(range(diameter + 1, len(scales)),
                                   map(operator.ne, lows[diameter + 1:], lows[diameter:]))
        for r in itertools.chain((diameter,), rises):
            born.setdefault((r, n - 1 - lows[r]), []).append(s)
    return _inclusions(grid, _grow(grid, born))


# -- the two-parameter square gadget ----------------------------------------


POINT_VERTEX = "*"
POINT_COMPLEX = frozenset({(POINT_VERTEX,)})
SQUARE_GRID = Grid([[0, 1], [0, 1]])


def sq_gadget(square: PersistentObject) -> PersistentObject:
    """Embed a commuting square of complexes, a persistent complex on the
    grid {0,1}^2, into a two-parameter persistent complex: empty on negative
    coordinates, the square on [0,2)^2 via floors, and a single point once
    some coordinate reaches 2. The grid has the points -1, ..., 3 on each
    axis, so index i is the point i - 1."""
    if square.category_name != "Complex" or square.grid != SQUARE_GRID:
        raise ValidationError("sq_gadget expects a persistent complex on the grid {0,1}^2")
    grid = Grid([range(-1, 4)] * 2)

    def value(i, j):
        if not (i and j):
            return COMPLEX.initial()
        if i < 3 and j < 3:
            return square.objects[(i - 1, j - 1)]
        return POINT_COMPLEX

    objects = {idx: value(*idx) for idx in grid.indices()}
    edges = {}
    for idx, a, nxt in grid.edges():
        if not all(idx):  # out of the empty complex
            edges[(idx, a)] = {}
        elif max(nxt) < 3:  # inside the square
            edges[(idx, a)] = square.edge_maps[((idx[0] - 1, idx[1] - 1), a)]
        else:  # onto the point
            edges[(idx, a)] = {v: POINT_VERTEX for v in complex_vertices(objects[idx])}
    return PersistentObject._of(grid, "Complex", objects, edges)
