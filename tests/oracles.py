"""Slow reference implementations that the library is tested against. They
live here, outside the package, so that an oracle shares as little code as
possible with what it checks:

- ``bfs_component_count``: components of a complex by breadth-first search,
  against union-find ``pi0``;
- ``index_by_floor_bisect``: the grid index of a grade by one bisect per
  coordinate, against ``Grid.locate`` and ``Grid.eval_index``;
- ``barcode_by_ranks``: bars by rank inclusion-exclusion, against the
  elder-rule ``barcode``;
- ``half_length``, ``match_cost`` and ``matching_cost``: the cost of a
  bottleneck matching, from the bars' endpoints;
- ``bottleneck_by_scan`` and ``bottleneck_bruteforce``: d_B by testing every
  threshold from 0 upward, and by enumerating every partial bijection;
- ``encode_metric``: the wire form of a metric input, for round trips and
  documents fed to the CLI;
- ``rips_by_diameters``, ``degree_rips_by_fractions``,
  ``validate_by_fractions`` and ``filtration_order_by_fractions``: the Rips
  builders, ``validate`` and the filtration order of ``filtration_barcode``
  comparing ``Fraction`` values at every step, against the library's grid
  indices;
- ``check_interleaving_by_composites``: both triangle identities composed
  point by point on the grid of each side's structure-map shift, each leg
  evaluated at a grade, against the library's one triangle table;
- ``encode_object_by_occurrence``, ``encode_cert_by_occurrence`` and
  ``encode_zigzag_by_occurrence``: documents with each map, persistent
  object and axis value encoded where it occurs, sharing only within one
  object, against the library's one value table per document;
- ``decode_cat_map_by_entries``, ``decode_object_by_keys``,
  ``decode_cert_by_values``, ``check_complex_by_simplices`` and
  ``audit_squares_by_composition``: documents read entry by entry, every key
  and "at" coordinate parsed, every object list and map decoded on its own,
  every simplex of every object checked in full and every square composed,
  against the library's grid tables, flat reads, shared decoded values,
  shared simplex checks and inclusion squares.
"""

import bisect
import itertools
import operator
from collections import deque
from fractions import Fraction
from typing import Optional

from perscert.categories import ComplexCategory, get_category, simplex, total_order
from perscert.complexes import FilteredComplex, ValidationReport, _grow, _inclusions
from perscert.distances import INFINITY, Matching
from perscert.errors import CategoryError, SchemaError, ValidationError
from perscert.gf2 import GF2Matrix
from perscert.grades import Grade
from perscert.invariants import Bar, Barcode
from perscert.persist import (DeltaMorphism, Grid, InterleavingCert, InterleavingReport,
                              PersistentObject, _Leg, identity_shift)
from perscert.serialize import (FORMAT_CERT, FORMAT_METRIC, FORMAT_OBJECT, FORMAT_ZIGZAG,
                                decode_cat_object, decode_edge_key, decode_element,
                                decode_grade, decode_index, decode_rational, encode_cat_map,
                                encode_cat_object, encode_element, encode_grade,
                                encode_rational)


def bfs_component_count(k: frozenset) -> int:
    """Components of a complex by breadth-first search over its 1-skeleton."""
    verts = {v for sigma in k for v in sigma}
    adjacency = {v: set() for v in verts}
    for sigma in k:
        for a in sigma:
            for b in sigma:
                if a != b:
                    adjacency[a].add(b)
    seen = set()
    count = 0
    for v in verts:
        if v in seen:
            continue
        count += 1
        queue = deque([v])
        seen.add(v)
        while queue:
            u = queue.popleft()
            for w in adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return count


def index_by_floor_bisect(grid: Grid, r: Grade) -> Optional[tuple[int, ...]]:
    """The index of the largest point of grid <= r, None when some
    coordinate of r falls below its axis: on each axis of integers v over d,
    v / d <= c exactly when v <= floor(c * d), which one bisect finds."""
    idx = []
    for (d, ints), c in zip(grid._scaled, r.coords):
        i = bisect.bisect_right(ints, c.numerator * d // c.denominator) - 1
        if i < 0:
            return None
        idx.append(i)
    return tuple(idx)


def encode_metric(mi) -> dict:
    """A ``MetricInput`` as a ``perscert/metric/1`` document."""
    out = {
        "format": FORMAT_METRIC,
        "points": [encode_element(p) for p in mi.points],
        "matrix": [[encode_rational(x) for x in row] for row in mi.dist],
    }
    if mi.values is not None:
        out["values"] = [encode_rational(v) for v in mi.values]
    return out


def diameter(metric, subset: tuple) -> Fraction:
    """The largest dissimilarity between two points of subset, 0 for one
    point."""
    idx = [metric.points.index(v) for v in subset]
    if len(idx) == 1:
        return Fraction(0)
    return max(metric.dist[i][j] for i, j in itertools.combinations(idx, 2))


def rips_by_diameters(metric, d_max: int) -> FilteredComplex:
    """The Vietoris-Rips complex with each simplex graded by its diameter,
    found among the Fractions of the matrix."""
    simplices = {}
    for k in range(1, min(d_max + 2, metric.n + 1)):
        for subset in itertools.combinations(metric.points, k):
            simplices[simplex(subset)] = Grade([diameter(metric, subset)])
    return FilteredComplex(metric.points, simplices.keys(), simplices)


def degree_rips_by_fractions(metric, d_max: int):
    """Degree-Rips with a degree table that compares every dissimilarity
    with every scale as Fractions, and births found scale by scale. It
    shares only the growth of the subcomplexes (``_grow``, ``_inclusions``)
    with the library."""
    base = rips_by_diameters(metric, d_max)
    n = metric.n
    if n == 0:
        return _inclusions(Grid([[0], [0]]), {(0, 0): frozenset()})
    dist = metric.dist
    scales = sorted({d for row in dist for d in row})
    grid = Grid([scales, [-k for k in range(n - 1, -1, -1)]])
    degree = [
        [sum(1 for j in range(n) if j != i and dist[i][j] <= r) for i in range(n)]
        for r in scales
    ]
    scale_index = {r: i for i, r in enumerate(scales)}
    position = {v: i for i, v in enumerate(metric.points)}
    born = {}
    for s in base.simplices:
        ids = [position[v] for v in s]
        least = n
        for r in range(scale_index[base.grade[s].coords[0]], len(scales)):
            t = n - 1 - min(degree[r][i] for i in ids)
            if t < least:
                born.setdefault((r, t), []).append(s)
                least = t
    return _inclusions(grid, _grow(grid, born))


def validate_by_fractions(f: FilteredComplex) -> ValidationReport:
    """``validate`` with the grades of a face and its coface compared as
    Fractions, coordinate by coordinate."""
    graded = total_order(f.grade)
    for sigma in graded:
        if f.grade[sigma].m != f.grade[graded[0]].m:
            return ValidationReport(
                False, f"grades of mixed arity: {f.grade[graded[0]].m} for "
                f"{graded[0]!r}, {f.grade[sigma].m} for {sigma!r}", sigma
            )
    if graded and f.grade[graded[0]].m != f.m:
        return ValidationReport(
            False, f"grades of arity {f.grade[graded[0]].m}, but the complex has m = {f.m}",
            graded[0]
        )
    vertices = set(f.vertices)
    for sigma in total_order(f.simplices):
        for v in sigma:
            if v not in vertices:
                return ValidationReport(False, f"unknown vertex {v!r}", sigma)
        if sigma not in f.grade:
            return ValidationReport(False, "simplex missing a grade", sigma)
        coords = f.grade[sigma].coords
        for i in range(len(sigma)):
            face = sigma[:i] + sigma[i + 1:]
            if not face:
                continue
            if face not in f.simplices:
                return ValidationReport(False, f"face {face!r} missing", sigma)
            if face not in f.grade:
                return ValidationReport(False, "simplex missing a grade", face)
            if not all(map(operator.le, f.grade[face].coords, coords)):
                return ValidationReport(
                    False, f"grade of face {face!r} exceeds grade of {sigma!r}", sigma
                )
    return ValidationReport(True, "valid filtered complex")


def _require(cond, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def decode_cat_map_by_entries(category: str, data):
    """A map read entry by entry: each matrix entry tested on its own, each
    key and value of a set or complex map through ``decode_element``."""
    if category == "F2Vec":
        _require(isinstance(data, dict) and "rows" in data and "shape" in data,
                 f"bad matrix {data!r}")
        shape, rows = data["shape"], data["rows"]
        _require(isinstance(shape, list) and len(shape) == 2
                 and all(_is_int(n) and n >= 0 for n in shape),
                 f"bad matrix shape {shape!r}: expected two non-negative ints")
        nr, nc = shape
        _require(isinstance(rows, list) and len(rows) == nr
                 and all(isinstance(r, list) and len(r) == nc for r in rows),
                 f"matrix rows do not match shape {shape!r}")
        _require(all(_is_int(x) and x in (0, 1) for r in rows for x in r),
                 "matrix entries must be 0 or 1")
        return GF2Matrix(rows, nr, nc)
    _require(isinstance(data, list), f"bad map {data!r}")
    out = {}
    for entry in data:
        _require(isinstance(entry, list) and len(entry) == 2, f"bad map entry {entry!r}")
        key = decode_element(entry[0])
        if key in out:
            raise SchemaError(f"map lists {entry[0]!r} twice")
        out[key] = decode_element(entry[1])
    return out


def check_complex_by_simplices(obj) -> None:
    """``ComplexCategory.check_object`` with every simplex sorted and each of
    its faces looked up in turn."""
    if not isinstance(obj, frozenset):
        raise CategoryError("Complex object must be a frozenset of simplices")
    for sigma in obj:
        if not isinstance(sigma, tuple) or not sigma:
            raise CategoryError(f"bad simplex {sigma!r}")
        if sigma != tuple(total_order(set(sigma))):
            raise CategoryError(f"simplex {sigma!r} is not sorted and duplicate-free")
        for i in range(len(sigma)):
            face = sigma[:i] + sigma[i + 1:]
            if face and face not in obj:
                raise CategoryError(f"face {face!r} of {sigma!r} missing: not closed")


class _ComplexBySimplices(ComplexCategory):
    """The complex category whose object check shares nothing between
    objects."""

    def check_object(self, obj, faces=None):
        check_complex_by_simplices(obj)


def audit_squares_by_composition(x: PersistentObject) -> None:
    """``PersistentObject._audit_squares`` composing both paths around every
    unit square, inclusions or not."""
    cat = x.category
    for idx, steps in itertools.groupby(x.grid.edges(), key=lambda e: e[0]):
        for (_, a, idx_a), (_, b, idx_b) in itertools.combinations(steps, 2):
            via_a = cat.compose(x.edge_maps[(idx_a, b)], x.edge_maps[(idx, a)])
            via_b = cat.compose(x.edge_maps[(idx_b, a)], x.edge_maps[(idx, b)])
            if via_a != via_b:
                raise ValidationError(f"non-commuting square at {idx}, axes ({a},{b})")


def decode_object_by_keys(data: dict) -> PersistentObject:
    """``decode_object`` with every object and edge key parsed by its
    pattern, every object list decoded on its own (no two places share a
    value), every map read by ``decode_cat_map_by_entries``, and the
    object validated with every simplex of every distinct complex checked
    in full."""
    _require(isinstance(data, dict), "persistent object must be a JSON object")
    _require(data.get("format") == FORMAT_OBJECT, f"unexpected format {data.get('format')!r}")
    category = data.get("category")
    _require(category in ("FinSet", "F2Vec", "Complex"), f"bad category {category!r}")
    axes = data.get("axes")
    _require(isinstance(axes, list) and axes, "missing axes")
    _require(all(isinstance(axis, list) for axis in axes), "each axis must be a JSON array")
    m = data.get("m", len(axes))
    _require(_is_int(m) and m == len(axes), f"'m' is {m!r}, but the object has {len(axes)} axes")
    grid = Grid([[decode_rational(v) for v in axis] for axis in axes])
    objects, edges = data.get("objects", {}), data.get("edge_maps", {})
    _require(isinstance(objects, dict), "'objects' must be a JSON object")
    objects = {decode_index(key): decode_cat_object(category, obj)
               for key, obj in objects.items()}
    _require(isinstance(edges, dict), "'edge_maps' must be a JSON object")
    edges = {decode_edge_key(key): decode_cat_map_by_entries(category, f)
             for key, f in edges.items()}
    integer_indexed = data.get("integer_indexed", False)
    _require(isinstance(integer_indexed, bool), "'integer_indexed' must be a JSON boolean")
    x = PersistentObject._of(grid, category, objects, edges, integer_indexed)
    if category == "Complex":
        x.category = _ComplexBySimplices()
    x._validate()
    x.category = get_category(category)
    return x


def _morphism_by_values(source, target, shift_data, components_data) -> DeltaMorphism:
    """``serialize.decode_morphism`` with every "at" coordinate decoded and
    placed by its value."""
    shift = decode_grade(shift_data)
    _require(shift.m == source.m,
             f"shift {shift} has arity {shift.m}, the objects have m = {source.m}")
    _require(isinstance(components_data, list), "components must be a list")
    leg = _Leg(source, target, shift)
    positions = [{v: i for i, v in enumerate(axis)} for axis in leg.grid.axes]
    components = {}
    for entry in components_data:
        _require(isinstance(entry, dict) and "at" in entry and "map" in entry,
                 f"bad component entry {entry!r}")
        at = entry["at"]
        _require(isinstance(at, list) and at, f"bad grade {at!r}")
        coords = [decode_rational(c) for c in at]
        idx = tuple(table.get(c) for table, c in zip(positions, coords))
        if len(coords) != len(positions) or None in idx:
            raise SchemaError(f"component at {Grade(coords)} is not a point of the merged grid")
        if idx in components:
            raise SchemaError(f"component at {Grade(coords)} is given twice")
        components[idx] = decode_cat_map_by_entries(source.category_name, entry["map"])
    return DeltaMorphism(source, target, shift, components)


def decode_cert_by_values(data: dict) -> InterleavingCert:
    """``decode_cert`` of a certificate with embedded objects, read by
    ``decode_object_by_keys`` and ``_morphism_by_values``."""
    _require(isinstance(data, dict), "certificate must be a JSON object")
    _require(data.get("format") == FORMAT_CERT, f"unexpected format {data.get('format')!r}")
    _require("x" in data, "certificate lacks embedded objects")
    x = decode_object_by_keys(data["x"])
    _require("y" in data, "certificate lacks embedded objects")
    y = decode_object_by_keys(data["y"])
    for key in ("epsilon", "delta", "f_components", "g_components"):
        _require(key in data, f"certificate lacks {key!r}")
    f = _morphism_by_values(x, y, data["epsilon"], data["f_components"])
    g = _morphism_by_values(y, x, data["delta"], data["g_components"])
    return InterleavingCert(f, g)


def encode_object_by_occurrence(x: PersistentObject) -> dict:
    """``encode_object`` without a document table: each distinct object
    value, each map object several edges hold, and each element are encoded
    once for x alone."""
    encoded, seen = {}, {}
    for obj in x.objects.values():
        if obj not in encoded:
            encoded[obj] = encode_cat_object(x.category_name, obj, seen)
    maps = {}
    for f in x.edge_maps.values():
        if id(f) not in maps:
            maps[id(f)] = encode_cat_map(x.category_name, f)
    return {
        "format": FORMAT_OBJECT,
        "m": x.m,
        "category": x.category_name,
        "integer_indexed": x.integer_indexed,
        "axes": [[encode_rational(v) for v in axis] for axis in x.grid.axes],
        "objects": {
            ",".join(map(str, idx)): encoded[obj] for idx, obj in x.objects.items()
        },
        "edge_maps": {
            ",".join(map(str, idx)) + "|" + str(a): maps[id(f)]
            for (idx, a), f in x.edge_maps.items()
        },
    }


def _components_by_occurrence(f: DeltaMorphism) -> list[dict]:
    """One entry per merged-grid point, each axis value encoded once for f
    and each map where it occurs."""
    axes = [[encode_rational(v) for v in axis] for axis in f.grid.axes]
    return [
        {"at": [axis[i] for axis, i in zip(axes, idx)],
         "map": encode_cat_map(f.source.category_name, f.components[idx])}
        for idx in f.grid.indices()
    ]


def encode_cert_by_occurrence(cert: InterleavingCert, include_objects: bool = True) -> dict:
    out = {
        "format": FORMAT_CERT,
        "epsilon": encode_grade(cert.epsilon),
        "delta": encode_grade(cert.delta),
        "f_components": _components_by_occurrence(cert.f),
        "g_components": _components_by_occurrence(cert.g),
    }
    if include_objects:
        out["x"] = encode_object_by_occurrence(cert.f.source)
        out["y"] = encode_object_by_occurrence(cert.f.target)
    return out


def encode_zigzag_by_occurrence(result) -> dict:
    return {
        "format": FORMAT_ZIGZAG,
        "c": encode_object_by_occurrence(result.c),
        "even_restriction_equal": result.even_equal,
        "odd_restriction_equal": result.odd_equal,
        "pieces": {
            "a_to_even": encode_cert_by_occurrence(result.piece_a),
            "even_to_odd": encode_cert_by_occurrence(result.piece_mid),
            "odd_to_b": encode_cert_by_occurrence(result.piece_b),
        },
        "composite": encode_cert_by_occurrence(result.composite),
        "total_shifts": [encode_grade(s) for s in result.total_shifts],
    }


def check_interleaving_by_composites(cert: InterleavingCert) -> InterleavingReport:
    """``check_interleaving`` with each triangle written out on its own:
    after naturality of both legs, the structure-map shift of X (then of Y)
    at eps + delta, by ``identity_shift``, against the composite of the legs
    at each point p of its grid, each leg evaluated at the grade where it
    acts (the first at p, the second at p plus the first's shift)."""
    for name, leg in (("f", cert.f), ("g", cert.g)):
        violation = leg.check_natural()
        if violation is not None:
            p, axis = violation
            return InterleavingReport(
                False, f"{name} is not natural at {p} along axis {axis}", p, f"naturality({name})")
    total = cert.epsilon + cert.delta
    for name, path, first, second in (("X", "g^eps . f", cert.f, cert.g),
                                      ("Y", "f^delta . g", cert.g, cert.f)):
        direct = identity_shift(first.source, total)
        for idx in direct.grid.indices():
            p = direct.grid.grade_at(idx)
            via = first.category.compose(second.component_at(p + first.shift),
                                         first.component_at(p))
            if via != direct.components[idx]:
                return InterleavingReport(
                    False, f"{path} differs from the structure-map shift of {name} at {p}",
                    p, f"triangle({name})")
    return InterleavingReport(True, "valid interleaving")


def filtration_order_by_fractions(f: FilteredComplex, dim: int) -> list[tuple]:
    """The dim-simplices of f in ``total_order``, stably sorted by the first
    coordinate of their grades as Fractions."""
    return sorted(total_order([s for s in f.simplices if len(s) == dim + 1]),
                  key=lambda s: f.grade[s].coords[0])


def half_length(bar: Bar) -> Optional[Fraction]:
    """The cost of deleting a bar to the diagonal; None for an infinite bar,
    which is never deleted."""
    if bar.death is None:
        return None
    return (bar.death - bar.birth) / 2


def match_cost(a: Bar, b: Bar) -> Optional[Fraction]:
    """L-infinity endpoint distance; infinite-death bars only match each
    other, at the birth difference."""
    if (a.death is None) != (b.death is None):
        return INFINITY
    if a.death is None:
        return abs(a.birth - b.birth)
    return max(abs(a.birth - b.birth), abs(a.death - b.death))


def matching_cost(matching: Matching, b1: Barcode, b2: Barcode) -> Optional[Fraction]:
    """The largest cost over the matched pairs and the deleted bars."""
    worst = Fraction(0)
    for i, j in matching.pairs:
        c = match_cost(b1.bars[i], b2.bars[j])
        if c is INFINITY:
            return INFINITY
        worst = max(worst, c)
    for i in matching.deleted_left:
        h = half_length(b1.bars[i])
        if h is None:
            return INFINITY
        worst = max(worst, h)
    for j in matching.deleted_right:
        h = half_length(b2.bars[j])
        if h is None:
            return INFINITY
        worst = max(worst, h)
    return worst


def barcode_by_ranks(f) -> Barcode:
    """Bars of a 1-parameter GF(2) module by rank inclusion-exclusion over
    the ranks of every composite map, from grade index i to j."""
    axis = f.grid.axes[0]
    n = len(axis)
    dims = [f.objects[(i,)] for i in range(n)]
    maps = [f.edge_maps[((i,), 0)] for i in range(n - 1)]

    rank = {}
    for i in range(n):
        composite = GF2Matrix.identity(dims[i])
        rank[(i, i)] = dims[i]
        for j in range(i + 1, n):
            composite = maps[j - 1] @ composite
            rank[(i, j)] = composite.rank()

    def r(i, j):
        return 0 if i < 0 else rank[(i, j)]

    bars = []
    for i in range(n):
        # infinite bars born at axis[i]
        bars.extend(Bar(axis[i], None) for _ in range(r(i, n - 1) - r(i - 1, n - 1)))
        # finite bars born at axis[i], dying at axis[j + 1]
        for j in range(i, n - 1):
            mult = r(i, j) - r(i, j + 1) - r(i - 1, j) + r(i - 1, j + 1)
            bars.extend(Bar(axis[i], axis[j + 1]) for _ in range(mult))
    return Barcode(bars)


def matching_by_recursion(n_left, n_right, adj):
    """Kuhn's augmenting-path matching as a recursive depth-first search,
    each left node in turn trying its adjacency in order; returns
    match_left. Paths are bounded by the interpreter's recursion limit."""
    match_right = [-1] * n_right
    match_left = [-1] * n_left

    def augment(u, seen):
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                if match_right[v] == -1 or augment(match_right[v], seen):
                    match_right[v] = u
                    match_left[u] = v
                    return True
        return False

    for u in range(n_left):
        augment(u, [False] * n_right)
    return match_left


def _feasible_at(b1: Barcode, b2: Barcode, t: Fraction):
    """Perfect matching at threshold t, with one diagonal slot per bar and
    the adjacency in the library's order."""
    n1, n2 = len(b1.bars), len(b2.bars)
    adj = []
    for bar in b1.bars:
        row = [j for j, other in enumerate(b2.bars)
               if (c := match_cost(bar, other)) is not INFINITY and c <= t]
        h = half_length(bar)
        if h is not None and h <= t:
            row.extend(range(n2, n2 + n1))
        adj.append(row)
    for j, bar in enumerate(b2.bars):
        h = half_length(bar)
        row = [j] if h is not None and h <= t else []
        row.extend(range(n2, n2 + n1))
        adj.append(row)
    match_left = matching_by_recursion(n1 + n2, n2 + n1, adj)
    if -1 in match_left:
        return None
    pairs = [(i, match_left[i]) for i in range(n1) if match_left[i] < n2]
    matched_right = {j for _, j in pairs}
    return Matching(pairs, [i for i in range(n1) if match_left[i] >= n2],
                    [j for j in range(n2) if j not in matched_right])


def bottleneck_by_scan(b1: Barcode, b2: Barcode):
    """(d_B, matching) by testing every candidate threshold from 0 upward."""
    if sum(b.death is None for b in b1.bars) != sum(b.death is None for b in b2.bars):
        return INFINITY, None
    thresholds = {Fraction(0)}
    for a in b1.bars + b2.bars:
        if half_length(a) is not None:
            thresholds.add(half_length(a))
    for a in b1.bars:
        for b in b2.bars:
            if (c := match_cost(a, b)) is not INFINITY:
                thresholds.add(c)
    for t in sorted(thresholds):
        matching = _feasible_at(b1, b2, t)
        if matching is not None:
            return t, matching
    return INFINITY, None


def bottleneck_bruteforce(b1: Barcode, b2: Barcode):
    """d_B by enumerating every partial bijection. Exponential."""
    n1, n2 = len(b1.bars), len(b2.bars)
    best = INFINITY
    idx2 = list(range(n2))
    for k in range(min(n1, n2) + 1):
        for left in itertools.combinations(range(n1), k):
            for right in itertools.permutations(idx2, k):
                matching = Matching(
                    list(zip(left, right)),
                    [i for i in range(n1) if i not in left],
                    [j for j in idx2 if j not in right],
                )
                c = matching_cost(matching, b1, b2)
                if c is INFINITY:
                    continue
                if best is INFINITY or c < best:
                    best = c
    return best
