"""Lossless JSON wire formats. Rationals travel as strings like "3/2"
(denominator omitted when 1); no floats anywhere on the wire. Every top-level
document carries a "format" field.

Encoders fill one value table per document (``_Values``): each distinct map,
persistent object, grid axis, category object and element is encoded once,
and every place the document holds an equal value holds that one wire
object. A writer may therefore meet one list or dict at many places; it
must not change them.

Decoders read a document in one pass. Every wire rational ("p", "p/q" or
a JSON integer) is read by one parser, ``_ratio``, to a reduced (p, q); a
grid's axes go from there straight to the scaled integers the grid holds
(``Grid._scaled``), so a decoded grid builds no ``Fraction`` until
something reads ``Grid.axes``. The object and edge keys of a persistent
object, and the "at" coordinates of a certificate, are placed by tables of
the strings the grid itself is written with; any other string is parsed by
its pattern, so a non-canonical key still decodes and a bad one fails with
its own message. Lists of simplices and maps between vertex names are read
by one C call each when every entry is a plain name, and otherwise entry
by entry. A decoded object or morphism is built unchecked from the tables
it read, without a copy, and then validated in one pass over its grid
(``PersistentObject._validate``, ``DeltaMorphism._validate_components``).

``decode_cat_object`` and ``decode_cat_map`` are the only decoders of
category values, and one rule holds wherever they read a set or complex
object list or a vertex map. Each table keeps the last four values it
decoded from flat lists, each with its raw form: the objects of a
persistent object, its edge maps, and each of a certificate's two
component lists. A list of lists of plain names (str or int, never a bool
or float: the exact-type check runs first) that equals (``==``) a kept one
takes that one's value; nothing is hashed per value. A decoded object then
holds each run of equal subcomplexes and inclusions once, a certificate
each run of equal vertex maps, and one frozenset or dict may sit at many
places. F2Vec dimensions and matrices are decoded where they stand.
Sharing saves decoding time and memory but never a check: the checks read
values, so every edge map, component and square is checked against its own
source and target, and only an equal object value (and an equal simplex,
``ComplexCategory.check_object``) is checked once.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from collections import deque
from fractions import Fraction

from .categories import simplex
from .complexes import FilteredComplex, MetricInput
from .errors import SchemaError
from .gf2 import GF2Matrix, _pack
from .grades import Grade, _ratio_str, rat_to_str
from .invariants import Bar, Barcode
from .persist import DeltaMorphism, Grid, InterleavingCert, PersistentObject, _check_axes, _Leg

FORMAT_OBJECT = "perscert/persistent-object/1"
FORMAT_CERT = "perscert/interleaving/1"
FORMAT_COMPLEX = "perscert/filtered-complex/1"
FORMAT_METRIC = "perscert/metric/1"
FORMAT_BARCODE = "perscert/barcode/1"
FORMAT_MATCHING = "perscert/matching/1"
FORMAT_ZIGZAG = "perscert/zigzag/1"
FORMAT_REPORT = "perscert/report/1"


def _require(cond, message, *args):
    """Raise a SchemaError unless cond holds. The message is formatted with
    args (``str.format``) only then, so passing checks build no text."""
    if not cond:
        raise SchemaError(message.format(*args) if args else message)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _field(data: dict, key: str, kind: type, default=None):
    """data[key] (default when absent), required to be a JSON array or object."""
    value = data.get(key, default)
    _require(isinstance(value, kind), "{!r} must be a JSON {}", key,
             "array" if kind is list else "object")
    return value


def _document(data, fmt: str, what: str) -> None:
    """The envelope of every top-level document: a JSON object (what names
    the document in the message) whose "format" is fmt."""
    _require(isinstance(data, dict), "{} must be a JSON object", what)
    _require(data.get("format") == fmt, "unexpected format {!r}", data.get("format"))


# -- scalars and grades -------------------------------------------------------


def encode_rational(x) -> str:
    """The wire form of a rational, "p" or "p/q"; None, the infinite end of a
    bar or an infinite distance, is "inf"."""
    return "inf" if x is None else rat_to_str(x)


_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _ratio(s) -> tuple[int, int]:
    """The value of a JSON integer, or of a string of ASCII digits "p" or
    "p/q" (q > 0), as (p, q) in lowest terms with q > 0: the one parser of
    wire rationals."""
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise SchemaError(f"bad rational {s!r}")
    if isinstance(s, int):
        return s, 1
    match = _RATIONAL_RE.fullmatch(s)
    if match is None:
        raise SchemaError(f"bad rational {s!r}: expected an integer or 'p/q'")
    p, q = match.groups()
    try:  # int() refuses strings of more digits than sys.get_int_max_str_digits()
        p, q = int(p), 1 if q is None else int(q)
    except ValueError as exc:
        raise SchemaError(f"bad rational {s!r}") from exc
    if q == 1:
        return p, 1
    if q == 0:
        raise SchemaError(f"bad rational {s!r}")
    g = math.gcd(p, q)
    return p // g, q // g


def decode_rational(s) -> Fraction:
    """A JSON integer, or a string of ASCII digits "p" or "p/q" (q > 0)."""
    return Fraction(*_ratio(s))


def _scaled_axis(axis: list) -> tuple[int, tuple[int, ...]]:
    """The values of a wire axis as (d, ints), their least common
    denominator d and the integers v * d, in order (``Grid._scaled``), read
    value by value, so the first bad value names itself."""
    ratios = [_ratio(v) for v in axis]
    d = math.lcm(*[q for _, q in ratios])
    return d, tuple([p * (d // q) for p, q in ratios])


def encode_grade(g: Grade) -> list[str]:
    return [encode_rational(c) for c in g.coords]


def decode_grade(data) -> Grade:
    _require(isinstance(data, list) and data, "bad grade {!r}", data)
    return Grade(decode_rational(c) for c in data)


# -- category elements, objects, and maps -------------------------------------


def encode_element(x):
    if isinstance(x, (str, int)):
        return x
    if isinstance(x, tuple):
        return [encode_element(v) for v in x]
    if isinstance(x, frozenset):
        return {"frozenset": sorted((encode_element(v) for v in x), key=repr)}
    raise SchemaError(f"cannot serialize element {x!r}")


# arrays and frozensets one element may nest: every later recursion over an
# element (encoding, repr, json) then stays far below the interpreter's limit
_MAX_NESTING = 100


def decode_element(x, levels: int = _MAX_NESTING):
    # scalars first, with _is_int inlined: this runs once per vertex of every
    # simplex. A JSON boolean would merge with 1 or 0 as a Python set element.
    if isinstance(x, str) or isinstance(x, int) and not isinstance(x, bool):
        return x
    if not levels:
        raise SchemaError(f"element nested deeper than {_MAX_NESTING} levels")
    if isinstance(x, list):
        return tuple([decode_element(v, levels - 1) for v in x])
    _require(isinstance(x, dict) and set(x.keys()) == {"frozenset"}, "bad element {!r}", x)
    return frozenset(decode_element(v, levels - 1) for v in _field(x, "frozenset", list))


def encode_cat_object(category: str, obj, seen: dict | None = None):
    """An F2Vec dimension as it is; the elements of a set or complex in their
    wire forms, sorted by the repr of those forms. ``seen`` (element -> its
    repr and wire form) carries both from one object to the next, so that
    each is computed once for all the objects of a document."""
    if category == "F2Vec":
        return obj
    seen = {} if seen is None else seen
    keyed = []
    for e in obj:
        if e not in seen:
            wire = encode_element(e)
            seen[e] = (repr(wire), wire)
        keyed.append(seen[e])
    keyed.sort(key=operator.itemgetter(0))
    return [wire for _, wire in keyed]


# the element types of a flat list; a JSON boolean has type bool, not int
_FLAT_SCALARS = frozenset({str, int})
_INT, _STR, _LIST = frozenset({int}), frozenset({str}), frozenset({list})
_PAIR, _BITS = frozenset({2}), frozenset({0, 1})


def decode_cat_object(category: str, data, kept: deque | None = None):
    """The F2Vec dimension, or the set or complex object, of data. ``kept``,
    when given, is its table's last flat raw object lists, each with its
    value (see the module docstring)."""
    if category == "F2Vec":
        _require(_is_int(data) and data >= 0, "bad dimension {!r}", data)
        return data
    flat = (type(data) is list and _LIST.issuperset(map(type, data))
            and _FLAT_SCALARS.issuperset(map(type, itertools.chain.from_iterable(data))))
    if flat:  # simplices of vertex names: decode_element would give the same tuples
        for raw, elements in kept or ():
            if raw == data:
                return elements
        elements = frozenset(map(tuple, data))
    else:
        _require(isinstance(data, list), "bad object {!r}", data)
        elements = frozenset(map(decode_element, data))
    if len(elements) != len(data):  # the message is built only on failure
        raise SchemaError(f"object {data!r} lists an element twice")
    if flat and kept is not None:
        kept.append((data, elements))
    return elements


def encode_cat_map(category: str, f):
    if category == "F2Vec":
        return {"rows": [list(r) for r in f.rows], "shape": [f.nrows, f.ncols]}
    return sorted(
        ([encode_element(k), encode_element(v)] for k, v in f.items()), key=repr
    )


def decode_cat_map(category: str, data, kept: deque | None = None):
    """The F2Vec matrix, or the set or complex map, of data. ``kept``, when
    given, is its table's last flat raw vertex maps, each with its value
    (see the module docstring); a matrix is decoded where it stands. The
    caller checks the map against its source and target at every place."""
    if category == "F2Vec":  # the checks run once per matrix, so _require is inlined
        if not (isinstance(data, dict) and "rows" in data and "shape" in data):
            raise SchemaError(f"bad matrix {data!r}")
        shape, rows = data["shape"], data["rows"]
        nr, nc = shape if isinstance(shape, list) and len(shape) == 2 else (None, None)
        if not (type(nr) is int and type(nc) is int and nr >= 0 and nc >= 0):
            raise SchemaError(f"bad matrix shape {shape!r}: expected two non-negative ints")
        if not (isinstance(rows, list) and len(rows) == nr
                and _LIST.issuperset(map(type, rows)) and {nc}.issuperset(map(len, rows))):
            raise SchemaError(f"matrix rows do not match shape {shape!r}")
        entries = list(itertools.chain.from_iterable(rows))
        if not (_INT.issuperset(map(type, entries)) and _BITS.issuperset(entries)):
            raise SchemaError("matrix entries must be 0 or 1")
        return GF2Matrix._of(tuple(map(_pack, rows)), nr, nc)
    if (type(data) is list and _LIST.issuperset(map(type, data))
            and _PAIR.issuperset(map(len, data))
            and _FLAT_SCALARS.issuperset(map(type, itertools.chain.from_iterable(data)))):
        for raw, out in kept or ():
            if raw == data:
                return out
        # pairs of vertex names: decode_element would give the same keys and
        # values. A key given twice makes the dict shorter; the loop below
        # then finds it and names it.
        out = dict(data)
        if len(out) == len(data):
            if kept is not None:
                kept.append((data, out))
            return out
    _require(isinstance(data, list), "bad map {!r}", data)
    out = {}
    for entry in data:
        _require(isinstance(entry, list) and len(entry) == 2, "bad map entry {!r}", entry)
        key = decode_element(entry[0])
        if key in out:
            raise SchemaError(f"map lists {entry[0]!r} twice")
        out[key] = decode_element(entry[1])
    return out


# -- the value table of one document --------------------------------------------


class _Values:
    """The wire forms of one document's values, each encoded once: every
    place the document holds an equal value holds one shared wire object.
    ``encode_object``, ``encode_cert`` and ``encode_zigzag`` each start one.
    The tables are keyed on everything a wire form reads:

    - maps, by value: a ``GF2Matrix`` is its own key and a vertex map is
      filed under the sum of the hashes of its items (a FinSet and a
      Complex map of one value have one wire form);
    - persistent objects, by the object (category, grid, objects and edge
      maps) and ``integer_indexed``, which ``PersistentObject.__eq__``
      ignores: A and ``extend_floor(A)`` are written differently;
    - grid axes, by their scaled form (equal axes are equal there);
    - the objects of a category, and their elements, by value.

    Maps and persistent objects are looked up by id first, so a value held
    many times is hashed once; ``held`` keeps each of them beside its wire
    form while the table lives, so no id is reused."""

    def __init__(self):
        self.held = {}         # id of a map or persistent object -> (it, its wire form)
        self.maps = {}         # map key -> [(map, wire form)] of the maps filed there
        self.objects = {}      # (persistent object, integer_indexed) -> wire form
        self.scaled_axes = {}  # (d, ints) of an axis -> its wire strings
        self.cat_objects = {}  # object of a category -> wire form
        self.elements = {}     # element -> (repr of its wire form, wire form)

    def map(self, category: str, f):
        held = self.held.get(id(f))
        if held is not None:
            return held[1]
        # a vertex map is filed under the sum of the hashes of its items,
        # which builds nothing per item; the maps filed there are compared
        # in full
        key = f if isinstance(f, GF2Matrix) else sum(map(hash, f.items()))
        bucket = self.maps.setdefault(key, [])
        for g, wire in bucket:
            if g == f:
                break
        else:
            wire = encode_cat_map(category, f)
            bucket.append((f, wire))
        self.held[id(f)] = f, wire
        return wire

    def object(self, x: PersistentObject) -> dict:
        held = self.held.get(id(x))
        if held is not None:
            return held[1]
        key = (x, x.integer_indexed)
        wire = self.objects.get(key)
        if wire is None:
            wire = self.objects[key] = _encode_object(x, self)
        self.held[id(x)] = x, wire
        return wire

    def axes(self, grid: Grid) -> list[list[str]]:
        """The wire strings of each axis of grid."""
        out = []
        for axis in grid._scaled:
            wire = self.scaled_axes.get(axis)
            if wire is None:
                d, ints = axis
                wire = self.scaled_axes[axis] = [_ratio_str(n, d) for n in ints]
            out.append(wire)
        return out

    def cat_object(self, category: str, obj):
        wire = self.cat_objects.get(obj)
        if wire is None:
            wire = self.cat_objects[obj] = encode_cat_object(category, obj, self.elements)
        return wire


# -- persistent objects --------------------------------------------------------


_INDEX_RE = re.compile(r"[0-9]+(,[0-9]+)*")
_EDGE_RE = re.compile(r"([0-9,]*)\|([0-9]+)")


def decode_index(key: str) -> tuple[int, ...]:
    """A grid index written "i,j,..." with non-negative integers."""
    _require(isinstance(key, str) and _INDEX_RE.fullmatch(key), "bad index key {!r}", key)
    try:  # int() refuses strings of more digits than sys.get_int_max_str_digits()
        return tuple(int(p) for p in key.split(","))
    except ValueError as exc:
        raise SchemaError(f"bad index key {key!r}") from exc


def decode_edge_key(key: str) -> tuple[tuple[int, ...], int]:
    """An edge key "i,j,...|axis": the grid index and the axis of the step."""
    match = _EDGE_RE.fullmatch(key) if isinstance(key, str) else None
    _require(match is not None, "bad edge key {!r}", key)
    try:
        return decode_index(match.group(1)), int(match.group(2))
    except ValueError as exc:  # the axis has more digits than int() reads
        raise SchemaError(f"bad edge key {key!r}") from exc


def _refuse_repeats(places, what: str) -> None:
    """Refuse the first of places met before, naming what sits there: two
    keys of one table that name one grid point or step ("0" and "00")."""
    met = set()
    for place in places:
        if place in met:
            raise SchemaError(f"{what} {place} is given twice")
        met.add(place)


def encode_object(x: PersistentObject) -> dict:
    """The wire form of x, on a value table of its own (``_Values``)."""
    return _Values().object(x)


def _encode_object(x: PersistentObject, values: _Values) -> dict:
    cat = x.category_name
    return {
        "format": FORMAT_OBJECT,
        "m": x.m,
        "category": cat,
        "integer_indexed": x.integer_indexed,
        "axes": values.axes(x.grid),
        "objects": {
            ",".join(map(str, idx)): values.cat_object(cat, obj)
            for idx, obj in x.objects.items()
        },
        "edge_maps": {
            ",".join(map(str, idx)) + "|" + str(a): values.map(cat, f)
            for (idx, a), f in x.edge_maps.items()
        },
    }


def _point_keys(grid: Grid):
    """The key each point of grid is written under, "i,j,...", in grid
    order."""
    return map(",".join, itertools.product(*[[str(i) for i in range(n)]
                                             for n in grid.shape()]))


def _step_keys(grid: Grid):
    """(key, (index, axis)) of each edge of grid, the key "i,j,...|axis"
    written as the edge is, in the order of ``Grid.edges``."""
    points = zip(grid.indices(), _point_keys(grid))
    bars = [f"|{a}" for a in range(grid.m)]
    idx = key = None
    for at, a, _ in grid.edges():
        if at != idx:  # the edges leave the points in order, every point but the last
            idx, key = next(points)
        yield key + bars[a], (idx, a)


def decode_object(data: dict) -> PersistentObject:
    """The persistent object of a document, validated. Its objects and its
    edge maps are two tables of the module docstring's rule: a flat set or
    complex list, or vertex map, equal to one of the last four in its table
    takes that one's value, so a sublevel filtration holds one subcomplex,
    and one inclusion, over whole regions of its grid. Two keys that name
    one grid point or step ("0" and "00") are refused."""
    _document(data, FORMAT_OBJECT, "persistent object")
    category = data.get("category")
    _require(category in ("FinSet", "F2Vec", "Complex"), "bad category {!r}", category)
    axes = data.get("axes")
    _require(isinstance(axes, list) and axes, "missing axes")
    _require(all(isinstance(axis, list) for axis in axes), "each axis must be a JSON array")
    m = data.get("m", len(axes))
    _require(_is_int(m) and m == len(axes), "'m' is {!r}, but the object has {} axes",
             m, len(axes))
    # every axis value is read before any axis is checked
    grid = Grid._of(_check_axes(tuple(map(_scaled_axis, axes))))
    # each table holds the key a grid point or edge is written under -> that
    # point or edge, for as many points or edges as the document has keys;
    # any other key is read by its pattern, and the object's checks refuse it
    # when it lies off the grid
    objects, entries, kept = {}, _field(data, "objects", dict, {}), deque(maxlen=4)
    points = dict(zip(itertools.islice(_point_keys(grid), len(entries)), grid.indices()))
    for key, obj in entries.items():
        idx = points.get(key)
        objects[decode_index(key) if idx is None else idx] = decode_cat_object(
            category, obj, kept)
    if len(objects) < len(entries):
        _refuse_repeats((points.get(k) or decode_index(k) for k in entries),
                        "object at grid index")
    edges, entries, kept = {}, _field(data, "edge_maps", dict, {}), deque(maxlen=4)
    steps = dict(itertools.islice(_step_keys(grid), len(entries)))
    for key, f in entries.items():
        edge = steps.get(key)
        edges[decode_edge_key(key) if edge is None else edge] = decode_cat_map(
            category, f, kept)
    if len(edges) < len(entries):
        _refuse_repeats((steps.get(k) or decode_edge_key(k) for k in entries), "edge map at")
    integer_indexed = data.get("integer_indexed", False)
    _require(isinstance(integer_indexed, bool), "'integer_indexed' must be a JSON boolean")
    x = PersistentObject._of(grid, category, objects, edges, integer_indexed)
    x._validate()
    return x


# -- morphisms and certificates -------------------------------------------------


def _encode_components(f: DeltaMorphism, values: _Values) -> list[dict]:
    """One entry per merged-grid point."""
    axes, cat, components = values.axes(f.grid), f.source.category_name, f.components
    return [
        {"at": [axis[i] for axis, i in zip(axes, idx)], "map": values.map(cat, components[idx])}
        for idx in f.grid.indices()
    ]


def decode_morphism(source: PersistentObject, target: PersistentObject,
                    shift_data, components_data) -> DeltaMorphism:
    """Each "at" grade must be a point of the merged grid, given once. It is
    placed by one wire string -> position table per axis, written from the
    merged grid's scaled integers by the encoder's own formatter, and, when
    a coordinate is not written as ``encode_rational`` writes it, by one
    scaled integer -> position table per axis, built on the first such
    coordinate. The component maps are one table of the module docstring's
    rule, read as ``decode_object`` reads edge maps: a flat vertex map equal
    to one of the last four takes that one's value, and a matrix is decoded
    where it stands."""
    shift = decode_grade(shift_data)
    _require(shift.m == source.m, "shift {} has arity {}, the objects have m = {}",
             shift, shift.m, source.m)
    _require(isinstance(components_data, list), "components must be a list")
    leg = _Leg(source, target, shift)
    wire = [{_ratio_str(n, d): i for i, n in enumerate(ints)} for d, ints in leg.grid._scaled]
    positions = None
    category, components, kept = source.category_name, {}, deque(maxlen=4)
    for entry in components_data:  # _require is inlined: this runs once per component
        if not (isinstance(entry, dict) and "at" in entry and "map" in entry):
            raise SchemaError(f"bad component entry {entry!r}")
        at = entry["at"]
        if not (isinstance(at, list) and at):
            raise SchemaError(f"bad grade {at!r}")
        idx = (tuple(map(dict.get, wire, at))
               if len(at) == len(wire) and _STR.issuperset(map(type, at)) else (None,))
        if None in idx:
            ratios = [_ratio(c) for c in at]
            if positions is None:
                positions = [(d, {n: i for i, n in enumerate(ints)})
                             for d, ints in leg.grid._scaled]
            # p/q lies on an axis over d when p * d / q is one of its integers
            idx = tuple(table.get(p * d // q) if p * d % q == 0 else None
                        for (d, table), (p, q) in zip(positions, ratios))
            if len(ratios) != len(positions) or None in idx:
                raise SchemaError(f"component at {Grade(Fraction(*r) for r in ratios)} "
                                  "is not a point of the merged grid")
        if idx in components:
            raise SchemaError(f"component at {leg.grid.grade_at(idx)} is given twice")
        components[idx] = decode_cat_map(category, entry["map"], kept)
    f = DeltaMorphism._on(leg, components)
    f._validate_components()
    return f


def encode_cert(cert: InterleavingCert, include_objects: bool = True) -> dict:
    return _encode_cert(cert, include_objects, _Values())


def _encode_cert(cert: InterleavingCert, include_objects: bool, values: _Values) -> dict:
    out = {
        "format": FORMAT_CERT,
        "epsilon": encode_grade(cert.epsilon),
        "delta": encode_grade(cert.delta),
        "f_components": _encode_components(cert.f, values),
        "g_components": _encode_components(cert.g, values),
    }
    if include_objects:
        out["x"] = values.object(cert.f.source)
        out["y"] = values.object(cert.f.target)
    return out


def decode_cert(data: dict, x: PersistentObject | None = None,
                y: PersistentObject | None = None) -> InterleavingCert:
    _document(data, FORMAT_CERT, "certificate")
    if x is None:
        _require("x" in data, "certificate lacks embedded objects")
        x = decode_object(data["x"])
    if y is None:
        _require("y" in data, "certificate lacks embedded objects")
        y = decode_object(data["y"])
    for key in ("epsilon", "delta", "f_components", "g_components"):
        _require(key in data, "certificate lacks {!r}", key)
    f = decode_morphism(x, y, data["epsilon"], data["f_components"])
    g = decode_morphism(y, x, data["delta"], data["g_components"])
    return InterleavingCert(f, g)


# -- filtered complexes and metrics ---------------------------------------------


def encode_filtered_complex(f: FilteredComplex) -> dict:
    """The wire form of f, with each grade object encoded once: the
    simplices of one grade share its list."""
    grades = {id(g): encode_grade(g) for g in {id(g): g for g in f.grade.values()}.values()}
    return {
        "format": FORMAT_COMPLEX,
        "m": f.m,
        "vertices": [encode_element(v) for v in f.vertices],
        "simplices": [
            {"v": [encode_element(v) for v in s], "grade": grades[id(f.grade[s])]}
            for s in sorted(f.simplices, key=repr)
        ],
    }


def decode_filtered_complex(data: dict) -> FilteredComplex:
    _document(data, FORMAT_COMPLEX, "filtered complex")
    vertices = [decode_element(v) for v in _field(data, "vertices", list, [])]
    _require(len(set(vertices)) == len(vertices), "vertices must be distinct")
    grade = {}
    known = {}  # a wire grade of strings, as a tuple -> its Grade, decoded once
    for entry in _field(data, "simplices", list, []):
        _require(isinstance(entry, dict) and isinstance(entry.get("v"), list)
                 and "grade" in entry, "bad simplex entry {!r}", entry)
        vs = entry["v"]
        _require(vs, "simplex entry {!r} has no vertex", entry)
        if not _FLAT_SCALARS.issuperset(map(type, vs)):  # names that need decoding
            vs = [decode_element(v) for v in vs]
        s = simplex(vs)
        _require(len(s) == len(vs), "simplex {!r} repeats a vertex", vs)
        _require(s not in grade, "simplex {!r} is given twice", vs)
        wire = entry["grade"]
        key = tuple(wire) if type(wire) is list else None
        try:  # a key holding a list or dict is unhashable and never known
            grade[s] = known[key]
        except (KeyError, TypeError):
            grade[s] = decode_grade(wire)
            if all(type(c) is str for c in wire):
                known[key] = grade[s]
    m = data.get("m")
    if "m" in data:
        _require(_is_int(m) and m > 0 and all(g.m == m for g in grade.values()),
                 "'m' is {!r}, not a positive arity of every grade", m)
    return FilteredComplex._of(tuple(vertices), frozenset(grade), grade, m)


def decode_metric(data: dict) -> MetricInput:
    _document(data, FORMAT_METRIC, "metric")
    points = [decode_element(p) for p in _field(data, "points", list)]
    matrix = _field(data, "matrix", list)
    _require(all(isinstance(row, list) for row in matrix), "matrix rows must be JSON arrays")
    matrix = [[decode_rational(x) for x in row] for row in matrix]
    values = data.get("values")
    if values is not None:
        values = [decode_rational(v) for v in _field(data, "values", list)]
    return MetricInput(points, matrix, values)


# -- barcodes and matchings ------------------------------------------------------


def encode_barcode(b: Barcode) -> dict:
    return {
        "format": FORMAT_BARCODE,
        "intervals": [
            {
                "birth": encode_rational(bar.birth),
                "death": encode_rational(bar.death),
            }
            for bar in b.bars
        ],
    }


def decode_barcode(data: dict) -> Barcode:
    _document(data, FORMAT_BARCODE, "barcode")
    bars = []
    for entry in _field(data, "intervals", list, []):
        _require(isinstance(entry, dict) and "birth" in entry and "death" in entry,
                 "bad interval {!r}", entry)
        birth = decode_rational(entry["birth"])
        death = None if entry["death"] == "inf" else decode_rational(entry["death"])
        _require(death is None or birth < death,
                 "bad interval {!r}: birth must be below death", entry)
        bars.append(Bar(birth, death))
    return Barcode(bars)


def encode_matching(matching, cost) -> dict:
    return {
        "format": FORMAT_MATCHING,
        "cost": encode_rational(cost),
        "pairs": [list(p) for p in matching.pairs] if matching else [],
        "deleted_left": list(matching.deleted_left) if matching else [],
        "deleted_right": list(matching.deleted_right) if matching else [],
    }


def encode_zigzag(result) -> dict:
    values = _Values()
    return {
        "format": FORMAT_ZIGZAG,
        "c": values.object(result.c),
        "even_restriction_equal": result.even_equal,
        "odd_restriction_equal": result.odd_equal,
        "pieces": {
            "a_to_even": _encode_cert(result.piece_a, True, values),
            "even_to_odd": _encode_cert(result.piece_mid, True, values),
            "odd_to_b": _encode_cert(result.piece_b, True, values),
        },
        "composite": _encode_cert(result.composite, True, values),
        "total_shifts": [encode_grade(s) for s in result.total_shifts],
    }
