"""Persistent invariants: connected components via union-find, simplicial
homology over GF(2) with induced maps, the free GF(2) module of a persistent
set, and barcodes.

pi0, H_n and the linearization are pointwise functors, applied to objects and
delta-morphisms by one ``_apply`` and one ``_apply_morphism``. Each functor
reads what it needs of a pointwise object (its components, its homology
basis, its element order) once per distinct object within one call and
reuses it for every map into or out of that object; nothing is kept between
calls. Homology bases are chosen deterministically from the sorted simplex
list, so recomputing the basis of the same complex always agrees.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .categories import COMPLEX, complex_vertices, total_order
from .complexes import FilteredComplex, require_valid
from .errors import CategoryError, DimensionError, ValidationError
from .gf2 import Echelon, GF2Matrix, _combination, _transpose, kernel_bits
from .grades import rat, zero_grade
from .persist import DeltaMorphism, Grid, InterleavingCert, PersistentObject, _Leg


class UnionFind:
    """Union-find with path compression over hashable items."""

    def __init__(self, items=()):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def components(self) -> dict:
        """item -> frozenset of its component."""
        groups: dict = {}
        for x in self.parent:
            groups.setdefault(self.find(x), set()).add(x)
        return {x: frozenset(groups[self.find(x)]) for x in self.parent}


def components_of_complex(k: frozenset) -> dict:
    """vertex -> component id (the frozenset of the component's vertices)."""
    uf = UnionFind(complex_vertices(k))
    for sigma in k:
        for a, b in zip(sigma, sigma[1:]):
            uf.union(a, b)
    return uf.components()


class _Functor(NamedTuple):
    """A pointwise functor into ``category``: ``read`` takes what the functor
    needs of one pointwise object, ``obj`` gives the image object from it,
    and ``arrow(read source, read target, map)`` the image map. A functor
    sends maps to maps and commuting squares to commuting squares, so the
    images of valid objects and morphisms are valid and are built
    unchecked."""

    category: str
    read: Callable
    obj: Callable
    arrow: Callable


def _read(functor: _Functor, data: dict, k):
    """functor.read(k), through ``data`` (object -> what it gave)."""
    if k not in data:
        data[k] = functor.read(k)
    return data[k]


def _apply(functor: _Functor, x: PersistentObject, data: dict) -> PersistentObject:
    """functor(x) on x's grid, reading each distinct object of x once
    through ``data``."""
    read = functools.partial(_read, functor, data)
    objects = {idx: functor.obj(read(x.objects[idx])) for idx in x.grid.indices()}
    edges = {(idx, a): functor.arrow(read(x.objects[idx]), read(x.objects[nxt]),
                                     x.edge_maps[(idx, a)])
             for idx, a, nxt in x.grid.edges()}
    return PersistentObject._of(x.grid, functor.category, objects, edges, x.integer_indexed)


def _apply_morphism(functor: _Functor, f: DeltaMorphism, data: dict) -> DeltaMorphism:
    """functor(f) between functor(source) and functor(target), which keep
    the grids, so the merged grid and its indices are f's."""
    read = functools.partial(_read, functor, data)
    components = {idx: functor.arrow(read(f.source.at(f.at_source[idx])),
                                     read(f.target.at(f.at_target[idx])), f.components[idx])
                  for idx in f.grid.indices()}
    leg = _Leg(_apply(functor, f.source, data), _apply(functor, f.target, data), f.shift)
    return DeltaMorphism._on(leg, components)


def _component_map(src: dict, tgt: dict, vmap: dict) -> dict:
    """The map of components (vertex -> component tables src and tgt) of a
    simplicial map."""
    return {comp: tgt[vmap[next(iter(comp))]] for comp in set(src.values())}


# component ids are the vertex sets, and induced maps follow the vertex maps
_PI0 = _Functor("FinSet", components_of_complex, lambda cm: frozenset(cm.values()),
                _component_map)


def pi0(x: PersistentObject) -> PersistentObject:
    """Persistent set of connected components; component ids are the vertex
    sets, and induced maps follow the structure maps."""
    if x.category_name != "Complex":
        raise CategoryError("pi0 expects a persistent complex")
    return _apply(_PI0, x, {})


def pi0_induced(f: DeltaMorphism) -> DeltaMorphism:
    """Component map induced by a delta-morphism of complexes."""
    if f.source.category_name != "Complex":
        raise CategoryError("pi0_induced expects complexes")
    violation = f.check_natural()
    if violation is not None:
        raise ValidationError(f"input morphism is not natural at {violation[0]}")
    return _apply_morphism(_PI0, f, {})


# -- homology over GF(2) ----------------------------------------------------


def _simplices_of_dim(k: frozenset, n: int) -> list[tuple]:
    return total_order([s for s in k if len(s) == n + 1])


def _boundary_columns(faces: list[tuple], simplices: list[tuple]) -> list[int]:
    """The boundary of each simplex as a bitset over the faces (bit i is
    faces[i])."""
    index = {s: i for i, s in enumerate(faces)}
    cols = []
    for sigma in simplices:
        col = 0
        for i in range(len(sigma)):
            face = sigma[:i] + sigma[i + 1:]
            if face in index:
                col ^= 1 << index[face]
        cols.append(col)
    return cols


class HomologyBasis(NamedTuple):
    """A basis of H_n(k; GF(2)). Chains are bitsets over ``simplices``, the
    sorted n-simplices. ``reps`` are the representative cycles, and
    ``classes`` reduces any cycle to 0 with, as its tag, the bitset of the
    representatives whose sum it is modulo boundaries."""

    simplices: list[tuple]
    reps: list[int]
    classes: Echelon


def _require_degree(n: int) -> None:
    if n < 0:
        raise ValidationError(f"homology degree needs n >= 0, got {n}")


def _require_one_parameter(m: int) -> None:
    if m != 1:
        raise DimensionError("homology is restricted to m = 1; slice first")


def homology_basis(k: frozenset, n: int) -> HomologyBasis:
    """Deterministic in the complex: boundaries of the sorted (n+1)-simplices
    go into one elimination first, then the kernel basis of the boundary
    map on the sorted n-simplices, and every cycle that grows the span
    becomes a representative. Every H_n of a persistent complex is set up
    here, so this is where a negative degree is rejected."""
    _require_degree(n)
    simplices = _simplices_of_dim(k, n)
    classes = Echelon()
    for col in _boundary_columns(simplices, _simplices_of_dim(k, n + 1)):
        classes.add(col)
    reps = []
    for z in kernel_bits(_boundary_columns(_simplices_of_dim(k, n - 1), simplices)):
        if classes.add(z, 1 << len(reps)):
            reps.append(z)
    return HomologyBasis(simplices, reps, classes)


def _induced(src: HomologyBasis, tgt: HomologyBasis, vmap: dict) -> GF2Matrix:
    """H_n(k) -> H_n(l) of a simplicial map, in the two bases. Degenerate
    images (collapsed simplices) map to zero."""
    index = {s: i for i, s in enumerate(tgt.simplices)}
    images = []
    for sigma in src.simplices:
        image = COMPLEX.apply_simplex(vmap, sigma)
        images.append(1 << index[image] if len(image) == len(sigma) else 0)
    cols = []
    for rep in src.reps:
        rest, coords = tgt.classes.reduce(_combination(rep, images))
        if rest:
            raise ValidationError("image of a cycle is not a cycle: not a chain map")
        cols.append(coords)
    return GF2Matrix.from_columns(cols, len(tgt.reps))


def induced_h_map(k: frozenset, l: frozenset, vmap: dict, n: int) -> GF2Matrix:
    """H_n(k) -> H_n(l) in the deterministic bases."""
    return _induced(homology_basis(k, n), homology_basis(l, n), vmap)


def _homology_functor(x: PersistentObject, n: int) -> _Functor:
    """H_n over GF(2), once x is known to be a 1-parameter persistent
    complex."""
    if x.category_name != "Complex":
        raise CategoryError("homology expects a persistent complex")
    _require_one_parameter(x.m)
    return _Functor("F2Vec", lambda k: homology_basis(k, n), lambda b: len(b.reps), _induced)


def homology(x: PersistentObject, n: int) -> PersistentObject:
    """Persistent GF(2) homology in degree n of a 1-parameter persistent
    complex."""
    return _apply(_homology_functor(x, n), x, {})


def slice_axis(x: PersistentObject, axis: int, value) -> PersistentObject:
    """Restrict a multiparameter object to an axis-parallel line, giving a
    1-parameter object in the remaining axis (m = 2 only)."""
    if x.m != 2:
        raise DimensionError("slice_axis expects m = 2")
    if axis not in (0, 1):
        raise DimensionError(f"slice_axis needs axis 0 or 1, got {axis!r}")
    axes = list(x.grid.axes)
    axes[axis] = [value]
    idxs = list(x.grid.locate(Grid(axes), zero_grade(2)).values())  # along the line
    objects = {(i,): x.at(j) for i, j in enumerate(idxs)}
    edges = {((i,), 0): x.map_between(j, k) for i, (j, k) in enumerate(zip(idxs, idxs[1:]))}
    return PersistentObject._of(Grid([axes[1 - axis]]), x.category_name, objects, edges)


def homology_cert(cert: InterleavingCert, n: int) -> InterleavingCert:
    functor, data = _homology_functor(cert.f.source, n), {}
    return InterleavingCert(_apply_morphism(functor, cert.f, data),
                            _apply_morphism(functor, cert.g, data))


# -- barcodes ---------------------------------------------------------------


@dataclass(frozen=True)
class Bar:
    birth: Fraction
    death: Optional[Fraction]  # None = infinite

    def __post_init__(self):
        object.__setattr__(self, "birth", rat(self.birth))
        if self.death is not None:
            object.__setattr__(self, "death", rat(self.death))
            if not self.birth < self.death:
                raise ValidationError("bars must be nonempty intervals")


@dataclass(frozen=True)
class Barcode:
    bars: tuple[Bar, ...]

    def __init__(self, bars):
        object.__setattr__(self, "bars", tuple(sorted(
            bars, key=lambda b: (b.birth, b.death is not None, b.death or 0)
        )))

    def rank_at(self, grade) -> int:
        return sum(
            1 for b in self.bars
            if b.birth <= grade and (b.death is None or grade < b.death)
        )


def _linear_map(src: dict, tgt: dict, f: dict) -> GF2Matrix:
    """F2[f] in the bases (element -> basis position) src and tgt."""
    return GF2Matrix.from_columns([1 << tgt[f[e]] for e in src], len(tgt))


_LINEARIZE = _Functor("F2Vec", lambda s: {e: i for i, e in enumerate(total_order(s))},
                      len, _linear_map)


def linearize(x: PersistentObject) -> PersistentObject:
    """F2[X], the free GF(2) module of a persistent set: X(p) in
    ``total_order`` is the basis at each grid point, and each structure map
    sends a basis element to the basis element of its image. A persistent
    module is returned unchanged."""
    if x.category_name == "F2Vec":
        return x
    if x.category_name != "FinSet":
        raise CategoryError("linearize expects a persistent set or module")
    return _apply(_LINEARIZE, x, {})


def barcode(f: PersistentObject) -> Barcode:
    """Interval decomposition of a 1-parameter GF(2) persistence module, by
    one forward pass with the elder rule (Zomorodian & Carlsson, Computing
    Persistent Homology, 2005).

    The pass keeps a basis of the space at each grade index as bitsets, each
    vector tagged with the index where its class was born, oldest first.
    Each edge map pushes the basis forward into one elimination: an image in
    the span of older images ends its bar there, the others stay alive, and
    the unit vectors that still grow the span are born at the next index.
    What is alive at the end gives the infinite bars. The vectors born at or
    before index i span the image of the space at i, so these are the bars
    of the rank inclusion-exclusion."""
    if f.category_name != "F2Vec":
        raise CategoryError("barcode expects a persistent module")
    if f.m != 1:
        raise DimensionError("barcode expects m = 1")
    axis = f.grid.axes[0]
    live = [(1 << k, 0) for k in range(f.objects[(0,)])]  # (vector, birth index)
    bars = []
    for j in range(len(axis) - 1):
        columns = _transpose(f.edge_maps[((j,), 0)].bits, f.objects[(j,)])
        span = Echelon()
        survivors = []
        for v, birth in live:
            image = _combination(v, columns)
            if span.add(image):
                survivors.append((image, birth))
            else:
                bars.append(Bar(axis[birth], axis[j + 1]))
        survivors.extend((1 << k, j + 1) for k in range(f.objects[(j + 1,)])
                         if span.add(1 << k))
        live = survivors
    bars.extend(Bar(axis[birth], None) for _, birth in live)
    return Barcode(bars)


def filtration_barcode(f: FilteredComplex, n: int) -> Barcode:
    """The barcode of H_n of the sublevel filtration of f, equal to
    ``barcode(homology(to_persistent(f), n))`` with the same errors in the
    same order, by the standard persistence algorithm (Edelsbrunner,
    Letscher & Zomorodian 2002): one left-to-right reduction of the boundary
    matrix in filtration order, with no persistent object built.

    Simplices of each dimension are ordered by grade, then by
    ``total_order``. An n-simplex whose boundary column reduces to zero is
    positive: it gives birth to a class. Each (n+1)-simplex tau whose
    column does not reduce to zero kills the positive n-simplex sigma at
    its pivot (the youngest face left), which is the bar [g(sigma), g(tau))
    when the two grades differ. Positive simplices never killed give the
    infinite bars."""
    require_valid(f)
    _require_one_parameter(f.m)
    _require_degree(n)

    def in_filtration_order(dim: int) -> list[tuple]:
        # a stable sort keeps total_order among simplices of one grade
        return sorted(_simplices_of_dim(f.simplices, dim), key=lambda s: f.grade[s].coords[0])

    faces, simplices, cofaces = (in_filtration_order(d) for d in (n - 1, n, n + 1))
    cycles = Echelon()
    positive = {i for i, col in enumerate(_boundary_columns(faces, simplices))
                if not cycles.add(col)}
    boundaries = Echelon()
    bars = []
    for tau, col in zip(cofaces, _boundary_columns(simplices, cofaces)):
        col, _ = boundaries.reduce(col)
        if col:
            boundaries.add(col)
            i = col.bit_length() - 1
            positive.discard(i)
            birth, death = f.grade[simplices[i]].coords[0], f.grade[tau].coords[0]
            if birth < death:
                bars.append(Bar(birth, death))
    bars.extend(Bar(f.grade[simplices[i]].coords[0], None) for i in positive)
    return Barcode(bars)
