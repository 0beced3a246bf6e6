"""The three concrete categories persistent objects take values in.

Each category exposes the same small surface: objects, maps, identity,
composition, the initial object, optional fiber products, and (for the
brute-force searches) enumeration of all maps between two objects. Maps are
plain values (dicts and ``GF2Matrix``), so two maps are equal exactly when
they compare equal with ``==``.

Representations:
  FinSet  -- object: frozenset of hashable element ids; map: dict
  F2Vec   -- object: nonnegative int (dimension); map: GF2Matrix (tgt x src)
  Complex -- object: frozenset of simplices (sorted vertex tuples);
             map: dict on vertices inducing a simplicial map

A simplicial map is a FinSet map on vertices, so ``ComplexCategory``
subclasses ``FinSetCategory`` and states only what differs: its objects, the
image of a simplex, which vertex maps are simplicial and injective, and that
it has no fiber products.
"""

from __future__ import annotations

from itertools import chain, product

from .errors import CategoryError
from .gf2 import Echelon, GF2Matrix, _transpose, all_matrices, kernel_bits


def total_order(items) -> list:
    """The items of a collection, sorted; when they do not compare (vertex
    names of mixed types, or simplices over them), sorted by type name and
    repr instead."""
    try:
        return sorted(items)
    except TypeError:
        return sorted(items, key=lambda v: (str(type(v)), repr(v)))


def simplex(vertices) -> tuple:
    s = tuple(total_order(set(vertices)))
    if not s:
        raise CategoryError("simplices must be nonempty")
    return s


def complex_vertices(obj: frozenset) -> set:
    return set(chain.from_iterable(obj))


def _is_inclusion(f: dict) -> bool:
    """Whether a vertex map is the identity on its vertices: an inclusion of
    complexes, which sends every simplex to itself."""
    return list(f) == list(f.values())


class FinSetCategory:
    name = "FinSet"

    def check_object(self, obj):
        if not isinstance(obj, frozenset):
            raise CategoryError(f"FinSet object must be a frozenset, got {type(obj)}")

    def initial(self):
        return frozenset()

    def identity(self, obj):
        return {x: x for x in obj}

    def initial_map(self, tgt):
        return {}

    def is_map(self, f, src, tgt) -> bool:
        return set(f.keys()) == set(src) and all(v in tgt for v in f.values())

    def compose(self, g, f):
        """g after f."""
        return {x: g[y] for x, y in f.items()}

    def enumerate_maps(self, src, tgt):
        src = total_order(src)
        for values in product(total_order(tgt), repeat=len(src)):
            yield dict(zip(src, values))

    def count_maps(self, src, tgt) -> int:
        return len(tgt) ** len(src)

    def fiber_product(self, f, h, x_obj, b_obj):
        """Pullback of f: X -> Y along h: B -> Y.

        Returns (A, proj_x, proj_b, pair) where pair(u, v, w_obj) is the map
        induced by u: W -> X and v: W -> B with f.u = h.v.
        """
        a_obj = frozenset((x, b) for x in x_obj for b in b_obj if f[x] == h[b])
        proj_x = {(x, b): x for (x, b) in a_obj}
        proj_b = {(x, b): b for (x, b) in a_obj}

        def pair(u, v, w_obj):
            out = {}
            for w in w_obj:
                cand = (u[w], v[w])
                if cand not in a_obj:
                    raise CategoryError("pairing does not land in the fiber product")
                out[w] = cand
            return out

        return a_obj, proj_x, proj_b, pair


class F2VecCategory:
    name = "F2Vec"

    def check_object(self, obj):
        if not isinstance(obj, int) or obj < 0:
            raise CategoryError(f"F2Vec object must be a nonnegative int, got {obj!r}")

    def initial(self):
        return 0

    def identity(self, obj):
        return GF2Matrix.identity(obj)

    def initial_map(self, tgt):
        return GF2Matrix.zeros(tgt, 0)

    def is_map(self, f, src, tgt) -> bool:
        return isinstance(f, GF2Matrix) and f.ncols == src and f.nrows == tgt

    def compose(self, g, f):
        return g @ f

    def enumerate_maps(self, src, tgt):
        yield from all_matrices(tgt, src)

    def count_maps(self, src, tgt) -> int:
        return 2 ** (src * tgt)

    def fiber_product(self, f, h, x_obj, b_obj):
        """Pullback of linear maps: kernel of [f | h]: X (+) B -> Y."""
        if h.nrows != f.nrows:
            raise CategoryError("pullback legs must share a codomain")
        kernel = kernel_bits(_transpose(f.bits, x_obj) + _transpose(h.bits, b_obj))
        a_obj = len(kernel)
        kmat = GF2Matrix.from_columns(kernel, x_obj + b_obj)
        proj_x = GF2Matrix._of(kmat.bits[:x_obj], x_obj, a_obj)
        proj_b = GF2Matrix._of(kmat.bits[x_obj:], b_obj, a_obj)
        # tag 1 << j on kernel vector j: a column in their span reduces to
        # zero with the coordinates of the one solution in its tag
        span = Echelon()
        for j, vec in enumerate(kernel):
            span.add(vec, 1 << j)

        def pair(u, v, w_obj):
            cols = []
            for u_col, v_col in zip(_transpose(u.bits, w_obj), _transpose(v.bits, w_obj)):
                rest, sol = span.reduce(u_col | v_col << x_obj)
                if rest:
                    raise CategoryError("pairing does not land in the fiber product")
                cols.append(sol)
            return GF2Matrix.from_columns(cols, a_obj)

        return a_obj, proj_x, proj_b, pair


class ComplexCategory(FinSetCategory):
    """A simplicial map is a FinSet map on vertices that sends simplices to
    simplices. So the initial object, the initial map and composition are
    FinSet's, and identity, enumeration and the map count are FinSet's on
    the vertex sets, enumeration keeping the simplicial maps."""

    name = "Complex"

    def check_object(self, obj, faces: dict | None = None):
        """A frozenset of nonempty sorted, duplicate-free vertex tuples,
        closed under taking faces. ``faces`` (simplex -> its nonempty faces)
        carries the simplices that passed from one object to the next, so
        that each distinct simplex of a document is sorted once and each
        object's closure is one subset test; on any failure every simplex is
        checked in turn, so the error names the first one met."""
        if not isinstance(obj, frozenset):
            raise CategoryError("Complex object must be a frozenset of simplices")
        if faces is not None:
            for sigma in obj.difference(faces):
                if not isinstance(sigma, tuple) or not sigma or sigma != simplex(sigma):
                    break
                faces[sigma] = ([sigma[:i] + sigma[i + 1:] for i in range(len(sigma))]
                                if len(sigma) > 1 else ())
            else:
                if obj.issuperset(chain.from_iterable(map(faces.__getitem__, obj))):
                    return
        for sigma in obj:
            if not isinstance(sigma, tuple) or not sigma:
                raise CategoryError(f"bad simplex {sigma!r}")
            if sigma != simplex(sigma):
                raise CategoryError(f"simplex {sigma!r} is not sorted and duplicate-free")
            for i in range(len(sigma)):
                face = sigma[:i] + sigma[i + 1:]
                if face and face not in obj:
                    raise CategoryError(f"face {face!r} of {sigma!r} missing: not closed")

    def identity(self, obj):
        return super().identity(complex_vertices(obj))

    def apply_simplex(self, f, sigma):
        return tuple(total_order({f[v] for v in sigma}))

    def is_map(self, f, src, tgt, vertices: dict | None = None) -> bool:
        """``vertices`` (object -> its vertex set) carries the vertex sets
        already built, so that a caller checking many maps builds each
        distinct source's once."""
        if vertices is None:
            keys = complex_vertices(src)
        else:
            keys = vertices.get(src)
            if keys is None:
                keys = vertices[src] = complex_vertices(src)
        if f.keys() != keys:
            return False
        if _is_inclusion(f):  # a decoded object shares equal subcomplexes
            return src is tgt or src <= tgt
        return all(self.apply_simplex(f, sigma) in tgt for sigma in src)

    def enumerate_maps(self, src, tgt):
        for f in super().enumerate_maps(complex_vertices(src), complex_vertices(tgt)):
            if self.is_map(f, src, tgt):
                yield f

    def count_maps(self, src, tgt) -> int:
        return super().count_maps(complex_vertices(src), complex_vertices(tgt))

    def is_injective(self, f, src) -> bool:
        if _is_inclusion(f):
            return True
        return len({self.apply_simplex(f, sigma) for sigma in src}) == len(src)

    def fiber_product(self, f, h, x_obj, b_obj):
        raise CategoryError("fiber products are not supported in Complex")


FINSET = FinSetCategory()
F2VEC = F2VecCategory()
COMPLEX = ComplexCategory()

CATEGORIES = {c.name: c for c in (FINSET, F2VEC, COMPLEX)}


def get_category(name: str):
    try:
        return CATEGORIES[name]
    except KeyError:
        raise CategoryError(f"unknown category {name!r}") from None
