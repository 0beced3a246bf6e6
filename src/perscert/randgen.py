"""Seeded random instance generators used by the test suite and
``scripts/zigzag_constants.py``. Everything is driven by a ``random.Random``
so identical seeds give identical instances.

The interleaved-pair generators produce *genuine* certificates: the partner
object is the source precomposed with a monotone reindexing that moves each
grade down by at most the shift, so every certificate component is a structure
map and the triangle identities hold by construction.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .complexes import FilteredComplex, MetricInput, to_persistent
from .gf2 import GF2Matrix
from .grades import Grade, rat
from .invariants import Bar, Barcode
from .persist import (
    DeltaMorphism,
    Grid,
    InterleavingCert,
    PersistentObject,
    _Leg,
    _structure_morphism,
    extend_floor,
    integer_object,
    restrict_to_Z,
    shift_morphism,
)
from .rectify import reindex


# -- scalars ------------------------------------------------------------------


def rand_rational(rng: random.Random, lo: int = -2, hi: int = 4,
                  denominator: int = 4) -> Fraction:
    return Fraction(rng.randint(lo * denominator, hi * denominator), denominator)


def rand_axis(rng: random.Random, size: int, lo: int = -2, hi: int = 4) -> list[Fraction]:
    vals: set[Fraction] = set()
    while len(vals) < size:
        vals.add(rand_rational(rng, lo, hi))
    return sorted(vals)


# -- pointwise data -----------------------------------------------------------


def _rand_finset_chain(rng: random.Random, length: int, max_size: int):
    """Random sets and maps along a line; empty sets form a prefix so that
    every map has a nonempty target when its source is nonempty."""
    first_nonempty = rng.randint(0, length)
    sizes = [0 if i < first_nonempty else rng.randint(1, max_size)
             for i in range(length)]
    values = [frozenset(f"x{k}" for k in range(s)) for s in sizes]
    maps = []
    for a, b in zip(values, values[1:]):
        tgt = sorted(b)
        maps.append({e: rng.choice(tgt) for e in sorted(a)} if a else {})
    return values, maps


def _rand_f2vec_chain(rng: random.Random, length: int, max_dim: int):
    dims = [rng.randint(0, max_dim) for _ in range(length)]
    values = list(dims)
    maps = []
    for a, b in zip(dims, dims[1:]):
        rows = [[rng.randint(0, 1) for _ in range(a)] for _ in range(b)]
        maps.append(GF2Matrix(rows, b, a))
    return values, maps


def rand_finset_object(rng: random.Random, lo: int = -4, hi: int = 4,
                       max_size: int = 5) -> PersistentObject:
    values, maps = _rand_finset_chain(rng, hi - lo + 1, max_size)
    return integer_object("FinSet", values, maps, lo)


def rand_f2vec_object(rng: random.Random, lo: int = -4, hi: int = 4,
                      max_dim: int = 3) -> PersistentObject:
    values, maps = _rand_f2vec_chain(rng, hi - lo + 1, max_dim)
    return integer_object("F2Vec", values, maps, lo)


def rand_real_object(rng: random.Random, category: str = "FinSet",
                     n_grades: int = 4, max_size: int = 4) -> PersistentObject:
    """Random 1-parameter object on a random rational axis."""
    axis = rand_axis(rng, n_grades)
    if category == "FinSet":
        values, maps = _rand_finset_chain(rng, n_grades, max_size)
    elif category == "F2Vec":
        values, maps = _rand_f2vec_chain(rng, n_grades, max_size)
    else:
        raise ValueError(f"unsupported category {category!r}")
    grid = Grid([axis])
    objects = {(i,): v for i, v in enumerate(values)}
    edges = {((i,), 0): f for i, f in enumerate(maps)}
    return PersistentObject(grid, category, objects, edges)


# -- genuine interleavings ----------------------------------------------------


def monotone_tau(rng: random.Random, lo: int, hi: int, m: int):
    """Monotone tau with n - m <= tau(n) <= n and tau(hi) = hi."""
    tau = {}
    prev = lo - m
    for n in range(lo, hi + 1):
        tau[n] = hi if n == hi else rng.randint(max(prev, n - m), n)
        prev = tau[n]
    return lambda n: tau[n]


def interleaved_pair(rng: random.Random, x: PersistentObject, m: int = 1
                     ) -> tuple[PersistentObject, InterleavingCert]:
    """A partner y = x . tau together with a genuine (m, m)-interleaving whose
    legs are structure maps of x."""
    axis = x.grid.axes[0]
    lo, hi = int(axis[0]), int(axis[-1])
    tau = monotone_tau(rng, lo, hi, m)
    y = reindex(x, tau)
    shift = Grade([m])
    # the merged grids run over [lo - m, hi]: f ends at or above lo, and g
    # starts below x's grid exactly when its source y is initial
    f = _structure_morphism(x, x, y, shift, lambda v: v, lambda v: tau(min(v + m, hi)))
    g = _structure_morphism(x, y, x, shift, lambda v: v if v < lo else tau(v),
                            lambda v: v + m)
    return y, InterleavingCert(f, g)


def natural_map_into(rng: random.Random, y: PersistentObject
                     ) -> tuple[PersistentObject, DeltaMorphism]:
    """A random plain (0-shift) natural map h: b -> y, where b = y . tau' for
    a monotone tau' <= id and h is given by structure maps of y."""
    axis = y.grid.axes[0]
    lo, hi = int(axis[0]), int(axis[-1])
    tau = monotone_tau(rng, lo, hi, 1)

    def tau_id_capped(n):
        # drop the tau(hi) = hi constraint: any monotone tau' <= id works here
        return min(tau(n), n)

    b = reindex(y, tau_id_capped)
    h = _structure_morphism(y, b, y, Grade([0]), tau_id_capped, lambda v: v)
    return b, h


def lift_cert_to_real(x: PersistentObject, y: PersistentObject,
                      cert: InterleavingCert, r) -> InterleavingCert:
    """View a 1-interleaving of Z-indexed objects as an (r, r)-interleaving
    of their floor-extensions, for rational r >= 1. ``extend_floor`` keeps
    the grids, so the components carry over."""
    r = rat(r)
    ex, ey = extend_floor(x), extend_floor(y)
    f = DeltaMorphism._on(_Leg(ex, ey, cert.f.shift), cert.f.components)
    g = DeltaMorphism._on(_Leg(ey, ex, cert.g.shift), cert.g.components)
    return InterleavingCert(shift_morphism(f, Grade([r])),
                            shift_morphism(g, Grade([r])))


def corrupt_certificate(rng: random.Random, cert: InterleavingCert
                        ) -> InterleavingCert:
    """Replace one f-component with a different map of the same type when
    possible; returns a (usually invalid) certificate for negative tests."""
    f = cert.f
    cat = f.category
    points = list(f.grid.indices())
    rng.shuffle(points)
    for p in points:
        src = f.source.at(f.at_source[p])
        tgt = f.target.at(f.at_target[p])
        current = f.components[p]
        others = [m for m in cat.enumerate_maps(src, tgt) if m != current]
        if others:
            components = dict(f.components)
            components[p] = rng.choice(others)
            return InterleavingCert(DeltaMorphism._on(f._leg, components), cert.g)
    return cert  # nothing corruptible (e.g. everything empty)


# -- complexes and metrics ----------------------------------------------------


def rand_metric(rng: random.Random, n: int, max_dist: int = 4,
                integer: bool = False) -> MetricInput:
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = Fraction(rng.randint(1, max_dist)) if integer else \
                Fraction(rng.randint(1, 2 * max_dist), 2)
            dist[i][j] = dist[j][i] = d
    return MetricInput(range(n), dist)


def rand_filtered_complex(rng: random.Random, n_vertices: int = 4,
                          max_grade: int = 3) -> FilteredComplex:
    """Random 1-parameter filtered complex: all vertices, a random edge set,
    and triangles over present edges, with monotone integer grades."""
    verts = list(range(n_vertices))
    grade = {(v,): Grade([rng.randint(0, 1)]) for v in verts}
    simplices = set(grade)
    for i in range(n_vertices):
        for j in range(i + 1, n_vertices):
            if rng.random() < 0.6:
                e = (i, j)
                floor = max(grade[(i,)].coords[0], grade[(j,)].coords[0])
                simplices.add(e)
                grade[e] = Grade([rng.randint(int(floor), max_grade)])
    for i in range(n_vertices):
        for j in range(i + 1, n_vertices):
            for k in range(j + 1, n_vertices):
                faces = [(i, j), (i, k), (j, k)]
                if all(f in simplices for f in faces) and rng.random() < 0.5:
                    t = (i, j, k)
                    floor = max(grade[f].coords[0] for f in faces)
                    simplices.add(t)
                    grade[t] = Grade([rng.randint(int(floor), max_grade)])
    return FilteredComplex(verts, simplices, grade)


def rand_persistent_complex(rng: random.Random, n_vertices: int = 4
                            ) -> PersistentObject:
    """Z-indexed persistent complex from a random integer-graded filtration."""
    fc = rand_filtered_complex(rng, n_vertices)
    return restrict_to_Z(to_persistent(fc))


def rand_complex_interleaving(rng: random.Random, n_vertices: int = 4,
                              m: int = 1
                              ) -> tuple[PersistentObject, PersistentObject,
                                         InterleavingCert]:
    x = rand_persistent_complex(rng, n_vertices)
    y, cert = interleaved_pair(rng, x, m)
    return x, y, cert


# -- barcodes -----------------------------------------------------------------


def rand_barcode(rng: random.Random, max_bars: int = 5,
                 allow_infinite: bool = True) -> Barcode:
    bars = []
    for _ in range(rng.randint(0, max_bars)):
        birth = Fraction(rng.randint(0, 8), 2)
        if allow_infinite and rng.random() < 0.25:
            bars.append(Bar(birth, None))
        else:
            bars.append(Bar(birth, birth + Fraction(rng.randint(1, 6), 2)))
    return Barcode(bars)
