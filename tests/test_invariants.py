"""Persistent invariants: connected components, GF(2) homology, barcodes."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from perscert import (
    Bar,
    FilteredComplex,
    Barcode,
    DimensionError,
    Grade,
    MetricInput,
    ValidationError,
    barcode,
    function_rips,
    grade,
    homology,
    homology_cert,
    induces_interleaving_in_pi0,
    pi0,
    slice_axis,
    to_persistent,
    vietoris_rips,
)
from perscert import invariants
from perscert.categories import COMPLEX, complex_vertices, total_order
from perscert.gf2 import GF2Matrix
from perscert.invariants import (
    components_of_complex,
    filtration_barcode,
    induced_h_map,
    linearize,
    pi0_induced,
)
from perscert.persist import (
    DeltaMorphism,
    PersistentObject,
    check_interleaving,
    compose,
    integer_object,
)
from perscert.randgen import (
    interleaved_pair,
    rand_complex_interleaving,
    rand_f2vec_object,
    rand_filtered_complex,
    rand_finset_object,
    rand_metric,
    rand_persistent_complex,
    rand_real_object,
)

from oracles import barcode_by_ranks, bfs_component_count, filtration_order_by_fractions

COLLINEAR = MetricInput([0, 1, 3], [[0, 1, 3], [1, 0, 2], [3, 2, 0]])


def four_cycle():
    """Vertices at 0, four boundary edges at 1, diagonals and triangles at 2."""
    verts = [0, 1, 2, 3]
    boundary = [(0, 1), (1, 2), (2, 3), (0, 3)]
    diagonals = [(0, 2), (1, 3)]
    triangles = list(itertools.combinations(verts, 3))
    grades = {(v,): grade(0) for v in verts}
    grades.update({e: grade(1) for e in boundary})
    grades.update({s: grade(2) for s in diagonals + triangles})
    return to_persistent(
        FilteredComplex(verts, grades.keys(), grades)
    )


def test_pi0_counts_match_bfs_at_every_grid_point():
    for seed in range(20):
        x = rand_persistent_complex(random.Random(seed))
        comps = pi0(x)
        for p in x.grid.points():
            assert len(comps.evaluate(p)) == bfs_component_count(x.evaluate(p))


def test_pi0_of_collinear_rips_counts_3_2_1():
    x = to_persistent(vietoris_rips(COLLINEAR, 2))
    comps = pi0(x)
    assert [len(comps.evaluate(grade(t))) for t in (0, 1, 2, 3)] == [3, 2, 1, 1]


def test_pi0_induced_is_functorial():
    for seed in range(5):
        rng = random.Random(seed)
        x = rand_persistent_complex(rng)
        y, cert = interleaved_pair(rng, x, 1)
        pf, pg = pi0_induced(cert.f), pi0_induced(cert.g)
        assert pf.is_natural() and pg.is_natural()
        assert pi0_induced(compose(cert.f, cert.g)).equals(compose(pf, pg))


def test_complex_interleaving_induces_one_in_pi0():
    for seed in range(10):
        _, _, cert = rand_complex_interleaving(random.Random(seed))
        ok, pi0_cert = induces_interleaving_in_pi0(cert.f, cert.delta)
        assert ok and check_interleaving(pi0_cert).valid


def test_no_pi0_interleaving_when_component_counts_differ_beyond_delta():
    # two points that stay apart, mapped onto two points joined from grade 1 on
    apart = frozenset({(0,), (1,)})
    joined = apart | {(0, 1)}
    ident = {0: 0, 1: 1}
    x = integer_object("Complex", [apart] * 4, [ident] * 3, 0)
    y = integer_object("Complex", [apart] + [joined] * 3, [ident] * 3, 0)
    f = DeltaMorphism.from_fn(x, y, grade(0), lambda r: ident)
    assert induces_interleaving_in_pi0(f, grade(1)) == (False, None)


def test_pi0_cardinality_equals_h0_rank_everywhere():
    for seed in range(10):
        x = rand_persistent_complex(random.Random(seed))
        comps = pi0(x)
        h0 = homology(x, 0)
        for p in x.grid.points():
            assert len(comps.evaluate(p)) == h0.evaluate(p)


def test_linearized_components_have_the_barcode_of_h0():
    for seed in range(30):
        x = rand_persistent_complex(random.Random(seed))
        h0 = homology(x, 0)
        assert barcode(linearize(pi0(x))) == barcode(h0)
    assert linearize(h0) is h0


def test_h0_of_a_point_is_rank_one_from_its_grade_on():
    x = to_persistent(
        FilteredComplex(["a"], {("a",)}, {("a",): grade(2)})
    )
    h0 = homology(x, 0)
    assert h0.evaluate(grade(2)) == 1
    assert barcode(h0).bars == (Bar(2, None),)


def test_four_cycle_h1_is_one_bar():
    h1 = homology(four_cycle(), 1)
    assert h1.evaluate(grade(1)) == 1
    assert h1.evaluate(grade(2)) == 0
    assert barcode(h1).bars == (Bar(1, 2),)


def test_barcode_is_rank_exact():
    # rank of phi_{r,s} equals the number of bars containing [r, s]
    for seed in range(10):
        x = rand_persistent_complex(random.Random(seed))
        for n in (0, 1):
            module = homology(x, n)
            bars = barcode(module).bars
            axis = module.grid.axes[0]
            for r in axis:
                for s in axis:
                    if r > s:
                        continue
                    rank = module.structure_map(Grade([r]), Grade([s])).rank()
                    contains = sum(
                        1
                        for b in bars
                        if b.birth <= r and (b.death is None or s < b.death)
                    )
                    assert rank == contains


def test_barcode_equals_the_rank_inclusion_exclusion():
    # arbitrary matrices, so zero maps and zero-dimensional spaces occur
    modules = []
    for seed in range(150):
        rng = random.Random(seed)
        modules.append(rand_real_object(rng, "F2Vec", n_grades=rng.randint(1, 7),
                                        max_size=rng.randint(0, 4)))
        modules.append(rand_f2vec_object(rng, lo=-3, hi=rng.randint(-3, 4),
                                         max_dim=rng.randint(0, 4)))
    for module in modules:
        assert barcode(module) == barcode_by_ranks(module)
    assert any(not module.objects[idx] for module in modules for idx in module.objects)
    assert any(not any(f.bits) for module in modules for f in module.edge_maps.values())


def test_barcode_holds_no_vector_of_its_last_grade():
    """The vectors born at the last grade are counted, not held: a one-grade
    module of dimension 20,000, stated in a few bytes, is 20,000 infinite
    bars, traced under 8 MB (a unit bitset each would be 25 MB)."""
    x = integer_object("F2Vec", [20_000], [], 0)
    tracemalloc.start()
    try:
        bars = barcode(x).bars
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bars == (Bar(0, None),) * 20_000
    assert peak < 8_000_000, peak


def test_barcode_rank_at_counts_open_intervals():
    b = Barcode([Bar(0, 2), Bar(1, None)])
    assert [b.rank_at(t) for t in (0, 1, 2, 3)] == [1, 2, 1, 1]


def test_homology_cert_of_a_complex_interleaving_is_valid():
    for seed in range(5):
        rng = random.Random(seed)
        x = rand_persistent_complex(rng)
        y, cert = interleaved_pair(rng, x, 1)
        for n in (0, 1):
            assert check_interleaving(homology_cert(cert, n)).valid


def test_slice_axis_restricts_a_bifiltration_to_one_parameter():
    mi = MetricInput([0, 1], [[0, 2], [2, 0]], values=[0, 1])
    from perscert import function_rips

    x = to_persistent(function_rips(mi, 1))
    line = slice_axis(x, 1, 1)  # fix the function value at 1
    assert line.m == 1
    h0 = homology(line, 0)
    assert barcode(h0).rank_at(0) == 2
    assert barcode(h0).rank_at(2) == 1


@pytest.mark.parametrize("axis", [-1, 2])
def test_slice_axis_refuses_an_axis_outside_0_and_1(axis):
    mi = MetricInput([0, 1], [[0, 2], [2, 0]], values=[0, 1])
    with pytest.raises(DimensionError, match="axis"):
        slice_axis(to_persistent(function_rips(mi, 1)), axis, 1)


def seeded_rips(seed):
    rng = random.Random(seed)
    return to_persistent(vietoris_rips(rand_metric(rng, rng.randint(6, 8), max_dist=12), 2))


def test_homology_edges_equal_induced_h_map_on_each_edge():
    for seed in range(8):
        x = seeded_rips(seed)
        for n in (0, 1):
            module = homology(x, n)
            for (idx, a), vmap in x.edge_maps.items():
                tgt = idx[:a] + (idx[a] + 1,) + idx[a + 1:]
                expected = induced_h_map(x.objects[idx], x.objects[tgt], vmap, n)
                assert module.edge_maps[(idx, a)] == expected


def test_filtration_barcode_equals_the_barcode_of_persistent_homology():
    # integer distances tie the grades of Rips simplices; random filtrations
    # also give simplices born with their cofaces and complexes with no edges
    complexes = []
    for seed in range(150):
        rng = random.Random(seed)
        complexes.append(rand_filtered_complex(rng, rng.randint(1, 6)))
        complexes.append(vietoris_rips(
            rand_metric(rng, rng.randint(1, 8), max_dist=3, integer=seed % 2 == 0), 3))
    degrees_with_bars = set()
    for f in complexes:
        x = to_persistent(f)
        for n in (0, 1, 2):
            bars = filtration_barcode(f, n)
            assert bars == barcode(homology(x, n))
            if bars.bars:
                degrees_with_bars.add(n)
    assert degrees_with_bars == {0, 1, 2}


def test_filtration_order_agrees_with_the_fraction_oracle():
    """Rips complexes of up to 9 points whose dissimilarities have mixed
    denominators, tie and may be 0 between distinct points, and random
    filtrations: the order by rank is the order by Fraction, and the bars
    are those of persistent homology."""
    values = [Fraction(0), Fraction(1, 3), Fraction(1, 6), Fraction(5, 2), Fraction(1, 2)]
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(0, 9)
        dist = [[Fraction(0)] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            dist[i][j] = dist[j][i] = rng.choice(values)
        for f in (vietoris_rips(MetricInput(range(n), dist), 3),
                  rand_filtered_complex(rng, rng.randint(1, 6))):
            for dim in range(4):
                assert invariants._filtration_order(f, dim) == \
                    filtration_order_by_fractions(f, dim)
            if n <= 6:
                for dim in (0, 1):
                    assert filtration_barcode(f, dim) == barcode(homology(to_persistent(f), dim))


def _missing_face(m):
    return FilteredComplex([0, 1], [(0,), (0, 1)], {(0,): Grade([0] * m),
                                                  (0, 1): Grade([1] * m)})


@pytest.mark.parametrize("f, n", [
    (_missing_face(2), -1),
    (function_rips(MetricInput([0, 1], [[0, 1], [1, 0]], values=[0, 1]), 1), -1),
    (FilteredComplex([], [], {}, 2), 0),
    (FilteredComplex([], [], {}), -1),
], ids=["invalid-first", "m-before-degree", "empty-m-2", "empty-negative-degree"])
def test_filtration_barcode_raises_as_persistent_homology_does(f, n):
    with pytest.raises(Exception) as direct:
        filtration_barcode(f, n)
    with pytest.raises(Exception) as module:
        barcode(homology(to_persistent(f), n))
    assert type(direct.value) is type(module.value)
    assert str(direct.value) == str(module.value)


def test_negative_homology_degree_is_rejected():
    x = seeded_rips(0)
    k = x.objects[(0,)]
    _, _, cert = rand_complex_interleaving(random.Random(0))
    for build in (lambda: homology(x, -1),
                  lambda: homology_cert(cert, -1),
                  lambda: induced_h_map(k, k, {v: v for s in k for v in s}, -1)):
        with pytest.raises(ValidationError, match=r"homology degree needs n >= 0, got -1"):
            build()


def test_homology_computes_one_basis_per_grid_point(monkeypatch):
    calls = []
    real = invariants.homology_basis

    def counting(k, n):
        calls.append(k)
        return real(k, n)

    monkeypatch.setattr(invariants, "homology_basis", counting)
    for seed in range(8):
        x = seeded_rips(seed)
        for n in (0, 1):
            calls.clear()
            homology(x, n)
            assert len(calls) == len(list(x.grid.indices()))
            assert set(calls) == set(x.objects.values())


def complex_legs(seeds):
    for seed in seeds:
        rng = random.Random(seed)
        x = rand_persistent_complex(rng)
        y, cert = interleaved_pair(rng, x, 1)
        yield cert


def pointwise(f):
    """(index, source complex, target complex, vertex map) of a morphism."""
    for idx, vmap in f.components.items():
        yield idx, f.source.at(f.at_source[idx]), f.target.at(f.at_target[idx]), vmap


def collapse(x):
    """The 0-morphism from a persistent complex (with vertex-identity edge
    maps) onto its image under the vertex map v -> v // 2 + 10."""
    rename = {v: v // 2 + 10 for k in x.objects.values() for v in complex_vertices(k)}
    objects = {idx: frozenset(COMPLEX.apply_simplex(rename, s) for s in k)
               for idx, k in x.objects.items()}
    edges = {key: {rename[v]: rename[w] for v, w in vmap.items()}
             for key, vmap in x.edge_maps.items()}
    y = PersistentObject(x.grid, "Complex", objects, edges, integer_indexed=True)
    return DeltaMorphism(x, y, grade(0), {idx: {v: rename[v] for v in complex_vertices(k)}
                                          for idx, k in x.objects.items()})


def test_pi0_induced_maps_each_vertex_component_to_its_image_component():
    for cert in complex_legs(range(10)):
        for f in (cert.f, cert.g, collapse(cert.f.source)):
            pf = pi0_induced(f)
            assert pf.source == pi0(f.source) and pf.target == pi0(f.target)
            for idx, k, l, vmap in pointwise(f):
                src, tgt = components_of_complex(k), components_of_complex(l)
                assert pf.components[idx] == {src[v]: tgt[vmap[v]] for v in src}


def test_homology_cert_components_are_induced_h_maps():
    for cert in complex_legs(range(8)):
        for n in (0, 1):
            hcert = homology_cert(cert, n)
            for f, hf in ((cert.f, hcert.f), (cert.g, hcert.g)):
                assert hf.source == homology(f.source, n)
                assert hf.target == homology(f.target, n)
                for idx, k, l, vmap in pointwise(f):
                    assert hf.components[idx] == induced_h_map(k, l, vmap, n)


def linearize_per_point(x):
    """F2[X] built point by point: the basis at each grid index is X there in
    total_order, and each edge map sends basis element e to f(e)."""
    bases = {idx: total_order(x.objects[idx]) for idx in x.grid.indices()}
    edges = {}
    for idx, a, nxt in x.grid.edges():
        f, tgt = x.edge_maps[(idx, a)], bases[nxt]
        edges[(idx, a)] = GF2Matrix.from_columns(
            [1 << tgt.index(f[e]) for e in bases[idx]], len(tgt))
    return PersistentObject(x.grid, "F2Vec", {idx: len(b) for idx, b in bases.items()},
                            edges, integer_indexed=x.integer_indexed)


def test_linearize_equals_the_per_point_construction():
    for seed in range(30):
        rng = random.Random(seed)
        x = (rand_finset_object(rng, lo=-3, hi=3) if seed % 2
             else rand_real_object(rng, "FinSet", n_grades=5))
        assert linearize(x) == linearize_per_point(x)
