"""Library builders trust what they derive: they build their outputs with
``PersistentObject._of``, ``DeltaMorphism._on``, ``FilteredComplex._of``
and ``Grid._of``, which check nothing. Here every such builder runs on seeded inputs, and each
output is rebuilt through the validating (or, for filtered complexes,
normalizing) constructors, which raise unless it is valid. This is the
oracle that stands in for re-checking derived data at run time."""

import random
from fractions import Fraction

import pytest

from perscert import (
    DeltaMorphism,
    FilteredComplex,
    Grid,
    MetricInput,
    PersistentObject,
    check_interleaving,
    degree_rips,
    even_odd_restrict,
    extend_floor,
    floor_roundtrip_cert,
    function_rips,
    homology,
    homology_cert,
    pi0,
    pi0_induced,
    pullback_interleaving,
    rescale,
    rescale_cert,
    restrict_to_Z,
    self_interleaving,
    skeleton,
    slice_axis,
    sq_gadget,
    to_persistent,
    vietoris_rips,
    zigzag,
)
from perscert import serialize as ser
from perscert.complexes import SQUARE_GRID
from perscert.grades import grade, scale
from perscert.invariants import linearize
from perscert.randgen import (
    corrupt_certificate,
    interleaved_pair,
    lift_cert_to_real,
    natural_map_into,
    rand_complex_interleaving,
    rand_f2vec_object,
    rand_filtered_complex,
    rand_finset_object,
    rand_metric,
    rand_real_object,
)


def revalidated(x: PersistentObject) -> PersistentObject:
    """x rebuilt by the validating constructors, which raise unless x is
    valid; the rebuilt object equals x. Its grid, rebuilt from the Fraction
    axes, equals it, so each axis of a builder's grid increases strictly
    over its least common denominator."""
    grid = Grid(x.grid.axes)
    assert grid == x.grid
    y = PersistentObject(grid, x.category_name, x.objects, x.edge_maps, x.integer_indexed)
    assert y == x
    return y


def revalidated_morphism(f: DeltaMorphism) -> None:
    """f rebuilt between its rebuilt source and target by the validating
    constructor; it equals f and is natural."""
    g = DeltaMorphism(revalidated(f.source), revalidated(f.target), f.shift, f.components)
    assert g.equals(f)
    assert g.is_natural()


def revalidated_cert(cert) -> None:
    revalidated_morphism(cert.f)
    revalidated_morphism(cert.g)
    assert check_interleaving(cert).valid


def test_filtrations_and_their_invariants_are_valid():
    """_inclusions (to_persistent, degree_rips), _sample (restrict_to_Z),
    slice_axis and the pi0, H_n and F2[-] images of persistent complexes."""
    for seed in range(12):
        rng = random.Random(seed)
        x = revalidated(to_persistent(rand_filtered_complex(rng, n_vertices=5)))
        z = revalidated(restrict_to_Z(x))
        revalidated(linearize(revalidated(pi0(z))))
        for n in (0, 1):
            revalidated(homology(x, n))
        d = revalidated(degree_rips(rand_metric(rng, rng.randint(1, 6)), 2))
        revalidated(pi0(d))
        for axis in (0, 1):
            values = d.grid.axes[axis]
            for value in (values[0] - 1, values[len(values) // 2], values[-1] + 1):
                revalidated(homology(revalidated(slice_axis(d, axis, value)), 0))


def renormalized(f: FilteredComplex) -> FilteredComplex:
    """f rebuilt by the constructor, which normalizes every simplex; the
    rebuilt complex equals f, so f's simplices were already sorted tuples,
    held in a frozenset as the constructor holds them."""
    assert type(f.simplices) is frozenset
    g = FilteredComplex(f.vertices, f.simplices, f.grade, f.m)
    assert g == f
    return g


def test_rips_builders_and_the_decoder_give_normalized_complexes():
    """FilteredComplex._of (vietoris_rips, function_rips and
    decode_filtered_complex), on vertex names in and out of order and of
    mixed kinds."""
    for seed in range(12):
        rng = random.Random(seed)
        metric = rand_metric(rng, rng.randint(0, 6))
        names = [[3, 1, 0, 2, 5, 4], ["b", "a", "c", "e", "d", "f"],
                 [0, "a", 2, "b", 10, 9]][seed % 3][:metric.n]
        for points in (metric.points, names):
            values = [rng.randint(0, 3) for _ in points]
            mi = MetricInput(points, metric.dist, values)
            for f in (vietoris_rips(mi, 2), function_rips(mi, 2)):
                renormalized(f)
                doc = ser.encode_filtered_complex(f)
                assert renormalized(ser.decode_filtered_complex(doc)) == f
                for entry in doc["simplices"]:  # the decoder sorts each simplex
                    entry["v"].reverse()
                assert renormalized(ser.decode_filtered_complex(doc)) == f
    renormalized(ser.decode_filtered_complex({"format": ser.FORMAT_COMPLEX, "m": 2}))


def test_skeleta_are_normalized_complexes():
    """FilteredComplex._of (skeleton) at n = 0 to 2, on seeded complexes and
    on Rips complexes of vertex names in and out of order."""
    for seed in range(12):
        rng = random.Random(seed)
        metric = rand_metric(rng, rng.randint(0, 6))
        names = ["b", "a", "c", "e", "d", "f"][:metric.n]
        complexes = [rand_filtered_complex(rng, n_vertices=5),
                     vietoris_rips(MetricInput(names, metric.dist), 3)]
        for f in complexes:
            for n in range(3):
                renormalized(skeleton(f, n))


def test_empty_complexes_are_valid():
    revalidated(to_persistent(FilteredComplex([], [], {}, 2)))
    revalidated(degree_rips(MetricInput([], []), 2))


def test_sq_gadget_of_a_commuting_square_is_valid():
    edge = frozenset({("a",), ("b",), ("a", "b")})
    point = frozenset({("c",)})
    square = PersistentObject(
        SQUARE_GRID, "Complex",
        {(0, 0): frozenset({("a",), ("b",)}), (1, 0): edge, (0, 1): point, (1, 1): point},
        {((0, 0), 0): {"a": "a", "b": "b"}, ((0, 0), 1): {"a": "c", "b": "c"},
         ((1, 0), 1): {"a": "c", "b": "c"}, ((0, 1), 0): {"c": "c"}},
    )
    revalidated(square)
    x = revalidated(sq_gadget(square))
    revalidated(pi0(x))


@pytest.mark.parametrize("kind", ["FinSet", "F2Vec", "Complex"])
@pytest.mark.parametrize("m", [1, 2])
def test_interleaving_builders_give_valid_outputs(kind, m):
    """_sample (reindex, the even and odd restrictions), the zig-zag diagonal,
    extend_floor, rescale, rescale_morphism, lift_cert_to_real, the pullback,
    and the pi0 and H_n images of morphisms and certificates."""
    for seed in range(6):
        rng = random.Random(100 * m + seed)
        if kind == "Complex":
            x, y, cert = rand_complex_interleaving(rng, 4, m)
        else:
            make = rand_finset_object if kind == "FinSet" else rand_f2vec_object
            x = make(rng, -3, 3, 3)
            y, cert = interleaved_pair(rng, x, m)
        revalidated(y)
        revalidated_cert(cert)
        revalidated_cert(even_odd_restrict(x, m)[2])
        result = zigzag(cert, m)
        revalidated(result.c)
        for piece in (result.piece_a, result.piece_mid, result.piece_b, result.composite):
            revalidated_cert(piece)
        revalidated(extend_floor(x))
        revalidated_cert(rescale_cert(cert, Fraction(3, 2)))
        if m == 1:
            revalidated_cert(lift_cert_to_real(cert, Fraction(5, 4)))
        if kind == "Complex":  # Complex has no fiber products, so no pullback
            revalidated(pi0(x))
            revalidated_morphism(pi0_induced(cert.f))
            for n in (0, 1):
                revalidated_cert(homology_cert(cert, n))
        else:
            b, h = natural_map_into(rng, y)
            revalidated(b)
            pulled = pullback_interleaving(cert, h)
            revalidated_cert(pulled.cert)
            revalidated_morphism(pulled.projection)


def test_rescaled_and_floor_extended_real_objects_are_valid():
    for seed in range(10):
        rng = random.Random(seed)
        x = rand_real_object(rng, "F2Vec" if seed % 2 else "FinSet")
        revalidated(rescale(x, Fraction(2, 3)))
        revalidated_cert(floor_roundtrip_cert(x))


# -- homology at m = 2 ----------------------------------------------------------


def hollow_triangle_square() -> PersistentObject:
    """A commuting square of complexes whose (1, 0) corner is a hollow
    triangle, so H_1 of its gadget is nonzero."""
    path = frozenset({("a",), ("b",), ("c",), ("a", "b"), ("b", "c")})
    point = frozenset({("c",)})
    to_c = {"a": "c", "b": "c", "c": "c"}
    return PersistentObject(
        SQUARE_GRID, "Complex",
        {(0, 0): path, (1, 0): path | {("a", "c")}, (0, 1): point, (1, 1): point},
        {((0, 0), 0): {"a": "a", "b": "b", "c": "c"}, ((0, 0), 1): to_c,
         ((1, 0), 1): to_c, ((0, 1), 0): {"c": "c"}},
    )


def two_parameter_complexes():
    """Degree-Rips objects of seeded 5-12 point metrics, sublevel filtrations
    of function-Rips bifiltrations, and the gadget of a commuting square."""
    for seed, n in enumerate((5, 8, 12)):
        rng = random.Random(seed)
        metric = rand_metric(rng, n)
        yield degree_rips(metric, 2)
        if n < 12:
            values = [rng.randint(0, 3) for _ in range(n)]
            yield to_persistent(function_rips(MetricInput(metric.points, metric.dist, values), 2))
    yield sq_gadget(hollow_triangle_square())


def small_enough_to_corrupt(cert) -> bool:
    """``corrupt_certificate`` lists every map at a point, except for F2Vec,
    whose map it draws by its position; keep that list short."""
    f = cert.f
    return f.source.category_name == "F2Vec" or all(
        f.category.count_maps(f.source.at(f.at_source[p]), f.target.at(f.at_target[p]))
        <= 2 ** 12 for p in f.grid.indices())


def test_homology_of_two_parameter_complexes_is_valid_and_commutes_with_slices():
    """H_0 and H_1 at m = 2: each is valid, commuting squares included;
    each axis slice of H_n(x) is H_n of that slice of x; the image of a
    self-interleaving replays; and rescaling a certificate, genuine or
    corrupted, keeps its verdict and identity and divides its grade."""
    refuted = 0
    for x in two_parameter_complexes():
        assert x.m == 2
        for n in (0, 1):
            h = revalidated(homology(x, n))
            for axis in (0, 1):
                values = x.grid.axes[axis]
                for value in (values[0] - 1, *values, values[-1] + 1):
                    assert slice_axis(h, axis, value) == homology(slice_axis(x, axis, value), n)
            cert = homology_cert(self_interleaving(x, grade(1, 1)), n)
            revalidated_cert(cert)
            certs = [cert]
            if small_enough_to_corrupt(cert):
                certs.append(corrupt_certificate(random.Random(n), cert))
            for k in certs:
                before = check_interleaving(k)
                refuted += not before.valid
                for c in (2, Fraction(1, 3)):
                    after = check_interleaving(rescale_cert(k, c))
                    assert (after.valid, after.identity) == (before.valid, before.identity)
                    assert after.grade == (None if before.grade is None
                                           else scale(before.grade, Fraction(1) / c))
    assert refuted
