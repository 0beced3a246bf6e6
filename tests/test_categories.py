"""The three concrete categories: finite sets, GF(2) vector spaces, and
finite simplicial complexes with vertex maps."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perscert.categories import (
    COMPLEX,
    F2VEC,
    FINSET,
    complex_vertices,
    get_category,
    simplex,
    total_order,
)
from perscert.complexes import degree_rips
from perscert.errors import CategoryError
from perscert.gf2 import GF2Matrix
from perscert.randgen import rand_metric

from oracles import check_complex_by_simplices


def test_get_category_names():
    assert get_category("FinSet") is FINSET
    assert get_category("F2Vec") is F2VEC
    assert get_category("Complex") is COMPLEX
    with pytest.raises(CategoryError):
        get_category("Top")


def test_finset_identity_and_composition_laws():
    a = frozenset({"x", "y"})
    b = frozenset({"u", "v", "w"})
    for f in FINSET.enumerate_maps(a, b):
        assert FINSET.is_map(f, a, b)
        assert FINSET.compose(f, FINSET.identity(a)) == f
        assert FINSET.compose(FINSET.identity(b), f) == f
    assert FINSET.count_maps(a, b) == 9
    assert FINSET.count_maps(b, a) == 8
    # initial object: exactly one map out, none in from nonempty
    assert FINSET.count_maps(FINSET.initial(), b) == 1
    assert FINSET.count_maps(b, FINSET.initial()) == 0


@pytest.mark.parametrize("cat, b", [(FINSET, frozenset({"u", "v"})),
                                    (COMPLEX, frozenset({("u",), ("v",), ("u", "v")}))])
def test_the_maps_out_of_and_into_the_empty_object(cat, b):
    # one empty map out of the empty object, into anything; none from a
    # nonempty object into it
    empty = cat.initial()
    for src, tgt, expected in ((empty, b, [{}]), (empty, empty, [{}]), (b, empty, [])):
        maps = list(cat.enumerate_maps(src, tgt))
        assert maps == expected
        assert len(maps) == cat.count_maps(src, tgt)


def test_finset_fiber_product_is_the_equalizing_pair_set():
    x = frozenset({"a", "b", "c"})
    b = frozenset({"p", "q"})
    y = frozenset({"0", "1"})
    f = {"a": "0", "b": "0", "c": "1"}
    h = {"p": "0", "q": "1"}
    w, px, pb, pair = FINSET.fiber_product(f, h, x, b)
    assert len(w) == sum(
        1 for e in x for d in b if f[e] == h[d]
    )
    for e in w:
        assert f[px[e]] == h[pb[e]]
    # universal property on a one-point test object
    t = frozenset({"*"})
    u = {"*": "a"}
    v = {"*": "p"}
    med = pair(u, v, t)
    assert FINSET.compose(px, med) == u
    assert FINSET.compose(pb, med) == v


def test_f2vec_maps_are_matrices_with_composition_as_matmul():
    f = GF2Matrix([[1, 0], [1, 1], [0, 1]], 3, 2)
    g = GF2Matrix([[1, 1, 0]], 1, 3)
    assert F2VEC.is_map(f, 2, 3)
    assert not F2VEC.is_map(f, 3, 2)
    gf = F2VEC.compose(g, f)
    assert gf.rows == (g @ f).rows
    assert F2VEC.compose(f, F2VEC.identity(2)) == f
    assert F2VEC.count_maps(2, 3) == 2 ** 6
    assert F2VEC.initial() == 0


def test_f2vec_fiber_product_dimension_counts_solutions():
    # pull back f: X -> Y along h: B -> Y; dim W = dim ker [f | -h]
    f = GF2Matrix([[1, 0]], 1, 2)
    h = GF2Matrix([[1]], 1, 1)
    w, px, pb, pair = F2VEC.fiber_product(f, h, 2, 1)
    assert w == 2  # pairs (x, b) with x1 = b: dimension 2
    assert px.ncols == w and pb.ncols == w
    assert F2VEC.compose(f, px) == F2VEC.compose(h, pb)
    del pair


def rand_map(rng, cat, src, tgt):
    """A seeded map src -> tgt in FinSet or F2Vec; tgt is nonempty in FinSet
    unless src is empty."""
    if cat is F2VEC:
        return GF2Matrix._of(tuple([rng.getrandbits(src) for _ in range(tgt)]), tgt, src)
    return {s: rng.choice(sorted(tgt)) for s in src}


@pytest.mark.parametrize("cat", [FINSET, F2VEC], ids=lambda c: c.name)
def test_pairing_is_the_unique_map_into_the_fiber_product(cat):
    """For f: X -> Y and h: B -> Y, pair(u, v) is the map into the fiber
    product through which u and v factor when f.u = h.v; it raises
    otherwise. Pairs of the form (proj_x . med, proj_b . med) give med back."""
    rng = random.Random(23)
    obj = (lambda n: n) if cat is F2VEC else (lambda n: frozenset(range(n)))
    landed = refused = 0
    for _ in range(300):
        x, b, y = (obj(rng.randint(1, 3)) for _ in range(3))
        w = obj(rng.randint(0, 3))
        f, h = rand_map(rng, cat, x, y), rand_map(rng, cat, b, y)
        a, px, pb, pair = cat.fiber_product(f, h, x, b)
        assert cat.is_map(px, a, x) and cat.is_map(pb, a, b)
        assert cat.compose(f, px) == cat.compose(h, pb)
        u, v = rand_map(rng, cat, w, x), rand_map(rng, cat, w, b)
        if cat.compose(f, u) == cat.compose(h, v):
            med = pair(u, v, w)
            assert cat.is_map(med, w, a)
            assert cat.compose(px, med) == u and cat.compose(pb, med) == v
            landed += 1
        else:
            with pytest.raises(CategoryError, match="^pairing does not land in the fiber product$"):
                pair(u, v, w)
            refused += 1
        if a or not w:
            med = rand_map(rng, cat, w, a)
            assert pair(cat.compose(px, med), cat.compose(pb, med), w) == med
    assert landed > 30 and refused > 30


def test_simplex_normalizes_vertex_order():
    assert simplex(("b", "a")) == simplex(("a", "b"))
    assert simplex((3, 1, 2)) == (1, 2, 3)


def test_complex_objects_are_face_closed():
    good = frozenset({("a",), ("b",), ("a", "b")})
    COMPLEX.check_object(good)
    with pytest.raises(CategoryError):
        COMPLEX.check_object(frozenset({("a", "b")}))  # missing vertices


def test_complex_maps_act_on_simplices_by_vertex_images():
    k = frozenset({("a",), ("b",), ("a", "b")})
    l = frozenset({("u",)})
    collapse = {"a": "u", "b": "u"}
    assert COMPLEX.is_map(collapse, k, l)
    assert COMPLEX.apply_simplex(collapse, ("a", "b")) == ("u",)
    assert not COMPLEX.is_injective(collapse, k)
    assert COMPLEX.is_injective(COMPLEX.identity(k), k)


def test_complex_enumerate_maps_matches_count():
    k = frozenset({("a",), ("b",)})
    l = frozenset({("u",), ("v",), ("u", "v")})
    maps = list(COMPLEX.enumerate_maps(k, l))
    # two source vertices, two target vertices, every assignment simplicial
    assert len(maps) == COMPLEX.count_maps(k, l) == 4


EDGE = frozenset({("a",), ("b",), ("a", "b")})


def simplexwise_is_map(f, src, tgt):
    return set(f) == complex_vertices(src) and all(
        COMPLEX.apply_simplex(f, s) in tgt for s in src
    )


def simplexwise_is_injective(f, src):
    return len({COMPLEX.apply_simplex(f, s) for s in src}) == len(src)


@pytest.mark.parametrize("f, tgt, is_map, injective", [
    # an inclusion into a larger complex
    ({"a": "a", "b": "b"}, EDGE | {("c",), ("a", "c")}, True, True),
    # an inclusion whose source is not a subcomplex of the target
    ({"a": "a", "b": "b"}, frozenset({("a",), ("b",)}), False, True),
    # maps that fix only some vertices: a renaming and a collapse
    ({"a": "a", "b": "c"}, frozenset({("a",), ("c",), ("a", "c")}), True, True),
    ({"a": "a", "b": "c"}, frozenset({("a",), ("c",)}), False, True),
    ({"a": "a", "b": "a"}, frozenset({("a",)}), True, False),
])
def test_complex_maps_agree_with_the_simplexwise_checks(f, tgt, is_map, injective):
    assert simplexwise_is_map(f, EDGE, tgt) is is_map
    assert simplexwise_is_injective(f, EDGE) is injective
    assert COMPLEX.is_map(f, EDGE, tgt) is is_map
    assert COMPLEX.is_injective(f, EDGE) is injective


def test_a_vertex_map_missing_a_vertex_is_no_map():
    # the identity on its one key, so the key check must come first
    assert not COMPLEX.is_map({"a": "a"}, EDGE, EDGE)
    assert not COMPLEX.is_map({"a": "a", "b": "b", "c": "c"}, EDGE, EDGE)
    assert not COMPLEX.is_map({"a": "b"}, EDGE, EDGE)


@st.composite
def damaged_complex_objects(draw):
    """The distinct objects of a seeded degree-Rips complex in grid order,
    each left as it is or damaged once: a simplex written in reverse, one
    with a repeated vertex, a simplex without one of its faces, an empty
    simplex, or an element that is no tuple."""
    metric = rand_metric(random.Random(draw(st.integers(0, 99))), draw(st.integers(1, 6)),
                         max_dist=draw(st.integers(1, 6)))
    x = degree_rips(metric, draw(st.integers(0, 2)))
    objects = []
    for obj in dict.fromkeys(x.objects[idx] for idx in x.grid.indices()):
        simplices = total_order(obj)
        defect = draw(st.sampled_from([None, None, "reversed", "repeated vertex",
                                       "missing face", "empty", "not a tuple"]))
        cofaces = [s for s in simplices if len(s) > 1]
        if defect == "reversed" and cofaces:
            s = draw(st.sampled_from(cofaces))
            obj = obj - {s} | {s[::-1]}
        elif defect == "repeated vertex" and simplices:
            s = draw(st.sampled_from(simplices))
            obj = obj | {s + s[-1:]}
        elif defect == "missing face" and cofaces:
            s = draw(st.sampled_from(cofaces))
            i = draw(st.integers(0, len(s) - 1))
            obj = obj - {s[:i] + s[i + 1:]}
        elif defect == "empty":
            obj = obj | {()}
        elif defect == "not a tuple":
            obj = obj | {draw(st.sampled_from(["a", 0, frozenset({0})]))}
        objects.append(obj)
    return objects


def _raised(check, obj):
    """None when check(obj) passes, else the type and message of its error."""
    try:
        check(obj)
    except Exception as exc:  # compared with the oracle's, not handled
        return type(exc), str(exc)
    return None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(damaged_complex_objects())
def test_complex_checks_sharing_simplices_raise_what_the_full_check_raises(objects):
    """One faces table carried through the objects of a document, as
    validation carries it, passes the objects the full check passes and
    raises its error on the others, also after objects that failed."""
    faces = {}
    for obj in objects:
        assert (_raised(lambda o: COMPLEX.check_object(o, faces), obj)
                == _raised(check_complex_by_simplices, obj))
