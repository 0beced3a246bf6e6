"""Core persistence calculus: grids, structure maps, delta-morphisms, shift
operators, interleaving certificates, pullbacks, discretization, rescaling,
and the brute-force searches."""

import bisect
import itertools
import json
import random
import re
import runpy
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perscert import (
    DeltaMorphism,
    Grade,
    Grid,
    InterleavingCert,
    OrderError,
    PersistentObject,
    canonical_grid,
    check_interleaving,
    compose,
    compose_interleavings,
    constant_object,
    even_odd_restrict,
    extend_floor,
    find_partner,
    floor_roundtrip_cert,
    grade,
    identity_shift,
    integer_object,
    interleaving_distance_search,
    module_distance_crosscheck,
    pullback_interleaving,
    reindex,
    rescale,
    rescale_cert,
    restrict_to_Z,
    self_interleaving,
    shift_morphism,
    zigzag,
)
from perscert.categories import complex_vertices, get_category, total_order
from perscert.complexes import degree_rips
from perscert.distances import bottleneck
from perscert.errors import BudgetExceededError, CategoryError, ValidationError
from perscert.invariants import barcode, homology_cert, linearize
from perscert.grades import even_reindex, floor_int, odd_reindex
from perscert import persist, search
from perscert.persist import _Leg, _positions
from perscert.randgen import (
    corrupt_certificate,
    interleaved_pair,
    monotone_tau,
    natural_map_into,
    rand_complex_interleaving,
    rand_f2vec_object,
    rand_finset_object,
    rand_metric,
    rand_real_object,
)
from perscert.search import (DEFAULT_BUDGET, _Budget, _enumerate_natural, _least_certified,
                             induces_interleaving_in_pi0,
                             interleaving_candidates)
from perscert.serialize import decode_cert, encode_cert

from oracles import (audit_squares_by_composition, check_interleaving_by_composites,
                     corrupt_certificate_by_listing, index_by_floor_bisect,
                     matrix_entries, natural_legs_by_recursion)


# -- commuting squares ---------------------------------------------------------


@st.composite
def one_edge_moved(draw):
    """A seeded degree-Rips complex, or the set of its vertices at each
    point, whose edge maps are inclusions but one: that one sends every
    vertex of its source to one vertex of its target. It is a map, and it
    commutes with its squares only where their first corner has no other
    vertex."""
    metric = rand_metric(random.Random(draw(st.integers(0, 99))), draw(st.integers(2, 5)),
                         max_dist=draw(st.integers(1, 6)))
    x = degree_rips(metric, 2)
    category = draw(st.sampled_from(["Complex", "FinSet"]))
    objects = x.objects if category == "Complex" else {
        idx: frozenset(complex_vertices(obj)) for idx, obj in x.objects.items()}
    idx, a, nxt = draw(st.sampled_from([e for e in x.grid.edges() if x.objects[e[2]]]))
    w = draw(st.sampled_from(total_order(complex_vertices(x.objects[nxt]))))
    moved = complex_vertices(x.objects[idx])
    edges = {**x.edge_maps, (idx, a): {v: w for v in moved}}
    return x.grid, category, objects, edges, idx, 1 - a, moved - {w}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(one_edge_moved())
def test_one_map_that_is_no_inclusion_is_audited_square_by_square(case):
    """The squares of inclusions need no composing; one edge map that is no
    inclusion makes validation compose every square, and it reports the
    square that composing every square reports."""
    grid, category, objects, edges, idx, other, movers = case
    x = PersistentObject._of(grid, category, objects, edges)

    def raised(check):
        try:
            check()
        except ValidationError as exc:
            return str(exc)
        return None

    expected = raised(lambda: audit_squares_by_composition(x))
    assert raised(x._audit_squares) == expected
    assert raised(lambda: PersistentObject(grid, category, objects, edges)) == expected
    # the square from idx along the other axis, when there is one, breaks
    # whenever idx holds a vertex that is moved
    if idx[other] + 1 < grid.shape()[other] and movers:
        assert expected is not None


# -- evaluation semantics -----------------------------------------------------


def test_evaluation_is_initial_below_and_constant_above():
    x = rand_finset_object(random.Random(0), lo=-1, hi=2)
    assert x.evaluate(grade(-5)) == frozenset()
    assert x.evaluate(grade(100)) == x.evaluate(grade(2))
    assert x.evaluate(grade("3/2")) == x.evaluate(grade(1))


@pytest.mark.parametrize("axis", [[0, 2], [0, "1/2"], ["1/2", "3/2"]],
                         ids=["gap", "half-step", "half-integers"])
def test_integer_indexed_axis_must_be_consecutive_integers(axis):
    x = constant_object("FinSet", frozenset({"*"}), Grid([axis]))
    with pytest.raises(ValidationError, match="consecutive integers"):
        PersistentObject(x.grid, "FinSet", x.objects, x.edge_maps, integer_indexed=True)


def test_integer_object_is_on_its_window_and_nonempty():
    one = frozenset({"*"})
    x = integer_object("FinSet", [one, one, one], [{"*": "*"}] * 2, -3)
    assert x.grid == Grid([[-3, -2, -1]]) and x.grid.axes == Grid([[-3, -2, -1]]).axes
    with pytest.raises(ValidationError, match="nonempty"):
        integer_object("FinSet", [], [], 0)


@pytest.mark.parametrize("bad, message", [
    (frozenset({("a", "b")}), "face ('b',) of ('a', 'b') missing: not closed"),
    (["a"], "Complex object must be a frozenset of simplices"),
])
def test_every_distinct_object_is_checked(bad, message):
    """The first object is valid and repeated; a later one is not."""
    point = frozenset({("a",)})
    objects = {(0,): point, (1,): point, (2,): bad}
    edges = {((0,), 0): {"a": "a"}, ((1,), 0): {"a": "a"}}
    with pytest.raises(CategoryError) as exc:
        PersistentObject(Grid([[0, 1, 2]]), "Complex", objects, edges)
    assert str(exc.value) == message


def test_structure_maps_are_functorial():
    x = rand_finset_object(random.Random(1), lo=-2, hi=3)
    cat = x.category
    for r, s, t in [(-2, 0, 3), (-5, -2, 1), (0, 0, 2)]:
        r, s, t = grade(r), grade(s), grade(t)
        direct = x.structure_map(r, t)
        stepped = cat.compose(x.structure_map(s, t), x.structure_map(r, s))
        assert direct == stepped
    with pytest.raises(OrderError):
        x.structure_map(grade(2), grade(1))


# -- delta-morphism calculus ---------------------------------------------------


def test_shift_operator_is_additive_on_identities():
    x = rand_finset_object(random.Random(3), lo=-2, hi=2)
    one, two = grade(1), grade(2)
    lifted = shift_morphism(identity_shift(x, one), two)
    assert lifted.equals(identity_shift(x, two))


def test_components_off_the_merged_grid_are_refused():
    one = frozenset({"*"})
    x = integer_object("FinSet", [one, one], [{"*": "*"}], 0)
    components = {(0,): {"*": "*"}, (1,): {"*": "*"}, (7,): "junk", "zz": None}
    with pytest.raises(ValidationError) as exc:
        DeltaMorphism(x, x, grade(0), components)
    assert str(exc.value) == "keys outside the grid: ['zz', (7,)]"


def test_composition_adds_shifts_and_matches_pointwise_composites():
    rng = random.Random(4)
    x = rand_finset_object(rng, lo=-2, hi=2)
    y, cert = interleaved_pair(rng, x, 1)
    fg = compose(cert.f, cert.g)
    assert fg.shift == grade(2)
    # the triangle identity says this composite is the 2-shifted identity
    assert fg.equals(identity_shift(x, grade(2)))


def test_checker_reports_a_violation_for_most_corrupted_certificates():
    # a swapped component usually breaks naturality or a triangle; when it
    # happens to remain valid the checker must still say so coherently
    invalid = 0
    for seed in range(10):
        rng = random.Random(seed)
        x = rand_finset_object(rng, lo=-1, hi=2)
        y, cert = interleaved_pair(rng, x, 1)
        assert cert.f.is_natural() and cert.g.is_natural()
        bad = corrupt_certificate(rng, cert)
        if bad is cert:
            continue
        report = check_interleaving(bad)
        if not report.valid:
            invalid += 1
            assert report.identity is not None and report.reason
    assert invalid >= 5


def test_corrupting_an_f2vec_certificate_draws_what_the_list_gives():
    """The F2Vec draw by position picks the map that choosing from the list
    of every other map picks, for the same seed."""
    changed = 0
    for seed in range(150):
        rng = random.Random(seed)
        x = rand_f2vec_object(rng, lo=-2, hi=3, max_dim=3)
        _, cert = interleaved_pair(rng, x, 1 + seed % 2)
        for c in (cert, InterleavingCert(cert.g, cert.f)):
            drawn = corrupt_certificate(random.Random(seed), c)
            listed = corrupt_certificate_by_listing(random.Random(seed), c)
            assert drawn.f.components == listed.f.components and drawn.g is c.g
            changed += drawn is not c
    assert changed >= 250


def test_corrupting_a_certificate_does_not_list_every_map():
    # 2^49 maps at every point of the self-interleaving of a 7-dimensional
    # constant module
    x = constant_object("F2Vec", 7, Grid([[0, 1, 2]]))
    cert = self_interleaving(x, grade(1))
    start = time.perf_counter()
    bad = corrupt_certificate(random.Random(0), cert)
    assert time.perf_counter() - start < 1
    assert not check_interleaving(bad).valid


def test_self_interleaving_is_valid_at_every_shift():
    x = rand_f2vec_object(random.Random(6), lo=-2, hi=2)
    for d in [0, 1, 3]:
        assert check_interleaving(self_interleaving(x, grade(d))).valid


def test_interleaving_composition_adds_both_shifts():
    rng = random.Random(7)
    x = rand_finset_object(rng, lo=-2, hi=2)
    y, c1 = interleaved_pair(rng, x, 1)
    z, c2 = interleaved_pair(rng, y, 1)
    c = compose_interleavings(c1, c2)
    assert (c.epsilon, c.delta) == (grade(2), grade(2))
    assert check_interleaving(c).valid


# -- pullback ------------------------------------------------------------------


def test_pullback_preserves_shifts_and_fiber_cardinalities():
    rng = random.Random(8)
    x = rand_finset_object(rng, lo=-2, hi=2, max_size=4)
    y, cert = interleaved_pair(rng, x, 1)
    b, h = natural_map_into(rng, y)
    result = pullback_interleaving(cert, h)
    assert (result.cert.epsilon, result.cert.delta) == (cert.epsilon, cert.delta)
    assert check_interleaving(result.cert).valid
    a = result.pullback
    eps = cert.epsilon
    # oracle: |A(p)| = #{(x, b) : f_p(x) = h_{p+eps}(b)}
    for p in a.grid.points():
        f_p = cert.f.component_at(p)
        h_pe = h.component_at(p + eps)
        expected = sum(
            1
            for e in x.evaluate(p)
            for d in b.evaluate(p + eps)
            if f_p[e] == h_pe[d]
        )
        assert len(a.evaluate(p)) == expected
    # the projection to X is a plain natural map
    assert result.projection.shift == grade(0)
    assert result.projection.is_natural()


def test_pullback_checks_its_certificate_and_h_first():
    rng = random.Random(8)
    x = rand_finset_object(rng, lo=-2, hi=2, max_size=4)
    y, cert = interleaved_pair(rng, x, 1)
    b, h = natural_map_into(rng, y)
    bad = corrupt_certificate(rng, cert)
    assert not check_interleaving(bad).valid
    with pytest.raises(ValidationError, match="input certificate invalid"):
        pullback_interleaving(bad, h)
    bent = next(k for k in (
        DeltaMorphism(b, y, h.shift, {**h.components, p: cand})
        for p in h.grid.indices()
        for cand in h.category.enumerate_maps(b.at(h.at_source[p]), y.at(h.at_target[p])))
        if not k.is_natural())
    with pytest.raises(ValidationError, match="h is not natural"):
        pullback_interleaving(cert, bent)


# -- discretization and rescaling ------------------------------------------------


def test_restrict_then_extend_is_floor_sampling():
    x = rand_real_object(random.Random(9), "FinSet")
    z = restrict_to_Z(x)
    e = extend_floor(z)
    for n in range(-3, 6):
        assert e.evaluate(grade(n)) == x.evaluate(grade(n))
        assert e.evaluate(Grade([Fraction(2 * n + 1, 2)])) == x.evaluate(grade(n))


def test_floor_roundtrip_cert_bounds_its_matrix_entries_before_building(monkeypatch):
    """For seeded F2Vec objects on integer and on rational grades, the
    bound on the certificate's matrix entries is at least what it holds;
    the certificate is built at a limit of that bound, and refused one
    below, naming the bound and the limit. FinSet objects write no
    matrices and meet no such limit."""
    objects = [rand_f2vec_object(random.Random(seed), lo=-3, hi=3) for seed in range(6)]
    objects += [rand_real_object(random.Random(seed), "F2Vec") for seed in range(6)]
    for x in objects:
        count = persist._roundtrip_entries(x)
        assert count >= matrix_entries(encode_cert(floor_roundtrip_cert(x)))
        with monkeypatch.context() as patch:
            patch.setattr(persist, "MAX_ENTRIES", count)
            floor_roundtrip_cert(x)
            patch.setattr(persist, "MAX_ENTRIES", count - 1)
            with pytest.raises(BudgetExceededError, match=(
                    f"the floor round-trip certificate could hold {count} matrix entries, "
                    f"more than the limit of {count - 1}$")):
                floor_roundtrip_cert(x)
    monkeypatch.setattr(persist, "MAX_ENTRIES", 0)
    floor_roundtrip_cert(rand_finset_object(random.Random(0)))


def test_restrict_to_Z_bounds_its_window_before_sampling(monkeypatch):
    """The window [floor of the first axis value, floor of the last + 1] is
    sampled when it holds MAX_WINDOW integers and refused, naming the window
    and the limit, when it holds one more. ``reindex`` samples windows of
    its input's size, which no such limit bounds."""
    monkeypatch.setattr(persist, "MAX_WINDOW", 4)

    def line(top):
        return PersistentObject(Grid([[0, top]]), "FinSet",
                                {(0,): frozenset("a"), (1,): frozenset("a")},
                                {((0,), 0): {"a": "a"}})

    assert restrict_to_Z(line(Fraction(5, 2))).grid.axes[0] == tuple(map(Fraction, range(4)))
    with pytest.raises(BudgetExceededError,
                       match=re.escape("window [0, 4] holds 5 integers, more than the limit of 4")):
        restrict_to_Z(line(3))
    z = integer_object("FinSet", [frozenset("a")] * 10, [{"a": "a"}] * 9, 0)
    assert reindex(z, lambda n: n) == z


def test_floor_roundtrip_certificate_validates():
    for seed in range(10):
        x = rand_real_object(random.Random(seed), "FinSet")
        cert = floor_roundtrip_cert(x)
        assert (cert.epsilon, cert.delta) == (grade(1), grade(1))
        assert check_interleaving(cert).valid


def test_rescale_divides_the_axis_and_preserves_validity_exactly():
    rng = random.Random(10)
    x = rand_finset_object(rng, lo=-2, hi=2)
    y, cert = interleaved_pair(rng, x, 1)
    bad = corrupt_certificate(rng, cert)
    for c in [Fraction(1, 2), Fraction(3), Fraction(2, 3)]:
        assert check_interleaving(rescale_cert(cert, c)).valid
        if bad is not cert:
            assert not check_interleaving(rescale_cert(bad, c)).valid
    assert rescale(x, 2).evaluate(grade(1)) == x.evaluate(grade(2))


# -- brute-force searches ---------------------------------------------------------


def test_find_partner_recovers_a_partner_for_a_genuine_leg():
    rng = random.Random(11)
    x = rand_finset_object(rng, lo=0, hi=2, max_size=2)
    y, cert = interleaved_pair(rng, x, 1)
    found = find_partner(cert.f, grade(1))
    assert found is not None
    assert check_interleaving(found).valid


def test_find_partner_of_a_leg_that_is_not_natural_tries_no_partner():
    """A corrupted leg that is not natural has no partner, and its search
    says so before it spends any of the budget."""
    unnatural = 0
    for seed in range(200):
        rng = random.Random(seed)
        x = rand_f2vec_object(rng, lo=0, hi=3, max_dim=2)
        _, cert = interleaved_pair(rng, x)
        f = corrupt_certificate(rng, cert).f
        if not f.is_natural():
            unnatural += 1
            assert find_partner(f, cert.delta, budget=0) is None
    assert unnatural >= 50


def test_every_search_refuses_a_negative_budget_before_searching():
    rng = random.Random(11)
    x = rand_finset_object(rng, lo=0, hi=2, max_size=2)
    _, cert = interleaved_pair(rng, x, 1)
    module = rand_f2vec_object(random.Random(0), lo=0, hi=2, max_dim=1)
    _, _, complex_cert = rand_complex_interleaving(random.Random(0))
    searches = [
        lambda: find_partner(cert.f, grade(1), budget=-1),
        lambda: interleaving_distance_search(x, x, budget=-1),
        lambda: module_distance_crosscheck(module, module, budget=-1),
        lambda: induces_interleaving_in_pi0(complex_cert.f, complex_cert.delta, budget=-1),
    ]
    for search in searches:
        with pytest.raises(ValidationError, match=r"search budget must be >= 0, got -1"):
            search()


def test_distance_search_on_singletons_appearing_at_0_and_t():
    # a singleton from 0 vs a singleton from t are exactly t apart
    axis = [0, 3]
    one = frozenset({"*"})
    x = PersistentObject(
        Grid([axis]), "FinSet", {(0,): one, (1,): one}, {((0,), 0): {"*": "*"}}
    )
    y = PersistentObject(
        Grid([axis]), "FinSet", {(0,): frozenset(), (1,): one}, {((0,), 0): {}}
    )
    result = interleaving_distance_search(x, y)
    assert result.distance == Fraction(3)
    assert check_interleaving(result.certificate).valid


def test_distance_search_identical_objects_is_zero():
    x = rand_f2vec_object(random.Random(12), lo=0, hi=2, max_dim=2)
    result = interleaving_distance_search(x, x)
    assert result.distance == 0


def test_distance_search_empty_vs_persistent_point_is_infinite():
    axis = [0, 1]
    one = frozenset({"*"})
    x = PersistentObject(
        Grid([axis]), "FinSet", {(0,): one, (1,): one}, {((0,), 0): {"*": "*"}}
    )
    empty = constant_object("FinSet", frozenset(), Grid([axis]))
    result = interleaving_distance_search(x, empty)
    assert result.distance is None  # no shift ever maps the point anywhere


# -- the search against a plain reference ------------------------------------------


def reference_natural(x, y, shift):
    """Every natural x ->_shift y, in the search's order: all component
    choices over the merged grid, first point slowest, then filtered."""
    grid = canonical_grid(x, y, shift)
    points = list(grid.indices())
    homs = [list(x.category.enumerate_maps(x.evaluate(grid.grade_at(p)),
                                           y.evaluate(grid.grade_at(p) + shift)))
            for p in points]
    for choice in itertools.product(*homs):
        f = DeltaMorphism(x, y, shift, dict(zip(points, choice)))
        if f.is_natural():
            yield f


def reference_search(x, y):
    """Least candidate delta with a valid certificate: natural f, then
    natural g, then the full check."""
    for delta in interleaving_candidates(x, y):
        d = Grade([delta])
        gs = list(reference_natural(y, x, d))
        for f in reference_natural(x, y, d):
            for g in gs:
                cert = InterleavingCert(f, g)
                if check_interleaving(cert).valid:
                    return delta, cert
    return None, None


def small_pairs(n):
    """Seeded m = 1 FinSet and F2Vec pairs: on three integer grades, with a
    genuinely 1-interleaved or a random partner, and on random rational
    axes."""
    for seed in range(n):
        rng = random.Random(seed)
        category = ("FinSet", "F2Vec")[seed % 2]
        kind = seed // 2 % 3
        if kind == 2:
            size = 2 if category == "FinSet" else 1
            yield (rand_real_object(rng, category, n_grades=3, max_size=size),
                   rand_real_object(rng, category, n_grades=3, max_size=size))
            continue
        if category == "FinSet":
            x = rand_finset_object(rng, lo=0, hi=2, max_size=2)
        else:
            x = rand_f2vec_object(rng, lo=0, hi=2, max_dim=1)
        if kind == 0:
            y, _ = interleaved_pair(rng, x, 1)
        elif category == "FinSet":
            y = rand_finset_object(rng, lo=0, hi=2, max_size=2)
        else:
            y = rand_f2vec_object(rng, lo=0, hi=2, max_dim=1)
        yield x, y


def finset_pairs_beyond_every_bound(n):
    """Seeded FinSet pairs whose linearized barcodes are infinitely apart."""
    for seed in range(n):
        rng = random.Random(seed)
        x = rand_finset_object(rng, lo=0, hi=2, max_size=2)
        y = rand_finset_object(rng, lo=0, hi=2, max_size=2)
        if bottleneck(barcode(linearize(x)), barcode(linearize(y)))[0] is None:
            yield x, y


def test_distance_search_matches_the_reference_search():
    # the search from the d_B floor against the plain reference and against
    # the same search from 0: distance, candidates, reason and certificate
    certified = unbounded = 0
    for x, y in itertools.chain(small_pairs(60), finset_pairs_beyond_every_bound(40)):
        expected, expected_cert = reference_search(x, y)
        result = interleaving_distance_search(x, y)
        plain = _least_certified(x, y, Fraction(0), 200_000)
        assert result.distance == plain.distance == expected
        assert (result.candidates, result.reason) == (plain.candidates, plain.reason)
        if expected_cert is None:
            assert result.certificate is None and plain.certificate is None
            unbounded += 1
        else:
            certified += 1
            assert (json.dumps(encode_cert(result.certificate))
                    == json.dumps(encode_cert(plain.certificate))
                    == json.dumps(encode_cert(expected_cert)))
    assert certified >= 30 and unbounded >= 20


def test_certificates_a_search_finds_replay_the_same_from_their_documents():
    """The certificates that ``scripts/search_tails.py``'s seeded searches
    find within a budget of 2,000 (each settles the same at 20,000, as the
    script runs them in CI), F2Vec of up to 2^16 maps at a point and FinSet,
    and a corrupted copy of each: read back from the document
    ``encode_cert`` writes, each gets the report it gets itself."""
    tails = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts" / "search_tails.py"))
    replayed = refuted = 0
    for _, x, y in tails["tail_pairs"]():
        try:
            cert = interleaving_distance_search(x, y, budget=2_000).certificate
        except BudgetExceededError:
            continue
        if cert is None:
            continue
        assert check_interleaving(cert).valid
        bad = corrupt_certificate(random.Random(replayed), cert)
        for c in (cert, bad):
            assert check_interleaving(decode_cert(encode_cert(c))) == check_interleaving(c)
        replayed += 1
        refuted += not check_interleaving(bad).valid
    assert replayed >= 20 and refuted >= 15


def test_a_search_builds_the_triangle_table_of_each_pair_of_legs_once(monkeypatch):
    """The re-check of a partner the search found reads the triangle table
    its frame built: two ``identity_shift`` per pair of legs, not four."""
    tables, shifts = [], []
    build, shift = persist._triangles, persist.identity_shift
    monkeypatch.setattr(search, "_triangles", lambda f, g: tables.append(g) or build(f, g))
    monkeypatch.setattr(persist, "identity_shift", lambda x, d: shifts.append(d) or shift(x, d))
    certified = 0
    for x, y in small_pairs(12):
        result = interleaving_distance_search(x, y)
        certified += result.certificate is not None
    assert certified > 0 and tables
    assert len(shifts) == 2 * len(tables)


def drawn_legs():
    """(g_leg, table, f, gs) for each natural f at the first four candidate
    deltas of small_pairs(12): the search's g leg and triangle table at f's
    delta, f, and every natural g at that delta."""
    for x, y in small_pairs(12):
        for delta in interleaving_candidates(x, y)[:4]:
            d = Grade([delta])
            g_leg = _Leg(y, x, d)
            table = list(persist._triangles(_Leg(x, y, d), g_leg))
            gs = list(reference_natural(y, x, d))
            for f in reference_natural(x, y, d):
                yield g_leg, table, f, gs


def triangle_equations(f, g_leg, table):
    """The equations the triangle rows of table put on g's component at
    each index of g_leg, given f: X's as pre (g . f(p) = X's structure
    map), Y's as post (f(p + delta) . g = Y's); rows with no g index hold
    whatever g is."""
    equations = {j: ([], []) for j in g_leg.points}
    for side, _, _, fi, gj, direct in table:
        if gj is not None:
            equations[gj][side].append((f.at(fi), direct))
    return equations


def test_the_walk_under_the_triangle_equations_yields_exactly_the_partners():
    """Bare, the walk yields every natural g in order; given the triangle
    equations of a natural f, exactly the natural g that replay with f. On
    the legs of drawn_legs and on the two-parameter FinSet legs of the m = 2
    partner test, where a point has two naturality squares."""
    def at_m_2():
        for x, y, delta, fs in two_parameter_legs(60):
            g_leg, gs = _Leg(y, x, delta), list(reference_natural(y, x, delta))
            for f in fs:
                yield g_leg, list(persist._triangles(f._leg, g_leg)), f, gs

    partners = refuted = 0
    for g_leg, table, f, gs in itertools.chain(drawn_legs(), at_m_2()):
        budget = _Budget(10 ** 9)
        assert list(_enumerate_natural(g_leg, budget)) == [g.components for g in gs]
        walked = list(_enumerate_natural(g_leg, budget, triangle_equations(f, g_leg, table)))
        valid = [g.components for g in gs if check_interleaving(InterleavingCert(f, g)).valid]
        assert walked == valid
        partners += len(valid)
        refuted += len(gs) - len(valid)
    assert partners > 0 and refuted > 0


def replayed_certificates():
    """Genuine certificates of FinSet, F2Vec and complex objects, zig-zag
    composites and floor round trips, each with copies whose f, or whose g
    (through the swapped certificate), has one component replaced."""
    for seed in range(8):
        rng = random.Random(seed)
        x = (rand_finset_object(rng, lo=-2, hi=4, max_size=3) if seed % 2 == 0
             else rand_f2vec_object(rng, lo=-2, hi=4, max_dim=2))
        m = 1 + seed // 4
        y, cert = interleaved_pair(rng, x, m)
        _, _, complex_cert = rand_complex_interleaving(rng, 4, m)
        for c in (cert, complex_cert, zigzag(cert, m).composite,
                  floor_roundtrip_cert(rand_real_object(rng, x.category_name))):
            yield c
            yield corrupt_certificate(rng, c)
            swapped = corrupt_certificate(rng, InterleavingCert(c.g, c.f))
            yield swapped
            yield InterleavingCert(swapped.g, swapped.f)


def test_check_interleaving_matches_the_composite_oracle():
    """The verdict read from the one triangle table is the verdict of the
    triangles composed point by point, on genuine and corrupted
    certificates and on every natural pair of drawn_legs;
    every identity fails somewhere."""
    failed = set()
    pairs = (InterleavingCert(f, g) for _, _, f, gs in drawn_legs() for g in gs)
    for cert in itertools.chain(replayed_certificates(), pairs):
        report = check_interleaving(cert)
        assert report == check_interleaving_by_composites(cert)
        failed.add(report.identity)
    assert {"naturality(f)", "naturality(g)", "triangle(X)", "triangle(Y)"} <= failed


def test_the_walk_yields_what_the_recursive_enumeration_yields_at_m_1():
    """On seeded one-parameter legs, bare and with the triangle equations of
    each natural f, the walk yields the legs of the recursive enumeration in
    its order and spends the same budget."""
    runs = 0
    for x, y in small_pairs(12):
        for delta in interleaving_candidates(x, y)[:4]:
            d = Grade([delta])
            f_leg, g_leg = _Leg(x, y, d), _Leg(y, x, d)
            table = list(persist._triangles(f_leg, g_leg))
            walks = [(f_leg, None)] + [(g_leg, triangle_equations(f, g_leg, table))
                                       for f in reference_natural(x, y, d)]
            for leg, equations in walks:
                walk, recursion = _Budget(DEFAULT_BUDGET), _Budget(DEFAULT_BUDGET)
                assert (list(_enumerate_natural(leg, walk, equations))
                        == list(natural_legs_by_recursion(leg, recursion, equations)))
                assert walk.used == recursion.used
                runs += equations is not None
    assert runs > 0


def test_a_search_past_the_recursion_limit_settles_at_distance_zero():
    """A one-element FinSet object, constant on three times as many integer
    grades as the interpreter's recursion limit, against itself."""
    n = 3 * sys.getrecursionlimit()
    x = integer_object("FinSet", [frozenset({"*"})] * n, [{"*": "*"}] * (n - 1), 0)
    result = interleaving_distance_search(x, x)
    assert result.distance == 0
    assert check_interleaving(result.certificate).valid


def rand_finset_object_2d(rng):
    """A seeded two-parameter FinSet object on a grid of at most 2 x 2 of
    the points 0 and 1, with sets of at most 2 elements: random sets and
    edge maps on a random grid, drawn again until every square commutes."""
    cat = get_category("FinSet")
    grid = Grid([rng.choice([[0], [1], [0, 1], [0, 1], [0, 1]]) for _ in range(2)])
    while True:
        sets = {idx: frozenset(f"x{k}" for k in range(rng.randint(0, 2)))
                for idx in grid.indices()}
        try:
            edges = {(idx, a): rng.choice(list(cat.enumerate_maps(sets[idx], sets[nxt])))
                     for idx, a, nxt in grid.edges()}
            return PersistentObject(grid, "FinSet", sets, edges)
        except (IndexError, ValidationError):  # an edge with no map, or a square that fails
            continue


def two_parameter_legs(n):
    """(x, y, delta, fs) for seeded two-parameter FinSet objects x and y
    (y = x for every third seed), shifts eps and delta of coordinates 0 and
    1, and the first five natural x ->_eps y."""
    for seed in range(n):
        rng = random.Random(seed)
        x = rand_finset_object_2d(rng)
        y = x if seed % 3 == 0 else rand_finset_object_2d(rng)
        eps, delta = (Grade([rng.randint(0, 1), rng.randint(0, 1)]) for _ in range(2))
        yield x, y, delta, list(itertools.islice(reference_natural(x, y, eps), 5))


def test_find_partner_at_m_2_finds_the_first_partner_a_brute_force_finds():
    """At m = 2, find_partner returns a certificate exactly when some
    natural g in enumeration order makes one, and the first such g; each
    certificate replays through the checker and the composite oracle."""
    found = missed = 0
    for x, y, delta, fs in two_parameter_legs(60):
        gs = list(reference_natural(y, x, delta))
        for f in fs:
            cert = find_partner(f, delta)
            first = next((g for g in gs if check_interleaving(InterleavingCert(f, g)).valid),
                         None)
            assert (cert is None) == (first is None)
            if cert is None:
                missed += 1
                continue
            found += 1
            assert cert.g.components == first.components
            assert check_interleaving(cert).valid
            assert check_interleaving_by_composites(cert).valid
    assert found > 0 and missed > 0


def test_pi0_and_h0_of_a_degree_rips_self_interleaving_have_partners_at_m_2():
    for seed in range(6):
        rng = random.Random(seed)
        x = degree_rips(rand_metric(rng, 4 + seed % 3), 1)
        cert = self_interleaving(x, Grade([1, 1]))
        holds, pi0_cert = induces_interleaving_in_pi0(cert.f, cert.delta)
        assert holds and check_interleaving(pi0_cert).valid
        h0_cert = find_partner(homology_cert(cert, 0).f, cert.delta)
        assert h0_cert is not None and check_interleaving(h0_cert).valid


def test_triangle_rows_below_the_partner_grid_always_hold():
    """The rows of a triangle table with no g index compare two maps out of
    the initial object, so they hold whatever f is; the partner search
    relies on it and skips them."""
    legs = [(x, y, Grade([delta]), list(reference_natural(x, y, Grade([delta]))))
            for x, y in small_pairs(12) for delta in interleaving_candidates(x, y)[:4]]
    below = 0
    for x, y, delta, fs in itertools.chain(legs, two_parameter_legs(60)):
        g_leg, cat = _Leg(y, x, delta), x.category
        empty = cat.initial_map(cat.initial())
        for f in fs:
            for side, _, _, fi, gj, direct in persist._triangles(f._leg, g_leg):
                if gj is None:
                    below += 1
                    via = (cat.compose(empty, f.at(fi)) if side == 0
                           else cat.compose(f.at(fi), empty))
                    assert via == direct
    assert below > 0


# -- grid geometry -------------------------------------------------------------------


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)
shifts = st.fractions(min_value=-4, max_value=4, max_denominator=35)


@st.composite
def grids(draw, m):
    return Grid([sorted(draw(st.sets(rationals, min_size=1, max_size=5)))
                 for _ in range(m)])


def reference_candidates(x, y):
    """The candidate set by its definition, in Fractions."""
    crit = sorted(set(x.grid.axes[0]) | set(y.grid.axes[0]))
    deltas = {Fraction(0)}
    for a in crit:
        for b in crit:
            if a <= b:
                deltas.add(b - a)
                deltas.add((b - a) / 2)
    return sorted(deltas)


@settings(max_examples=100, deadline=None)
@given(grids(1), grids(1), st.data())
def test_integer_candidates_match_the_fraction_definition(a, b, data):
    # mixed denominators and negative values come from the strategy; also
    # let the axes share some values
    b = Grid([sorted(set(b.axes[0]) | set(data.draw(st.lists(st.sampled_from(a.axes[0]),
                                                               max_size=3))))])
    x = constant_object("FinSet", frozenset(), a)
    y = constant_object("FinSet", frozenset(), b)
    assert interleaving_candidates(x, y) == reference_candidates(x, y)


def test_candidates_by_bits_and_by_pairs_match_the_definition():
    """The differences are found as bits when the scaled critical grades span
    at most ``search._SPAN_PER_GRADE`` per grade, and by pairs otherwise;
    on seeded integer and rational grids on both sides of that bound, the
    list equals the definition."""
    rng, branches = random.Random(38), set()
    for _ in range(60):
        n, den = rng.randint(1, 24), rng.choice([1, 1, 2, 3, 12, 997])
        width = rng.choice([n, 8 * n, 400 * n])
        a, b = (Grid([sorted({Fraction(rng.randint(-width, width), rng.randint(1, den))
                              for _ in range(n)})]) for _ in range(2))
        x = constant_object("FinSet", frozenset(), a)
        y = constant_object("FinSet", frozenset(), b)
        ints = a.merge(b)._scaled[0][1]
        branches.add(ints[-1] - ints[0] <= search._SPAN_PER_GRADE * len(ints))
        assert interleaving_candidates(x, y) == reference_candidates(x, y)
    assert branches == {True, False}


@st.composite
def grid_pairs(draw):
    """Two grids of one arity m and a shift of arity m."""
    m = draw(st.integers(1, 2))
    a, b = draw(grids(m)), draw(grids(m))
    # let the axes share some values
    b = Grid([sorted(set(v) | set(draw(st.lists(st.sampled_from(u), max_size=3))))
              for u, v in zip(a.axes, b.axes)])
    return a, b, Grade(draw(st.lists(shifts, min_size=m, max_size=m)))


@settings(max_examples=100, deadline=None)
@given(grid_pairs())
# translating {1/2, 3/2} by 1/2 cancels the denominator
@example((Grid([["1/2", "3/2"]]), Grid([[0, 1]]), Grade(["1/2"])))
# merging joins an integer axis and a half-integer one
@example((Grid([[0, 1, 2]]), Grid([["1/2", "3/2"]]), Grade([0])))
@example((Grid([["1/2", "3/2"], [0, "1/3"]]), Grid([[-1, "1/2"], ["2/3"]]),
          Grade(["1/2", "2/3"])))
def test_locate_merge_and_translate_agree_with_plain_grids(case):
    a, b, shift = case
    located = a.locate(b, shift)
    assert list(located) == list(b.indices())
    for idx in b.indices():
        p = b.grade_at(idx) + shift
        # the largest point <= p by a bisect over the Fraction axes
        below = tuple(bisect.bisect_right(axis, c) - 1 for axis, c in zip(a.axes, p.coords))
        expected = None if -1 in below else below
        assert located[idx] == index_by_floor_bisect(a, p) == expected
        assert a.eval_index(p) == expected
    merged = a.merge(b)
    plain = Grid([sorted(set(u) | set(v)) for u, v in zip(a.axes, b.axes)])
    assert merged == plain and hash(merged) == hash(plain)
    assert merged.axes == plain.axes and merged.shape() == plain.shape()
    moved = a.translate(shift)
    plain = Grid([[v + d for v in axis] for axis, d in zip(a.axes, shift.coords)])
    assert moved == plain and hash(moved) == hash(plain)
    assert moved.axes == plain.axes and moved.shape() == plain.shape()
    assert moved.locate(a, shift) == {idx: idx for idx in a.indices()}


@settings(max_examples=100, deadline=None)
@given(grids(1), st.data())
@example(Grid([[-2, 0, 1, 5]]), None)  # an integer axis
def test_positions_agree_with_eval_index(grid, data):
    # ints and Fractions below, between, on and above the axis, with repeats
    # and mixed denominators, in any order
    values = [-7, -2, Fraction(-3, 2), 0, Fraction(1, 3), 2, Fraction(11, 2), 9]
    if data is not None:
        off_grid = st.fractions(min_value=-9, max_value=9, max_denominator=12)
        values = data.draw(st.lists(off_grid | st.integers(-9, 9) | st.sampled_from(grid.axes[0]),
                                    max_size=12))
        values += data.draw(st.lists(st.sampled_from(values), max_size=4)) if values else []
    at = _positions(grid, values)
    assert set(at) == set(values)
    for v in values:
        assert at[v] == grid.eval_index(Grade([v])) == index_by_floor_bisect(grid, Grade([v]))


@st.composite
def placing_columns(draw):
    """1-3 Fraction columns of one length (1-8 rows), with ties, mixed
    denominators and negative values."""
    rows = draw(st.integers(1, 8))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        pool = draw(st.lists(rationals, min_size=1, max_size=rows))
        columns.append(draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=rows)))
    return columns


@settings(max_examples=150, deadline=None)
@given(placing_columns())
@example([[Fraction(3, 4)]])  # a single value
@example([[Fraction(1, 2), Fraction(-1, 3), Fraction(1, 2)],
          [Fraction(2), Fraction(0), Fraction(-5, 6)]])
def test_placing_indexes_each_row_on_the_grid_of_distinct_values(columns):
    grid, rows = Grid.placing(columns)
    assert grid == Grid([sorted(set(c)) for c in columns])
    assert len(rows) == len(columns[0])
    for k, idx in enumerate(rows):
        assert tuple(axis[i] for axis, i in zip(grid.axes, idx)) == tuple(c[k] for c in columns)
    for a, column in enumerate(columns):
        for (u, i), (v, j) in itertools.product(zip(column, (idx[a] for idx in rows)), repeat=2):
            assert (i < j) == (u < v) and (i == j) == (u == v)


# -- structure-map legs ----------------------------------------------------------


def reference_leg(x, source, target, shift, start, end):
    """A leg built the closure way: at each merged-grid point p, the structure
    map of x from start(p) to end(p), each located by a bisect."""
    return DeltaMorphism.from_fn(source, target, shift, lambda p: x.structure_map(
        Grade([start(p.coords[0])]), Grade([end(p.coords[0])])))


def reference_diagonal(a, b, cert, m, lo, hi):
    """The diagonal object C of ``zigzag`` on [lo, hi], one bisect per value
    and per map: A (even block) or B (odd block) at the block start, its
    structure maps inside a block and the legs between blocks."""
    def value(n):
        if n // m % 2 == 0:
            return a.evaluate(grade(even_reindex(n, m)))
        return b.evaluate(grade(odd_reindex(n, m)))

    def step(n):
        q = n // m
        if q == (n + 1) // m:
            z, fn = (a, even_reindex) if q % 2 == 0 else (b, odd_reindex)
            return z.structure_map(grade(fn(n, m)), grade(fn(n + 1, m)))
        return (cert.f if q % 2 == 0 else cert.g).component_at(grade(q * m))

    return integer_object(a.category_name, [value(n) for n in range(lo, hi + 1)],
                          [step(n) for n in range(lo, hi)], lo)


def seeded_objects(seeds):
    for seed in seeds:
        rng = random.Random(seed)
        yield rand_finset_object(rng, lo=-4, hi=4, max_size=3)
        yield rand_f2vec_object(rng, lo=-3, hi=4, max_dim=2)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_even_odd_and_outer_legs_equal_the_closure_form(m):
    for seed, x in enumerate(seeded_objects(range(4))):
        even, odd = partial(even_reindex, m=m), partial(odd_reindex, m=m)
        ex, ox, cert = even_odd_restrict(x, m)
        shift = grade(m)
        assert cert.f.equals(reference_leg(x, ex, ox, shift, even, lambda n: odd(n + m)))
        assert cert.g.equals(reference_leg(x, ox, ex, shift, odd, lambda n: even(n + m)))

        # the zig-zag of a genuine m-interleaving, whose legs equal the
        # closure form too
        lo, hi = int(x.grid.axes[0][0]), int(x.grid.axes[0][-1])
        y, pair = interleaved_pair(random.Random(seed), x, m)
        tau = monotone_tau(random.Random(seed), lo, hi, m)
        assert pair.f.equals(reference_leg(
            x, x, y, shift, lambda n: n, lambda n: tau(min(max(n + m, lo), hi))))
        assert pair.g.equals(reference_leg(
            x, y, x, shift, lambda n: n if n < lo else tau(min(n, hi)), lambda n: n + m))

        result = zigzag(pair, m)
        window = result.c.grid.axes[0]
        assert result.c == reference_diagonal(x, y, pair, m, int(window[0]), int(window[-1]))
        s = 2 * m - 1
        a_piece, b_piece = result.piece_a, result.piece_b
        for z, fn, into, out_of in ((x, even, a_piece.f, a_piece.g),
                                    (y, odd, b_piece.g, b_piece.f)):
            rz = into.target
            assert into.equals(reference_leg(z, z, rz, grade(s), lambda n: n,
                                             lambda n: fn(n + s)))
            assert out_of.equals(reference_leg(z, rz, z, grade(0), fn, lambda n: n))


def test_natural_map_into_equals_the_closure_form():
    for seed, y in enumerate(seeded_objects(range(4))):
        lo, hi = int(y.grid.axes[0][0]), int(y.grid.axes[0][-1])
        b, h = natural_map_into(random.Random(seed), y)
        tau = monotone_tau(random.Random(seed), lo, hi, 1)
        assert h.equals(reference_leg(y, b, y, grade(0),
                                      lambda n: min(tau(min(n, hi)), n), lambda n: n))


def test_floor_roundtrip_legs_equal_the_closure_form():
    for seed in range(12):
        x = rand_real_object(random.Random(seed), "FinSet" if seed % 2 else "F2Vec")
        cert = floor_roundtrip_cert(x)
        a = cert.f.target
        assert cert.f.equals(reference_leg(x, x, a, grade(1), lambda v: v,
                                           lambda v: floor_int(v + 1)))
        assert cert.g.equals(reference_leg(x, a, x, grade(1), floor_int, lambda v: v + 1))


def test_a_large_grid_with_few_keys_is_refused_without_listing_it():
    """A grid stated in a few bytes may have many points; validating
    tables that hold fewer keys walks it and lists none of its points or
    edges, and still reports the error the one-by-one check reports."""
    axes = [list(range(30))] * 3  # 27,000 points, 78,300 edges
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=r"missing object at grid index \(0, 0, 0\)"):
            PersistentObject(Grid(axes), "FinSet", {}, {})
        with pytest.raises(ValidationError, match=r"keys outside the grid: \[\(30, 0, 0\)\]"):
            PersistentObject(Grid(axes), "FinSet", {(30, 0, 0): frozenset()}, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
