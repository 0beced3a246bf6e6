"""Filtered complexes, the filtration builders, the filtered/cofibrant
characterization, and the two-parameter square gadget."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perscert import (
    FilteredComplex,
    Grade,
    MetricInput,
    ValidationError,
    barcode,
    degree_rips,
    filtration_barcode,
    function_rips,
    grade,
    homology,
    is_filtered,
    metric_from_coordinates,
    skeleton,
    sq_gadget,
    to_persistent,
    validate,
    vietoris_rips,
)
from perscert import complexes
from perscert.categories import COMPLEX, complex_vertices, simplex, total_order
from perscert.complexes import SQUARE_GRID, FilteredCheck, ValidationReport
from perscert.errors import BudgetExceededError
from perscert.persist import Grid, PersistentObject, constant_object, restrict_to_Z
from perscert.randgen import rand_filtered_complex, rand_metric, rand_persistent_complex

from oracles import (
    degree_rips_by_fractions,
    rips_by_diameters,
    validate_by_fractions,
)

COLLINEAR = MetricInput([0, 1, 3], [[0, 1, 3], [1, 0, 2], [3, 2, 0]])


def test_validate_catches_missing_faces_and_grade_violations():
    bad_faces = FilteredComplex(["a", "b"], {("a", "b")}, {("a", "b"): grade(0)})
    assert not validate(bad_faces).valid
    bad_grades = FilteredComplex(
        ["a", "b"],
        {("a",), ("b",), ("a", "b")},
        {("a",): grade(1), ("b",): grade(0), ("a", "b"): grade(0)},
    )
    assert not validate(bad_grades).valid
    good = vietoris_rips(COLLINEAR, 2)
    assert validate(good).valid


def test_vietoris_rips_of_collinear_points_has_diameter_grades():
    vr = vietoris_rips(COLLINEAR, 2)
    assert vr.grade[(0,)] == grade(0)
    assert vr.grade[(0, 1)] == grade(1)
    assert vr.grade[(1, 3)] == grade(2)
    assert vr.grade[(0, 3)] == grade(3)
    assert vr.grade[(0, 1, 3)] == grade(3)
    assert vr.dimension() == 2


def test_function_rips_grades_by_diameter_and_max_value():
    mi = MetricInput([0, 1], [[0, 2], [2, 0]], values=[5, 7])
    fr = function_rips(mi, 1)
    assert fr.grade[(0,)] == grade(0, 5)
    assert fr.grade[(1,)] == grade(0, 7)
    assert fr.grade[(0, 1)] == grade(2, 7)


def test_a_complex_without_simplices_keeps_its_arity():
    assert FilteredComplex([], [], {}).m == 1
    empty = FilteredComplex([], [], {}, 2)
    assert empty.m == 2 and skeleton(empty, 1).m == 2
    assert function_rips(MetricInput([], [], values=[]), 2).m == 2
    x = to_persistent(empty)
    assert x.m == 2 and x.objects == {(0, 0): frozenset()}


def test_metric_from_coordinates_norms():
    mi_linf = metric_from_coordinates([(0, 0), (1, 2)], norm="linf")
    mi_l1 = metric_from_coordinates([(0, 0), (1, 2)], norm="l1")
    assert mi_linf.dist[0][1] == 2
    assert mi_l1.dist[0][1] == 3


@pytest.mark.parametrize("norm", ["l2", "L1", "max", ""])
def test_metric_from_coordinates_refuses_an_unknown_norm(norm):
    with pytest.raises(ValidationError, match="unknown norm"):
        metric_from_coordinates([(0, 0), (3, 4)], norm=norm)


def test_skeleton_is_idempotent_and_dimension_correct():
    vr = vietoris_rips(COLLINEAR, 2)
    for n in range(3):
        sk = skeleton(vr, n)
        assert sk.dimension() == min(n, vr.dimension())
        assert skeleton(sk, n) == sk


def test_vr_of_n_plus_1_points_is_at_most_n_dimensional():
    rng = random.Random(1)
    for n in range(1, 5):
        mi = rand_metric(rng, n + 1)
        vr = vietoris_rips(mi, n + 1)
        assert vr.dimension() <= n


def test_to_persistent_round_trip_is_filtered_with_exact_witness():
    rng = random.Random(2)
    for seed in range(5):
        fc = rand_filtered_complex(random.Random(seed))
        chk = is_filtered(to_persistent(fc))
        assert chk.filtered
        assert chk.witness == dict(fc.grade)
    del rng


def test_degree_rips_of_collinear_points_is_not_filtered():
    dr = degree_rips(COLLINEAR, 2)
    chk = is_filtered(dr)
    assert not chk.filtered
    assert chk.condition == 2
    assert "minimum" in chk.reason


def vertex_appearance_gadget():
    """m = 2 persistent complex whose single vertex appears at (1,0) and
    (0,1) but not (0,0): the appearance set has no minimum."""
    v = frozenset({("v",)})
    empty = frozenset()
    grid = Grid([[0, 1], [0, 1]])
    objects = {(0, 0): empty, (1, 0): v, (0, 1): v, (1, 1): v}
    ident = {"v": "v"}
    edges = {
        ((0, 0), 0): {},
        ((0, 0), 1): {},
        ((1, 0), 1): ident,
        ((0, 1), 0): ident,
    }
    return PersistentObject(grid, "Complex", objects, edges)


def test_vertex_appearance_gadget_fails_only_the_minimum_condition():
    chk = is_filtered(vertex_appearance_gadget())
    assert not chk.filtered
    assert chk.condition == 2
    assert "minimum" in chk.reason


def two_corner_square():
    """Commuting square: discrete {a, b} on the left corners, the filled edge
    on the right corners, with identity vertex maps."""
    discrete = frozenset({("a",), ("b",)})
    edge = frozenset({("a",), ("b",), ("a", "b")})
    ident = {"a": "a", "b": "b"}
    corners = {(0, 0): discrete, (1, 0): edge, (0, 1): discrete, (1, 1): edge}
    maps = {
        ((0, 0), 0): ident,
        ((0, 0), 1): ident,
        ((1, 0), 1): ident,
        ((0, 1), 0): ident,
    }
    return PersistentObject(SQUARE_GRID, "Complex", corners, maps)


def test_sq_gadget_boundary_semantics():
    p = sq_gadget(two_corner_square())
    # empty whenever a coordinate is negative
    assert p.evaluate(Grade([Fraction(-1, 2), Fraction(1)])) == frozenset()
    assert p.evaluate(grade(1, -1)) == frozenset()
    # the square corners on [0, 2)^2, selected by floors
    assert p.evaluate(Grade([Fraction(1, 2), Fraction(3, 2)])) == frozenset(
        {("a",), ("b",)}
    )
    assert p.evaluate(Grade([Fraction(3, 2), Fraction(1, 2)])) == frozenset(
        {("a",), ("b",), ("a", "b")}
    )
    # a single point once some coordinate reaches 2
    assert p.evaluate(grade(2, 0)) == frozenset({("*",)})
    assert p.evaluate(grade(5, 5)) == frozenset({("*",)})


def test_sq_gadget_rejects_non_commuting_squares():
    """A square is a persistent complex on {0,1}^2, so its constructor
    refuses one that does not commute before the gadget sees it."""
    sq = two_corner_square()
    with pytest.raises(ValidationError, match="non-commuting square"):
        PersistentObject(SQUARE_GRID, "Complex", sq.objects,
                         {**sq.edge_maps, ((0, 0), 0): {"a": "b", "b": "a"}})


def test_sq_gadget_takes_only_squares_of_complexes():
    sq = two_corner_square()
    finset = constant_object("FinSet", frozenset({"a"}), SQUARE_GRID)
    line = constant_object("Complex", sq.objects[(0, 0)], Grid([[0, 1]]))
    # the same corners and maps on another grid of four points
    stretched = PersistentObject(Grid([[0, 1], [0, 2]]), "Complex", sq.objects, sq.edge_maps)
    for other in (finset, line, stretched):
        with pytest.raises(ValidationError, match=r"grid \{0,1\}\^2"):
            sq_gadget(other)


def test_metric_input_requires_symmetry_and_zero_diagonal():
    with pytest.raises(Exception):
        MetricInput([0, 1], [[0, 1], [2, 0]])


# -- the builders against their per-point constructions ----------------------


def reference_inclusions(grid, objects):
    edges = {
        (idx, a): {v: v for v in complex_vertices(objects[idx])}
        for idx, a, _ in grid.edges()
    }
    return PersistentObject(grid, "Complex", objects, edges)


def reference_to_persistent(f):
    """At each grid point, the simplices whose grade lies below it."""
    if not f.simplices:
        return reference_inclusions(Grid([[0]]), {(0,): frozenset()})
    axes = [sorted({g.coords[a] for g in f.grade.values()}) for a in range(f.m)]
    grid = Grid(axes)
    objects = {
        idx: frozenset(s for s in f.simplices if f.grade[s].leq(grid.grade_at(idx)))
        for idx in grid.indices()
    }
    return reference_inclusions(grid, objects)


def reference_degree_rips(metric, d_max):
    """At each (r, -k), the scale-r Rips simplices on the vertices of
    r-neighborhood degree >= k, with every degree counted at that point."""
    n = metric.n
    scales = sorted({metric.dist[i][j] for i in range(n) for j in range(n)})
    grid = Grid([scales, [Fraction(-k) for k in range(n - 1, -1, -1)]])
    base = vietoris_rips(metric, d_max)
    objects = {}
    for idx in grid.indices():
        r, t = grid.grade_at(idx).coords
        keep = {
            v for i, v in enumerate(metric.points)
            if sum(1 for j in range(n) if j != i and metric.dist[i][j] <= r) >= -t
        }
        objects[idx] = frozenset(
            s for s in base.simplices
            if base.grade[s].coords[0] <= r and all(v in keep for v in s)
        )
    return reference_inclusions(grid, objects)


def reference_is_filtered(p):
    """Every simplex mapped to the top corner at every grid point."""
    for idx, a, _ in p.grid.edges():
        f = p.edge_maps[(idx, a)]
        if len({COMPLEX.apply_simplex(f, s) for s in p.objects[idx]}) != len(p.objects[idx]):
            return FilteredCheck(
                False, condition=1, offender=idx,
                reason=f"structure map at {idx} along axis {a} is not a monomorphism",
            )
    top = tuple(s - 1 for s in p.grid.shape())
    appearance = {}
    for idx in p.grid.indices():
        to_top = p.map_between(idx, top)
        for sigma in p.objects[idx]:
            appearance.setdefault(COMPLEX.apply_simplex(to_top, sigma), set()).add(idx)
    witness = {}
    for tau, idxs in appearance.items():
        mins = tuple(min(i[a] for i in idxs) for a in range(p.m))
        if mins not in idxs:
            return FilteredCheck(False, condition=2, offender=tau,
                                 reason=f"appearance set of {tau!r} has no minimum")
        witness[tau] = p.grid.grade_at(mins)
    return FilteredCheck(True, witness=witness)


def tied_metrics():
    """Seeded metrics whose distances tie often, one point, and vertex names
    of mixed types."""
    for seed in range(12):
        rng = random.Random(seed)
        yield rand_metric(rng, rng.randint(1, 6), max_dist=2, integer=True)
    yield MetricInput(["p"], [[0]])
    yield MetricInput([0, "a"], [[0, 1], [1, 0]])
    yield MetricInput([0, "a", 2], [[0, 1, 1], [1, 0, 2], [1, 2, 0]])
    yield COLLINEAR


def test_degree_rips_equals_the_per_point_construction():
    for metric in tied_metrics():
        for d_max in (0, 1, 2):
            dr = degree_rips(metric, d_max)
            assert dr == reference_degree_rips(metric, d_max)
            assert is_filtered(dr) == reference_is_filtered(dr)


def test_validation_builds_each_distinct_vertex_set_once(monkeypatch):
    from perscert import categories

    dr = degree_rips(rand_metric(random.Random(5), 6), 2)
    calls = []
    monkeypatch.setattr(categories, "complex_vertices",
                        lambda obj: calls.append(obj) or complex_vertices(obj))
    assert PersistentObject(dr.grid, "Complex", dict(dr.objects), dict(dr.edge_maps)) == dr
    assert calls and len(calls) == len(set(calls))


def test_to_persistent_equals_the_per_point_construction():
    for seed in range(20):
        rng = random.Random(seed)
        fc = rand_filtered_complex(rng, rng.randint(0, 5))
        p = to_persistent(fc)
        assert p == reference_to_persistent(fc)
        assert is_filtered(p) == reference_is_filtered(p)
        assert rand_persistent_complex(random.Random(seed)) == restrict_to_Z(
            reference_to_persistent(rand_filtered_complex(random.Random(seed)))
        )
    for metric in tied_metrics():
        values = [(7 * i) % 3 for i in range(metric.n)]
        fr = function_rips(MetricInput(metric.points, metric.dist, values), 2)
        p = to_persistent(fr)
        assert p.m == 2 and p == reference_to_persistent(fr)
        assert is_filtered(p) == reference_is_filtered(p)


def relabeled_chain():
    """m = 1 monic persistent complex whose maps rename every vertex."""
    grid = Grid([[0, 1, 2]])
    objects = {
        (0,): frozenset({("a",)}),
        (1,): frozenset({("b",), ("c",), ("b", "c")}),
        (2,): frozenset({("x",), ("y",), ("x", "y")}),
    }
    edges = {((0,), 0): {"a": "b"}, ((1,), 0): {"b": "y", "c": "x"}}
    return PersistentObject(grid, "Complex", objects, edges)


def relabeled_gadget():
    """The vertex appearance gadget with a differently named vertex at each
    point, so the vertex meets itself only at the top corner."""
    grid = Grid([[0, 1], [0, 1]])
    objects = {(0, 0): frozenset(), (1, 0): frozenset({("u",)}),
               (0, 1): frozenset({("w",)}), (1, 1): frozenset({("v",)})}
    edges = {((0, 0), 0): {}, ((0, 0), 1): {}, ((1, 0), 1): {"u": "v"},
             ((0, 1), 0): {"w": "v"}}
    return PersistentObject(grid, "Complex", objects, edges)


def test_is_filtered_reads_relabeling_maps_at_the_top_corner():
    chk = is_filtered(relabeled_chain())
    assert chk.filtered
    assert chk.witness == {("y",): grade(0), ("x",): grade(1), ("x", "y"): grade(1)}
    gadget = is_filtered(relabeled_gadget())
    assert not gadget.filtered and gadget.condition == 2 and gadget.offender == ("v",)
    collapse = PersistentObject(
        Grid([[0, 1]]), "Complex",
        {(0,): frozenset({("a",), ("b",)}), (1,): frozenset({("z",)})},
        {((0,), 0): {"a": "z", "b": "z"}},
    )
    assert is_filtered(collapse).condition == 1
    for p in (relabeled_chain(), relabeled_gadget(), collapse, vertex_appearance_gadget()):
        assert is_filtered(p) == reference_is_filtered(p)


# -- grid indices against Fractions -------------------------------------------


# mixed denominators, with ties and 0 off the diagonal
DISSIMILARITIES = [Fraction(0), Fraction(1, 3), Fraction(1, 6), Fraction(5, 2),
                   Fraction(1, 2), Fraction(2, 3), Fraction(1)]
NAMES = list(range(13)) + ["a", "b", "c", "10", "9"]


@st.composite
def metrics(draw, max_points: int = 9):
    """Metrics of 0 to max_points points. Their names are ints, strings or
    both, in or out of order; the dissimilarities are drawn from a few
    values, so they tie and may be 0 between distinct points."""
    n = draw(st.integers(0, max_points))
    kind = draw(st.sampled_from([NAMES[:13], NAMES[13:] + ["d", "e", "f", "g"], NAMES]))
    points = draw(st.lists(st.sampled_from(kind), min_size=n, max_size=n, unique=True))
    if draw(st.booleans()):
        points = sorted(points, key=lambda v: (str(type(v)), v))
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = draw(st.sampled_from(DISSIMILARITIES))
    values = [draw(st.sampled_from(DISSIMILARITIES)) for _ in range(n)]
    return MetricInput(points, dist, values)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(metrics(), st.integers(0, 3))
def test_rips_builders_agree_with_the_fraction_oracles(metric, d_max):
    assert vietoris_rips(metric, d_max) == rips_by_diameters(metric, d_max)
    assert degree_rips(metric, d_max) == degree_rips_by_fractions(metric, d_max)


LINE = MetricInput(range(4), [[abs(i - j) for j in range(4)] for i in range(4)],
                   values=[0, 1, 2, 3])


def test_rips_builders_bound_their_simplices_before_building(monkeypatch):
    """The 4 points of LINE have 14 vertex subsets of at most 3 points and 15
    in all: each Rips builder builds them at a limit of that many simplices
    and refuses, naming the count and the limit, one below it."""
    for d_max, count in ((2, 14), (3, 15), (10**9, 15)):
        monkeypatch.setattr(complexes, "MAX_SIMPLICES", count)
        assert len(vietoris_rips(LINE, d_max).simplices) == count
        assert len(function_rips(LINE, d_max).simplices) == count
        monkeypatch.setattr(complexes, "MAX_SIMPLICES", count - 1)
        message = (f"a Rips complex of 4 points up to dimension {d_max} has {count} "
                   f"simplices, more than the limit of {count - 1}")
        for build in (vietoris_rips, function_rips):
            with pytest.raises(BudgetExceededError, match=re.escape(message)):
                build(LINE, d_max)


def test_degree_rips_bounds_its_grid_before_building(monkeypatch):
    """LINE's degree-Rips grid is 4 scales by 4 degrees: built at a limit of
    16 points and refused at 15, though its 14 simplices are within it."""
    monkeypatch.setattr(complexes, "MAX_SIMPLICES", 16)
    assert degree_rips(LINE, 2).grid.shape() == (4, 4)
    monkeypatch.setattr(complexes, "MAX_SIMPLICES", 15)
    with pytest.raises(BudgetExceededError, match=re.escape(
            "a degree-Rips grid of 4 scales by 4 degrees has 16 points, "
            "more than the limit of 15")):
        degree_rips(LINE, 2)


def _outcome(check, f):
    """check(f), or the type of the exception it raises."""
    try:
        return check(f)
    except Exception as exc:  # compared with the oracle's, not handled
        return type(exc)


@st.composite
def damaged_complexes(draw):
    """A Rips or function-Rips complex of a drawn metric, with up to two
    defects: a missing face, a face graded above a coface, a grade of
    another arity, a simplex on an unknown vertex, or a simplex without a
    grade."""
    metric = draw(metrics(max_points=6))
    d_max = draw(st.integers(1, 2))
    f = draw(st.sampled_from([vietoris_rips, function_rips]))(metric, d_max)
    simplices, grade = set(f.simplices), dict(f.grade)
    for defect in draw(st.lists(st.sampled_from(
            ["missing face", "face above", "arity", "unknown vertex", "no grade"]), max_size=2)):
        cofaces = total_order(s for s in simplices if len(s) > 1)
        if defect == "unknown vertex":
            s = tuple(draw(st.sampled_from(total_order(simplices)))) if simplices else ()
            new = simplex(s + ("unknown",)) if all(type(v) is str for v in s) else ("unknown",)
            simplices.add(new)
            grade[new] = Grade([Fraction(3)] * f.m)
        elif defect == "arity" and grade:
            s = draw(st.sampled_from(total_order(grade)))
            grade[s] = Grade(grade[s].coords + (Fraction(1, 6),))
        elif defect == "no grade" and grade:
            del grade[draw(st.sampled_from(total_order(grade)))]
        elif cofaces:
            sigma = draw(st.sampled_from(cofaces))
            i = draw(st.integers(0, len(sigma) - 1))
            face = sigma[:i] + sigma[i + 1:]
            if defect == "missing face":
                simplices.discard(face)
                if draw(st.booleans()):
                    grade.pop(face, None)
            elif face in grade and sigma in grade and grade[face].m == grade[sigma].m:
                axis = draw(st.integers(0, f.m - 1))
                coords = list(grade[face].coords)
                coords[axis] = grade[sigma].coords[axis] + Fraction(1, 6)
                grade[face] = Grade(coords)
    return FilteredComplex(f.vertices, simplices, grade, f.m)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(damaged_complexes())
def test_validate_agrees_with_the_fraction_oracle(f):
    """Same verdict, reason and offender (or the same exception), and on a
    valid nonempty complex the same sublevel filtration as the per-point one
    (or an exception of the same type, when its grades have another arity
    than f.m)."""
    report = _outcome(validate, f)
    assert report == _outcome(validate_by_fractions, f)
    if report == ValidationReport(True, "valid filtered complex") and f.simplices:
        assert _outcome(to_persistent, f) == _outcome(reference_to_persistent, f)


def test_validate_reports_an_ungraded_face_and_grades_of_another_arity():
    """A face without a grade that sorts after its coface is reported, not
    looked up; grades of an arity other than m are refused by both barcode
    routes with validate's reason."""
    f = FilteredComplex([0, 1], [(0,), (1,), (0, 1)], {(0,): grade(0), (0, 1): grade(1)})
    assert validate(f) == ValidationReport(False, "simplex missing a grade", (1,))
    assert validate_by_fractions(f) == validate(f)
    f = FilteredComplex([0], [(0,)], {(0,): grade(0, 1)}, 1)
    reason = "grades of arity 2, but the complex has m = 1"
    assert validate(f) == ValidationReport(False, reason, (0,))
    assert validate_by_fractions(f) == validate(f)
    for route in (lambda: filtration_barcode(f, 0),
                  lambda: barcode(homology(to_persistent(f), 0))):
        with pytest.raises(ValidationError, match=reason):
            route()


def test_validate_reports_each_injected_defect():
    """Each defect of the property above is met, with the oracle's report."""
    good = vietoris_rips(COLLINEAR, 2)
    grades = dict(good.grade)
    cases = {
        "face (0,) missing": FilteredComplex(
            good.vertices, good.simplices - {(0,)}, grades),
        "grade of face (1, 3) exceeds grade of (0, 1, 3)": FilteredComplex(
            good.vertices, good.simplices, {**grades, (1, 3): grade(4)}),
        "grades of mixed arity: 1 for (0,), 2 for (1,)": FilteredComplex(
            good.vertices, good.simplices, {**grades, (1,): grade(0, 0)}),
        "unknown vertex 7": FilteredComplex(
            good.vertices, good.simplices | {(7,)}, {**grades, (7,): grade(0)}),
    }
    for reason, f in cases.items():
        report = validate(f)
        assert not report.valid and report.reason == reason
        assert report == validate_by_fractions(f)
