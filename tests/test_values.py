"""The package's immutable values and result records: assignment raises,
equality and hashing follow the fields within one class, the reprs keep
their text, and the records are named tuples with fixed field order and
defaults."""

from fractions import Fraction

import pytest

from perscert.complexes import FilteredCheck, FilteredComplex, MetricInput, ValidationReport
from perscert.distances import Matching, StabilityReport
from perscert.gf2 import GF2Matrix
from perscert.grades import Grade
from perscert.invariants import Bar, Barcode
from perscert.persist import InterleavingReport, PullbackResult
from perscert.rectify import ZigzagResult
from perscert.search import CrosscheckReport, SearchResult

# a builder of equal values, and the repr each value had as a frozen dataclass
VALUES = {
    "Grade": (lambda: Grade([1, "3/2"]), "Grade(1, 3/2)"),
    "GF2Matrix": (lambda: GF2Matrix([[1, 0], [1, 1], [0, 1]]),
                  "GF2Matrix(bits=(1, 3, 2), nrows=3, ncols=2)"),
    "Bar": (lambda: Bar(0, "3/2"), "Bar(birth=Fraction(0, 1), death=Fraction(3, 2))"),
    "Bar, infinite": (lambda: Bar("1/2", None), "Bar(birth=Fraction(1, 2), death=None)"),
    "Barcode": (lambda: Barcode([Bar(1, None), Bar(0, 2), Bar(0, None)]),
                "Barcode(bars=(Bar(birth=Fraction(0, 1), death=None), "
                "Bar(birth=Fraction(0, 1), death=Fraction(2, 1)), "
                "Bar(birth=Fraction(1, 1), death=None)))"),
    "FilteredComplex": (
        lambda: FilteredComplex([0, 1], [(0,), (1,), (0, 1)],
                                {(0,): Grade([0]), (1,): Grade([0]), (0, 1): Grade([1])}),
        "FilteredComplex(vertices=(0, 1), simplices=frozenset({(0,), (1,), (0, 1)}), "
        "grade={(0,): Grade(0), (1,): Grade(0), (0, 1): Grade(1)}, m=1)"),
    "MetricInput": (lambda: MetricInput([0, 1], [[0, "1/2"], ["1/2", 0]]),
                    "MetricInput(points=(0, 1), dist=((Fraction(0, 1), Fraction(1, 2)), "
                    "(Fraction(1, 2), Fraction(0, 1))), values=None)"),
    "MetricInput, with values": (
        lambda: MetricInput(["a", "b"], [[0, 1], [1, 0]], [0, 1]),
        "MetricInput(points=('a', 'b'), dist=((Fraction(0, 1), Fraction(1, 1)), "
        "(Fraction(1, 1), Fraction(0, 1))), values=(Fraction(0, 1), Fraction(1, 1)))"),
}


@pytest.mark.parametrize("name", VALUES)
def test_a_value_refuses_assignment_and_deletion(name):
    value = VALUES[name][0]()
    for field in value._fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.other = 1


@pytest.mark.parametrize("name", VALUES)
def test_values_with_equal_fields_are_equal_and_hash_alike(name):
    build = VALUES[name][0]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    if isinstance(a, FilteredComplex):
        # its grade field is a dict, so it has no hash
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in a._fields))
        assert len({a, b}) == 1


@pytest.mark.parametrize("name", VALUES)
def test_a_value_differs_from_another_class_with_the_same_fields(name):
    value = VALUES[name][0]()
    other = type("Other", (type(value),), {})
    twin = other.__new__(other)
    for field in value._fields:
        object.__setattr__(twin, field, getattr(value, field))
    assert value != twin and twin != value
    assert value != tuple(getattr(value, f) for f in value._fields)


@pytest.mark.parametrize("name", VALUES)
def test_a_value_keeps_its_repr(name):
    build, text = VALUES[name]
    assert repr(build()) == text


def test_values_with_other_fields_differ():
    assert Grade([1]) != Grade([2]) and Grade([1]) != Grade([1, 0])
    assert GF2Matrix([[0, 0]]) != GF2Matrix([[0, 0, 0]])
    assert Bar(0, 1) != Bar(0, None)
    assert Barcode([Bar(0, 1)]) != Barcode([])
    assert MetricInput([0], [[0]]) != MetricInput([0], [[0]], [1])


# each record's fields without a default, in order, and then the others
# with their defaults
RECORDS = {
    ValidationReport: (("valid",), {"reason": "", "offender": None}),
    FilteredCheck: (("filtered",), {"witness": None, "condition": None, "offender": None,
                                    "reason": ""}),
    Matching: (("pairs", "deleted_left", "deleted_right"), {}),
    StabilityReport: (("holds", "bound", "distance"),
                      {"barcode_x": None, "barcode_y": None, "matching": None,
                       "module_cert_valid": False}),
    InterleavingReport: (("valid",), {"reason": "", "grade": None, "identity": None}),
    PullbackResult: (("pullback", "cert", "projection"), {}),
    ZigzagResult: (("c", "even_equal", "odd_equal", "piece_a", "piece_mid", "piece_b",
                    "composite", "total_shifts"), {}),
    SearchResult: (("distance", "certificate", "candidates"), {"reason": ""}),
    CrosscheckReport: (("holds", "bottleneck_distance", "certified_delta"),
                       {"certificate": None}),
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_a_record_keeps_its_fields_and_defaults(record):
    required, defaults = RECORDS[record]
    assert record._fields == required + tuple(defaults)
    assert record._field_defaults == defaults
    # keyword and positional construction agree, and _replace changes one field
    given = {f: Fraction(i) for i, f in enumerate(required)}
    by_keyword = record(**given)
    assert by_keyword == record(*given.values())
    assert by_keyword._asdict() == {**given, **defaults}
    first = required[0]
    assert getattr(by_keyword._replace(**{first: "x"}), first) == "x"
