"""Lossless JSON wire formats: round trips and schema rejection."""

import collections
import copy
import itertools
import json
import random
import re
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from perscert import cli
from perscert import serialize as ser
from perscert.cli import _dumps
from perscert.complexes import (SQUARE_GRID, MetricInput, degree_rips, sq_gadget,
                                vietoris_rips)
from perscert.errors import SchemaError, ValidationError
from perscert.invariants import Bar, Barcode, pi0
from perscert.grades import Grade
from perscert.persist import (DeltaMorphism, Grid, InterleavingCert, PersistentObject,
                              check_interleaving, extend_floor, floor_roundtrip_cert,
                              integer_object)
from perscert.randgen import (
    corrupt_certificate,
    interleaved_pair,
    rand_barcode,
    rand_complex_interleaving,
    rand_f2vec_object,
    rand_filtered_complex,
    rand_finset_object,
    rand_metric,
    rand_persistent_complex,
    rand_real_object,
)
from perscert.rectify import zigzag

from oracles import (decode_cert_by_values, decode_object_by_keys, encode_cert_by_occurrence,
                     encode_metric, encode_object_by_occurrence, encode_zigzag_by_occurrence)


def json_round(data):
    """Force a pass through actual JSON text."""
    return json.loads(json.dumps(data, sort_keys=True))


def test_rational_wire_format_is_exact_strings():
    assert ser.encode_rational(Fraction(3, 2)) == "3/2"
    assert ser.decode_rational("3/2") == Fraction(3, 2)
    assert ser.decode_rational("-7") == Fraction(-7)
    with pytest.raises(SchemaError):
        ser.decode_rational("1.5")
    with pytest.raises(SchemaError):
        ser.decode_rational(None)


def test_element_round_trip_handles_nesting():
    for e in ["a", 3, ("a", "b"), frozenset({("x",), ("x", "y"), ("y",)})]:
        assert ser.decode_element(json_round(ser.encode_element(e))) == e
    with pytest.raises(SchemaError):
        ser.encode_element(object())


@pytest.mark.parametrize("data, expected", [
    ([[0], [0, "a"], []], frozenset({(0,), (0, "a"), ()})),
    ([[0], [0, [1]]], frozenset({(0,), (0, (1,))})),
    (["a", [0]], frozenset({"a", (0,)})),
], ids=["flat", "nested-list", "scalar-and-list"])
def test_object_lists_decode_as_their_elements(data, expected):
    assert ser.decode_cat_object("Complex", data) == expected
    assert expected == frozenset(map(ser.decode_element, data))


@pytest.mark.parametrize("data, message", [
    ([[0], [0, True]], "bad element True"),
    ([[0], [0, 1.5]], "bad element 1.5"),
    ([[0, 1], [0, 1]], "object [[0, 1], [0, 1]] lists an element twice"),
    ([[0, [1]], [0, [1]]], "object [[0, [1]], [0, [1]]] lists an element twice"),
], ids=["boolean", "float", "repeated-simplex", "repeated-nested"])
def test_object_list_errors_name_the_offending_element(data, message):
    with pytest.raises(SchemaError) as exc:
        ser.decode_cat_object("Complex", data)
    assert str(exc.value) == message


@pytest.mark.parametrize("maker", [rand_finset_object, rand_f2vec_object,
                                   rand_persistent_complex])
def test_persistent_object_round_trip(maker):
    for seed in range(5):
        x = maker(random.Random(seed))
        data = json_round(ser.encode_object(x))
        assert data["format"] == ser.FORMAT_OBJECT
        assert ser.decode_object(data) == x


def test_encode_object_writes_each_held_map_once():
    """Each edge holds the wire form of its map, and two edges hold one list
    exactly when their maps are equal: degree-Rips shares an inclusion per
    distinct subcomplex, and equal inclusions held as distinct objects
    share one list too."""
    x = degree_rips(rand_metric(random.Random(5), 7, max_dist=12), 2)
    edge_maps = ser.encode_object(x)["edge_maps"]
    wire = {(idx, a): edge_maps[",".join(map(str, idx)) + "|" + str(a)]
            for idx, a in x.edge_maps}
    for edge, f in x.edge_maps.items():
        assert wire[edge] == ser.encode_cat_map("Complex", f)
    for e1, e2 in itertools.combinations(x.edge_maps, 2):
        assert (wire[e1] is wire[e2]) == (x.edge_maps[e1] == x.edge_maps[e2])
    lists = {id(v) for v in wire.values()}
    assert len(lists) < len({id(f) for f in x.edge_maps.values()}) < len(x.edge_maps)


def test_a_document_holds_one_dict_per_embedded_object_value():
    """The equal embedded objects of a zig-zag document are one dict; A and
    extend_floor(A), equal as objects but written with another
    ``integer_indexed``, stay two."""
    rng = random.Random(2)
    x = rand_finset_object(rng, lo=-2, hi=3)
    y, cert = interleaved_pair(rng, x, 1)
    doc = ser.encode_zigzag(zigzag(x, y, cert, 1))
    pieces = doc["pieces"]
    assert doc["composite"]["x"] is pieces["a_to_even"]["x"]
    assert doc["composite"]["y"] is pieces["odd_to_b"]["y"]
    assert pieces["a_to_even"]["y"] is pieces["even_to_odd"]["x"]  # e*(A) = e*(C)
    doc = ser.encode_cert(_floor_pair(x))
    assert doc["x"] is not doc["y"] and doc["x"]["objects"] == doc["y"]["objects"]
    assert (doc["x"]["integer_indexed"], doc["y"]["integer_indexed"]) == (True, False)


def _floor_pair(a: PersistentObject) -> InterleavingCert:
    """The 0-interleaving of a Z-indexed A and extend_floor(A) by identities."""
    e = extend_floor(a)
    ident = a.category.identity
    f = DeltaMorphism.from_fn(a, e, Grade([0]), lambda r: ident(a.evaluate(r)))
    g = DeltaMorphism.from_fn(e, a, Grade([0]), lambda r: ident(a.evaluate(r)))
    return InterleavingCert(f, g)


# -- the value table against documents encoded where each value occurs --------


def assert_same_document(ours, oracle):
    """Equal documents, and the text the CLI writes of ours is the text of
    json.dumps of the oracle's."""
    assert ours == oracle
    assert _dumps(ours) == json.dumps(oracle, sort_keys=True, indent=2)


def _named(names) -> PersistentObject:
    """A Z-indexed FinSet object whose elements are the given tuples and
    frozensets, with maps between equal sets that are not identities."""
    a, b = frozenset(names[:2]), frozenset(names)
    swap = dict(zip(names[:2], reversed(names[:2])))
    return integer_object("FinSet", [a, a, b, b],
                          [swap, {e: e for e in a}, {**swap, **{e: e for e in names[2:]}}], 0)


def _seeded_documents():
    """(name, document, oracle document) for seeded certificates of the three
    categories, zig-zags at m = 1 and 2, floor round trips, degree-Rips
    objects, objects named by tuples and frozensets, and a certificate
    between A and extend_floor(A)."""
    out = []
    for seed in range(3):
        rng = random.Random(seed)
        for x in (rand_finset_object(rng, lo=-2, hi=3), rand_f2vec_object(rng, lo=-2, hi=3),
                  rand_persistent_complex(rng)):
            for m in (1, 2):
                y, cert = interleaved_pair(rng, x, m)
                name = f"{x.category_name} seed {seed} m={m}"
                out.append((f"cert {name}", ser.encode_cert(cert),
                            encode_cert_by_occurrence(cert)))
                out.append((f"slim cert {name}", ser.encode_cert(cert, False),
                            encode_cert_by_occurrence(cert, False)))
                result = zigzag(x, y, cert, m)
                out.append((f"zigzag {name}", ser.encode_zigzag(result),
                            encode_zigzag_by_occurrence(result)))
            out.append((f"floor pair {x.category_name} seed {seed}",
                        ser.encode_cert(_floor_pair(x)),
                        encode_cert_by_occurrence(_floor_pair(x))))
        for category in ("FinSet", "F2Vec"):
            cert = floor_roundtrip_cert(rand_real_object(rng, category))
            out.append((f"roundtrip {category} seed {seed}", ser.encode_cert(cert),
                        encode_cert_by_occurrence(cert)))
        x = degree_rips(rand_metric(rng, 6, max_dist=8), 2)
        out.append((f"degree-rips seed {seed}", ser.encode_object(x),
                    encode_object_by_occurrence(x)))
    for names in ([("a", 1), ("b",), ("a", ("b", 2))],
                  [frozenset({"a"}), frozenset({"b", 1}), frozenset({frozenset({"c"})})]):
        x = _named(names)
        y, cert = interleaved_pair(random.Random(0), x, 1)
        out.append((f"names {type(names[0]).__name__}", ser.encode_cert(cert),
                    encode_cert_by_occurrence(cert)))
    return out


@pytest.mark.parametrize("ours, oracle", [pytest.param(ours, oracle, id=name)
                                           for name, ours, oracle in _seeded_documents()])
def test_documents_match_the_encoders_without_a_table(ours, oracle):
    assert_same_document(ours, oracle)


def test_vertex_maps_filed_under_one_key_are_told_apart(monkeypatch):
    """With every vertex map filed under one key, the table still shares a
    wire form only between equal maps."""
    monkeypatch.setattr(ser, "hash", lambda item: 0, raising=False)
    for ours, oracle in [(ours, oracle) for _, ours, oracle in _seeded_documents()]:
        assert_same_document(ours, oracle)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from(["FinSet", "F2Vec", "Complex"]),
       st.integers(1, 2))
def test_random_documents_match_the_encoders_without_a_table(seed, category, m):
    """Seeded objects, their interleaved partners, the zig-zag of the pair and
    the floor round trip of an object on a rational axis, each encoded with
    one table and without."""
    rng = random.Random(seed)
    if category == "Complex":
        x = rand_persistent_complex(rng)
    else:
        make = rand_finset_object if category == "FinSet" else rand_f2vec_object
        x = make(rng, lo=-rng.randint(0, 3), hi=rng.randint(0, 3))
    y, cert = interleaved_pair(rng, x, m)
    assert_same_document(ser.encode_object(y), encode_object_by_occurrence(y))
    assert_same_document(ser.encode_cert(cert), encode_cert_by_occurrence(cert))
    result = zigzag(x, y, cert, m)
    assert_same_document(ser.encode_zigzag(result), encode_zigzag_by_occurrence(result))
    if category != "Complex":
        cert = floor_roundtrip_cert(rand_real_object(rng, category))
        assert_same_document(ser.encode_cert(cert), encode_cert_by_occurrence(cert))


# -- object lists that share simplices, as the writer writes them -------------


def _square() -> PersistentObject:
    """A commuting square of complexes: an edge and a point over two points."""
    edge, point = frozenset({("a",), ("b",), ("a", "b")}), frozenset({("c",)})
    return PersistentObject(
        SQUARE_GRID, "Complex",
        {(0, 0): frozenset({("a",), ("b",)}), (1, 0): edge, (0, 1): point, (1, 1): point},
        {((0, 0), 0): {"a": "a", "b": "b"}, ((0, 0), 1): {"a": "c", "b": "c"},
         ((1, 0), 1): {"a": "c", "b": "c"}, ((0, 1), 0): {"c": "c"}})


def _shared_simplex_objects():
    """(name, persistent object) for degree-Rips objects of 6-12 seeded
    points and their pi0 (components named by frozensets), the sq_gadget of
    a square, and degree-Rips objects on vertices named by strings, tuples
    and frozensets."""
    out = []
    for n in range(6, 13):
        x = degree_rips(rand_metric(random.Random(n), n, max_dist=n * n // 4), 2)
        out += [(f"degree-rips n={n}", x), (f"pi0 of degree-rips n={n}", pi0(x))]
    out.append(("sq_gadget", sq_gadget(_square())))
    for names in (["a", "b", "c", "d", "e", "f"],
                  [("a", 1), ("b",), ("a", ("b", 2)), ("c", 3), ("d",), ("e", "f")],
                  [frozenset({"a"}), frozenset({"b", 1}), frozenset({frozenset({"c"})}),
                   frozenset({"d"}), frozenset({("e", 2)}), frozenset({"f", "g"})]):
        metric = MetricInput(names, rand_metric(random.Random(1), len(names), max_dist=6).dist)
        out.append((f"degree-rips on {type(names[0]).__name__} names", degree_rips(metric, 2)))
    return out


@pytest.mark.parametrize("x", [pytest.param(x, id=name)
                               for name, x in _shared_simplex_objects()])
def test_objects_that_share_simplices_are_written_as_json_dumps_writes_them(x):
    assert_same_document(ser.encode_object(x), encode_object_by_occurrence(x))


@pytest.mark.parametrize("x", [pytest.param(x, id=name)
                               for name, x in _shared_simplex_objects()
                               if "frozenset" not in name])
def test_decoded_objects_that_share_values_equal_the_objects_read_entry_by_entry(x):
    """Decoding with the last values of each table kept gives what decoding
    every entry on its own gives, and the decoded object holds fewer
    distinct complexes than grid points wherever the document repeats one
    list next to itself. (Simplices over frozenset vertex names are left
    out: ``total_order`` is not total on frozensets, so under some hash
    seeds their objects are refused as unsorted, by both decoders.)"""
    data = json_round(ser.encode_object(x))
    y, oracle = ser.decode_object(data), decode_object_by_keys(data)
    assert y == oracle == x and y.integer_indexed == oracle.integer_indexed
    lists = list(data["objects"].values())
    if any(a == b and _flat(a) for a, b in zip(lists, lists[1:])):
        assert len(set(map(id, y.objects.values()))) < len(y.objects)


def _flat(obj) -> bool:
    """Whether an object list holds simplices of plain vertex names."""
    return all(type(s) is list and all(type(v) in (str, int) for v in s) for s in obj)


def test_is_filtered_reads_the_same_on_both_decodes_under_each_hash_seed():
    """is_filtered names the same verdict, condition, offender and witness
    on a decoded object that shares values and on one read entry by entry,
    in processes with hash seeds 0-5, on degree-Rips objects of 6-12 seeded
    points named by integers and by strings."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    here = Path(__file__).resolve().parent
    code = (
        "import json, random\n"
        "from perscert import serialize as ser\n"
        "from perscert.complexes import MetricInput, degree_rips, is_filtered\n"
        "from perscert.randgen import rand_metric\n"
        "from oracles import decode_object_by_keys\n"
        "def verdict(decode, data):\n"
        "    r = is_filtered(decode(data))\n"
        "    return r.filtered, r.condition, r.offender, r.witness\n"
        "out = []\n"
        "for n in range(6, 13):\n"
        "    metric = rand_metric(random.Random(n), n, max_dist=n * n // 4)\n"
        "    for points in (metric.points, [f'v{i}' for i in range(n)]):\n"
        "        data = json.loads(json.dumps(ser.encode_object(\n"
        "            degree_rips(MetricInput(points, metric.dist), 2))))\n"
        "        out.append(verdict(ser.decode_object, data)\n"
        "                   == verdict(decode_object_by_keys, data))\n"
        "print(json.dumps(out))\n"
    )
    for hash_seed in range(6):
        env = {**os.environ, "PYTHONHASHSEED": str(hash_seed),
               "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert json.loads(run.stdout) == [True] * 14


def _degree_rips_document() -> dict:
    return ser.encode_object(degree_rips(rand_metric(random.Random(9), 9, max_dist=20), 2))


def test_equal_simplices_of_different_objects_are_one_list():
    """What the writer relies on: each distinct simplex of an object document
    is one wire list, held by every object list that holds the simplex."""
    lists = list(_degree_rips_document()["objects"].values())
    first = {}
    for obj in lists:
        for s in obj:
            assert first.setdefault(tuple(s), s) is s
    assert sum(map(len, lists)) > 2 * len(first)


def test_the_writer_encodes_each_shared_simplex_once(monkeypatch):
    """The writer joins object lists from the text of their simplices: some
    simplices go to the encoder alone, and none goes twice."""
    doc, encoder, calls = _degree_rips_document(), cli._ENCODER, collections.Counter()

    class Counting:
        def encode(self, value):
            calls[id(value)] += 1
            return encoder.encode(value)

    monkeypatch.setattr(cli, "_ENCODER", Counting())
    assert _dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)
    alone = [calls[id(s)] for obj in doc["objects"].values() for s in obj if id(s) in calls]
    assert alone and max(alone) == 1


def test_certificate_round_trip_with_embedded_objects():
    for seed in range(5):
        rng = random.Random(seed)
        x = rand_finset_object(rng, lo=-2, hi=2)
        y, cert = interleaved_pair(rng, x, 1)
        data = json_round(ser.encode_cert(cert))
        back = ser.decode_cert(data)
        assert back.f.equals(cert.f) and back.g.equals(cert.g)
        assert check_interleaving(back).valid
        # without embedded objects the caller must supply them
        slim = json_round(ser.encode_cert(cert, include_objects=False))
        assert ser.decode_cert(slim, x, y).f.equals(cert.f)
        with pytest.raises(SchemaError):
            ser.decode_cert(slim)


def test_filtered_complex_round_trip():
    for fc in [vietoris_rips(rand_metric(random.Random(0), 4), 2),
               rand_filtered_complex(random.Random(1))]:
        data = json_round(ser.encode_filtered_complex(fc))
        assert ser.decode_filtered_complex(data) == fc


def test_decoded_complexes_share_each_wire_grade_and_refuse_bad_ones_after_good():
    """A wire grade of strings is decoded once, so simplices of one grade
    share one Grade; a bad grade is refused wherever it comes, also after a
    good grade it equals in Python (``true`` after ``1``, ``1.0`` after
    ``1``, a string's characters after their list)."""
    def doc(*grades):
        return {"format": ser.FORMAT_COMPLEX, "vertices": list(range(len(grades))),
                "simplices": [{"v": [i], "grade": g} for i, g in enumerate(grades)]}

    f = ser.decode_filtered_complex(doc(["1/2"], ["1/2"], [1], [1], ["2/4"]))
    assert f.grade[(0,)] is f.grade[(1,)] and f.grade[(0,)] == f.grade[(4,)]
    assert f.grade[(2,)] == f.grade[(3,)] == Grade([1])
    for bad in ([True], [1.0], "12", {"1": 0}, [["1"]], []):
        with pytest.raises(SchemaError, match="bad"):
            ser.decode_filtered_complex(doc([1], ["1"], ["1", "2"], list("12"), bad))


def _line_object(category: str, objects: list, maps: list) -> dict:
    """The document of a persistent object on the grid 0 < 1 < ...: objects
    at its points and maps on its steps, in grid order."""
    return {"format": ser.FORMAT_OBJECT, "m": 1, "category": category,
            "axes": [[str(i) for i in range(len(objects))]],
            "objects": {str(i): obj for i, obj in enumerate(objects)},
            "edge_maps": {f"{i}|0": f for i, f in enumerate(maps)}}


def test_decoded_objects_share_equal_lists_and_maps_and_refuse_bad_ones_after_good(tmp_path):
    """An object list or vertex map equal to one decoded before it in its
    table is decoded once; an unequal one, also one that lists the same set
    in another order, is decoded on its own. A bad list or map is refused
    wherever it comes, also after a good one it equals in Python (``true``
    after ``1``, ``1.0`` after ``1``), with exit 2 through the CLI."""
    x = ser.decode_object(_line_object(
        "Complex", [[[1]], [[1]], [[1], [2]], [[2], [1]]],
        [[[1, 1]], [[1, 1]], [[1, 1], [2, 2]]]))
    objects, maps = x.objects, x.edge_maps
    assert objects[(0,)] is objects[(1,)] and objects[(1,)] is not objects[(2,)]
    assert objects[(2,)] == objects[(3,)] and objects[(2,)] is not objects[(3,)]
    assert maps[((0,), 0)] is maps[((1,), 0)] and maps[((1,), 0)] is not maps[((2,), 0)]
    f = ser.decode_object(_line_object("FinSet", [["a"]] * 3, [[["a", "a"]], [["a", "a"]]]))
    assert f.edge_maps[((0,), 0)] is f.edge_maps[((1,), 0)]
    runner = CliRunner()
    for bad in (True, 1.0):
        assert [[bad]] == [[1]] and [[bad, 1]] == [[1, 1]] == [[1, bad]]
        docs = [_line_object("Complex", [[[1]], [[1]], [[bad]]], [[[1, 1]], [[1, 1]]])]
        docs += [_line_object(category, [obj, obj, obj], [[[1, 1]], pair])
                 for category, obj in (("Complex", [[1]]), ("FinSet", [1]))
                 for pair in ([[bad, 1]], [[1, bad]])]
        for doc in docs:
            with pytest.raises(SchemaError, match=f"^bad element {bad}$"):
                ser.decode_object(doc)
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(doc))
            r = runner.invoke(cli.main, ["is-filtered", str(path)])
            assert r.exit_code == 2 and f"bad element {bad}" in r.output


def _line_cert(category: str, objects: list, maps: list, components: list) -> dict:
    """The document of a 0-interleaving of _line_object(category, objects,
    maps) with itself, both legs with the given components in grid order,
    through JSON text."""
    x = _line_object(category, objects, maps)
    legs = [{"at": [str(i)], "map": f} for i, f in enumerate(components)]
    return json_round({"format": ser.FORMAT_CERT, "epsilon": ["0"], "delta": ["0"],
                       "f_components": legs, "g_components": legs, "x": x, "y": x})


def test_decoded_certificates_share_equal_component_maps_and_refuse_bad_ones_after_good(
        tmp_path):
    """Each component list of a certificate is read as an object's edge
    maps: a vertex map equal to one decoded before it in its list is decoded
    once, an unequal or reordered one on its own. A bad map is refused
    wherever it comes, also after a good one it equals in Python (``true``
    after ``1``, ``1.0`` after ``1``), with exit 2 through the CLI."""
    identities = [[[1, 1]], [[1, 1]], [[1, 1], [2, 2]], [[2, 2], [1, 1]]]
    for category, objects in (("Complex", [[[1]], [[1]], [[1], [2]], [[2], [1]]]),
                              ("FinSet", [[1], [1], [1, 2], [2, 1]])):
        cert = ser.decode_cert(_line_cert(category, objects, identities[:3], identities))
        assert check_interleaving(cert).valid
        for leg in (cert.f, cert.g):
            maps = leg.components
            assert maps[(0,)] is maps[(1,)] and maps[(1,)] is not maps[(2,)]
            assert maps[(2,)] == maps[(3,)] and maps[(2,)] is not maps[(3,)]
    runner = CliRunner()
    for bad in (True, 1.0):
        for pair in ([bad, 1], [1, bad]):
            doc = _line_cert("Complex", [[[1]]] * 3, [[[1, 1]]] * 2,
                             [[[1, 1]], [[1, 1]], [pair]])
            with pytest.raises(SchemaError, match=f"^bad element {bad}$"):
                ser.decode_cert(doc)
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(doc))
            r = runner.invoke(cli.main, ["interleave-check", str(path)])
            assert r.exit_code == 2 and f"bad element {bad}" in r.output


def _seeded_certificates():
    """Seeded genuine 1-interleavings of FinSet, F2Vec and Complex objects,
    and a corrupted copy of each."""
    certs = []
    for seed in range(3):
        rng = random.Random(seed)
        for x in (rand_finset_object(rng, lo=0, hi=12, max_size=3),
                  rand_f2vec_object(rng, lo=0, hi=12, max_dim=2)):
            certs.append(interleaved_pair(rng, x, 1)[1])
        certs.append(rand_complex_interleaving(rng)[2])
    return certs + [corrupt_certificate(random.Random(i), c) for i, c in enumerate(certs)]


@pytest.mark.parametrize("cert", _seeded_certificates())
def test_decoded_certificates_equal_and_replay_as_the_certificates_read_entry_by_entry(cert):
    """A certificate read through the component tables is the certificate
    read map by map, and its replay gives the same verdict, grade and
    identity."""
    doc = json_round(ser.encode_cert(cert))
    ours, oracle = ser.decode_cert(doc), decode_cert_by_values(doc)
    assert _cert_parts(ours) == _cert_parts(oracle) == _cert_parts(cert)
    reports = [check_interleaving(c) for c in (ours, oracle)]
    assert len({(r.valid, r.grade, r.identity) for r in reports}) == 1


def test_a_map_shared_by_two_edges_is_checked_on_each():
    """One vertex map value on two edges is checked against each edge's own
    source and target, and refused at the second edge when it is valid for
    the first only: by its vertices, or by a simplex the target lacks."""
    with pytest.raises(ValidationError, match=re.escape("edge map at ((1,), 0)")):
        ser.decode_object(_line_object("Complex", [[[1]], [[1], [2]], [[1], [2]]],
                                       [[[1, 1]], [[1, 1]]]))
    with pytest.raises(ValidationError, match=re.escape("edge map at ((1,), 0)")):
        ser.decode_object(_line_object(
            "Complex", [[[1], [2]], [[1], [2], [1, 2]], [[1], [2]]],
            [[[1, 1], [2, 2]], [[1, 1], [2, 2]]]))
    x = ser.decode_object(_line_object(
        "Complex", [[[1], [2]], [[1], [2], [1, 2]], [[1], [2], [1, 2]]],
        [[[1, 1], [2, 2]], [[1, 1], [2, 2]]]))
    assert x.edge_maps[((0,), 0)] is x.edge_maps[((1,), 0)] and x.objects[(1,)] is x.objects[(2,)]


def test_encoded_objects_sort_each_element_by_the_repr_of_its_wire_form():
    """Element wire forms kept from one object to the next give the lists
    of a fresh encode_cat_object, for tuple, frozenset and mixed elements
    shared between objects."""
    a, b = frozenset({"x", 10}), frozenset({("y", 2), frozenset({1})})
    x = PersistentObject(Grid([[0, 1, 2]]), "FinSet", {(0,): a, (1,): a | b, (2,): b | a},
                         {((0,), 0): {e: e for e in a}, ((1,), 0): {e: e for e in a | b}})
    data = ser.encode_object(x)
    for idx, obj in x.objects.items():
        assert data["objects"][",".join(map(str, idx))] == ser.encode_cat_object("FinSet", obj)


def test_metric_round_trip_including_values():
    mi = rand_metric(random.Random(2), 4)
    data = json_round(encode_metric(mi))
    back = ser.decode_metric(data)
    assert back.points == mi.points and back.dist == mi.dist


def test_barcode_round_trip_with_infinite_deaths():
    b = Barcode([Bar(0, 2), Bar(Fraction(1, 2), None)])
    data = json_round(ser.encode_barcode(b))
    assert ser.decode_barcode(data) == b
    assert "inf" in json.dumps(data)
    for seed in range(5):
        b = rand_barcode(random.Random(seed))
        assert ser.decode_barcode(json_round(ser.encode_barcode(b))) == b


def test_decoders_reject_wrong_formats_and_shapes():
    with pytest.raises(SchemaError):
        ser.decode_object({"format": "bogus"})
    with pytest.raises(SchemaError):
        ser.decode_barcode({"format": ser.FORMAT_BARCODE, "intervals": [{"birth": "0"}]})
    with pytest.raises(SchemaError):
        ser.decode_filtered_complex({"format": ser.FORMAT_COMPLEX, "simplices": [{}]})
    with pytest.raises(SchemaError):
        ser.decode_metric({"format": ser.FORMAT_METRIC})
    with pytest.raises(SchemaError):
        ser.decode_grade([])


def test_seeded_finset_objects_do_not_depend_on_the_hash_seed():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import json, random\n"
        "from perscert import serialize as ser\n"
        "from perscert.randgen import rand_finset_object\n"
        "print(json.dumps([ser.encode_object(rand_finset_object(random.Random(s)))"
        " for s in range(5)], sort_keys=True))\n"
    )
    outputs = set()
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        outputs.add(run.stdout)
    assert len(outputs) == 1


# -- grid tables and flat reads against documents read entry by entry ---------


def _wire_documents():
    """A degree-Rips complex, a set and a vector-space object, and two
    certificates with embedded objects, each through JSON text."""
    x = rand_finset_object(random.Random(3), lo=-1, hi=1, max_size=2)
    v = rand_f2vec_object(random.Random(3), lo=0, hi=2, max_dim=2)
    docs = [
        ser.encode_object(degree_rips(rand_metric(random.Random(5), 5, max_dist=6), 2)),
        ser.encode_object(rand_finset_object(random.Random(2), lo=-1, hi=2, max_size=3)),
        ser.encode_object(v),
        ser.encode_cert(interleaved_pair(random.Random(4), x, 1)[1]),
        ser.encode_cert(interleaved_pair(random.Random(6), v, 1)[1]),
    ]
    return [json_round(doc) for doc in docs]


WIRE_DOCUMENTS = _wire_documents()
MUTATIONS = ["duplicate key", "bool or float", "nested vertex", "entry of three",
             "padded key", "off-grid key", "off-grid at", "non-canonical at",
             "unsorted simplex", "face-less simplex"]


def _parts(doc) -> list:
    """The persistent-object documents in doc: itself, or a certificate's x and y."""
    return [doc] if doc["format"] == ser.FORMAT_OBJECT else [doc["x"], doc["y"]]


def _maps(doc) -> list:
    """Every map of doc: the edge maps of its objects and the component maps
    of a certificate."""
    maps = [f for part in _parts(doc) for f in part["edge_maps"].values()]
    if doc["format"] == ser.FORMAT_CERT:
        maps += [c["map"] for key in ("f_components", "g_components") for c in doc[key]]
    return maps


@st.composite
def mutated_wire_documents(draw):
    """A document of WIRE_DOCUMENTS with one mutation, where the document has
    a place for it (else unchanged): a map key given twice, a boolean, float
    or 2 as a map or matrix entry, a vertex nested in a list, a map entry of three, an index
    key padded with a 0, a key off the grid, an "at" coordinate off the grid
    or written another way ("4/2", a JSON integer), a simplex written in
    reverse, or a simplex without one of its faces."""
    doc = copy.deepcopy(draw(st.sampled_from(WIRE_DOCUMENTS)))
    kind = draw(st.sampled_from(MUTATIONS))

    def pick(items):
        return draw(st.sampled_from(items)) if items else None

    pairs = [e for f in _maps(doc) if isinstance(f, list) for e in f]
    bits = [r for f in _maps(doc) if isinstance(f, dict) for r in f["rows"] if r]
    lists = [obj for part in _parts(doc) for obj in part["objects"].values()
             if isinstance(obj, list)]
    simplices = [obj for obj in lists if any(isinstance(s, list) and len(s) > 1 for s in obj)]
    places = [c["at"] for key in ("f_components", "g_components") for c in doc.get(key, [])]
    if kind == "duplicate key" and pairs:
        f = pick([f for f in _maps(doc) if isinstance(f, list) and f])
        f.append([pick(f)[0], pick(f)[1]])
    elif kind == "bool or float" and (pairs or bits):
        row = pick(pairs + bits)
        row[draw(st.integers(0, len(row) - 1))] = pick([True, False, 1.0, 0.0, 2])
    elif kind == "nested vertex" and (pairs or lists):
        row = pick(pairs + [obj for obj in lists if obj])
        i = draw(st.integers(0, len(row) - 1))
        row[i] = [row[i]]
    elif kind == "entry of three" and pairs:
        entry = pick(pairs)
        entry.append(entry[1])
    elif kind in ("padded key", "off-grid key"):
        part = pick(_parts(doc))
        table = part[pick(["objects", "edge_maps"])]
        key = pick(sorted(table))
        if key is not None and kind == "padded key":
            i = draw(st.integers(0, len(key) - 1))
            table[key[:i] + "0" + key[i:] if key[i].isdigit() else key] = table.pop(key)
        elif key is not None:
            far = ",".join(["9"] * len(part["axes"]))
            table[far + key[key.index("|"):] if "|" in key else far] = table[key]
    elif kind in ("off-grid at", "non-canonical at") and places:
        at = pick(places)
        i = draw(st.integers(0, len(at) - 1))
        if kind == "off-grid at":
            at[i] = pick(["1000", "-1000", "1/1000"])
        else:
            p, _, q = at[i].partition("/")
            at[i] = pick([f"{2 * int(p)}/{2 * int(q or 1)}", int(p) if not q else at[i],
                          f"{p}/1" if not q else at[i]])
    elif kind == "unsorted simplex" and simplices:
        s = pick([s for s in pick(simplices) if isinstance(s, list) and len(s) > 1])
        s.reverse()
    elif kind == "face-less simplex" and simplices:
        obj = pick(simplices)
        s = pick([s for s in obj if isinstance(s, list) and len(s) > 1])
        face = s[:draw(st.integers(0, len(s) - 1))]
        if face in obj:
            obj.remove(face)
    return kind, doc


def _decoded(decode, doc):
    """decode(doc), or the type and message of the error it raises."""
    try:
        return decode(doc)
    except Exception as exc:  # compared with the oracle's, not handled
        return type(exc), str(exc)


def _cert_parts(cert):
    return [(f.source, f.target, f.shift, f.components) for f in (cert.f, cert.g)]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutated_wire_documents())
def test_mutated_documents_decode_as_read_entry_by_entry(case):
    """The grid tables and the flat reads of maps and objects give what
    parsing every key and decoding every entry gives: the same value, or the
    same error type and message."""
    _, doc = case
    if doc["format"] == ser.FORMAT_OBJECT:
        assert _decoded(ser.decode_object, doc) == _decoded(decode_object_by_keys, doc)
    else:
        assert (_decoded(lambda d: _cert_parts(ser.decode_cert(d)), doc)
                == _decoded(lambda d: _cert_parts(decode_cert_by_values(d)), doc))
