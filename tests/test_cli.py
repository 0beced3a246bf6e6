"""CLI: pipeline composition, deterministic output, and exit codes
(0 ok, 1 property violated, 2 schema error, 3 budget exceeded)."""

import contextlib
import copy
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from perscert import cli, persist
from perscert import serialize as ser
from perscert.cli import _pieces, main
from perscert.complexes import (FilteredComplex, MetricInput, function_rips, to_persistent,
                                vietoris_rips)
from perscert.distances import MAX_BARS
from perscert.gf2 import GF2Matrix
from perscert.grades import grade
from perscert.invariants import Bar, Barcode
from perscert.persist import (InterleavingReport, floor_roundtrip_cert, integer_object,
                              self_interleaving)
from perscert.randgen import (
    corrupt_certificate,
    interleaved_pair,
    rand_finset_object,
    rand_f2vec_object,
    rand_filtered_complex,
    rand_metric,
    rand_persistent_complex,
    rand_real_object,
)

from oracles import matrix_entries
from test_cli_golden import CASES, NO_OUTPUT_OPTION

COLLINEAR = {
    "format": ser.FORMAT_METRIC,
    "points": [0, 1, 3],
    "matrix": [["0", "1", "3"], ["1", "0", "2"], ["3", "2", "0"]],
}


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


def test_rips_then_barcode_pipeline(runner, tmp_path):
    metric = write(tmp_path, "metric.json", COLLINEAR)
    r1 = invoke(runner, ["rips", metric])
    assert r1.exit_code == 0
    complex_path = write(tmp_path, "vr.json", json.loads(r1.output))
    r2 = invoke(runner, ["barcode", complex_path, "--dim", "0"])
    assert r2.exit_code == 0
    bars = json.loads(r2.output)["intervals"]
    assert bars == [
        {"birth": "0", "death": "inf"},
        {"birth": "0", "death": "1"},
        {"birth": "0", "death": "2"},
    ]


def test_output_is_byte_identical_across_runs(runner, tmp_path):
    metric = write(tmp_path, "metric.json", COLLINEAR)
    outs = {invoke(runner, ["rips", metric]).output for _ in range(3)}
    assert len(outs) == 1


def test_schema_error_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = invoke(runner, ["rips", str(bad)])
    assert r.exit_code == 2
    wrong = write(tmp_path, "wrong.json", {"format": "bogus"})
    assert invoke(runner, ["barcode", wrong]).exit_code == 2


@pytest.mark.parametrize("output", [".", "missing/dir/x.json"],
                         ids=["a-directory", "in-a-missing-directory"])
def test_output_that_cannot_be_written_is_a_schema_error(runner, tmp_path, output):
    metric = write(tmp_path, "metric.json", COLLINEAR)
    r = invoke(runner, ["rips", metric, "-o", str(tmp_path / output)])
    assert r.exit_code == 2
    report = json.loads(r.output)
    assert report["ok"] is False and report["error"] == "schema"
    assert report["message"].startswith(f"cannot write JSON to {tmp_path / output}: ")


# text of keys and strings: quotes, backslashes, newlines, non-ASCII
TEXT = st.text(st.sampled_from('a"\\\n\t\u00e9\u2028\U0001f600 ') | st.characters(),
               max_size=3)
SCALARS = st.none() | st.booleans() | st.integers(-2, 2) | TEXT
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(TEXT, inner, max_size=3), max_leaves=6)
CONTAINERS = st.lists(VALUES, max_size=3) | st.dictionaries(TEXT, VALUES, max_size=3)


# non-empty containers, whose text spans lines
LINED = st.lists(VALUES, min_size=1, max_size=3) | st.dictionaries(TEXT, VALUES, min_size=1,
                                                                   max_size=3)


@st.composite
def repeating_documents(draw):
    """A document with a member dict that holds one list or dict object under
    two keys; shared objects may hold shared objects in turn. The member
    also holds two lists that start with one item, a shared container or a
    scalar, and share another; their other items are shared containers,
    scalars and empty containers."""
    pool = [draw(CONTAINERS)]
    for _ in range(draw(st.integers(0, 3))):
        inner = draw(st.sampled_from(pool))
        pool.append(draw(st.sampled_from([[inner, True, inner, 1], {"x": inner, "y": inner},
                                          [], {}, draw(CONTAINERS)])))
    shared = st.sampled_from([draw(LINED), draw(LINED), *pool])
    first, common = draw(shared | SCALARS), draw(shared)
    entries = st.lists(shared | SCALARS | st.builds(list) | st.builds(dict), max_size=3)
    lists = [[first, *draw(entries), common, *draw(entries)] for _ in range(2)]
    held = st.dictionaries(TEXT, st.sampled_from(pool + lists) | VALUES, max_size=4)
    doc = draw(st.dictionaries(TEXT, st.sampled_from(pool) | VALUES | held, max_size=4))
    repeating = {**draw(held), "\u00e9\"\\\n": pool[-1], "k": pool[-1],
                 "l0": lists[0], "l1": lists[1]}
    return {**doc, draw(TEXT): repeating}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(repeating_documents())
def test_pieces_join_to_the_text_of_json_dumps(doc):
    assert "".join(_pieces(doc)) == json.dumps(doc, sort_keys=True, indent=2)


def emitted(doc, path) -> tuple[str, str]:
    """The text _emit writes of doc to stdout, and to the file path."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._emit(doc, None)
    cli._emit(doc, str(path))
    return out.getvalue(), path.read_text()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(repeating_documents() | st.dictionaries(TEXT, VALUES, max_size=4), st.integers(1, 4),
       st.sampled_from([1, 7, 64, cli._SLICE]))
def test_emit_writes_the_text_of_json_dumps(doc, batch, length):
    """Whatever the number of pieces per batch and the characters per
    write, _emit writes the text of json.dumps and a newline, to stdout and
    to a file."""
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    with (tempfile.TemporaryDirectory() as folder, mock.patch.object(cli, "_BATCH", batch),
          mock.patch.object(cli, "_SLICE", length)):
        assert emitted(doc, Path(folder) / "doc.json") == (text, text)


LONG = {"plain": {"n": list(range(3 * cli._BATCH))},
        "repeating": {"m": dict.fromkeys(map(str, range(cli._BATCH)), [0, 1])}}


@pytest.mark.parametrize("kind", LONG)
def test_emit_writes_a_document_of_several_batches(tmp_path, kind):
    """A document of more pieces than one batch holds (on every encoder, a
    member dict that holds one list under each of its keys) is written as
    json.dumps writes it, to stdout and to a file."""
    doc = LONG[kind]
    if kind == "repeating":
        assert len(list(_pieces(doc))) > 2 * cli._BATCH
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert emitted(doc, tmp_path / "doc.json") == (text, text)


class Bounded(io.StringIO):
    """A text file that fails a write past 100 characters."""

    def write(self, text):
        assert self.tell() + len(text) <= 100, "the writer repeats its pieces"
        return super().write(text)


def test_write_takes_the_pieces_of_a_sequence_once(monkeypatch):
    """The C encoder of 3.13 gives a document as a tuple, not an iterator:
    its pieces are written once."""
    monkeypatch.setattr(cli, "_pieces", lambda data: ("{", "}"))
    out = Bounded()
    cli._write(out, {})
    assert out.getvalue() == "{}\n"


def test_emit_holds_no_whole_document_text(tmp_path):
    """Writing the roundtrip-floor certificate of a dimension-200 F2Vec
    object (2.4 MB of text) to a file peaks under tracemalloc below half the
    text's length: it is written in batches as it is encoded. The C encoder
    of 3.13 gives the whole text as one piece, which is written in slices,
    so there the peak is about the text alone."""
    doc = ser.encode_cert(floor_roundtrip_cert(integer_object("F2Vec", [200], [], 0)))
    path = tmp_path / "cert.json"
    tracemalloc.start()
    try:
        cli._emit(doc, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    whole = type(cli._ENCODER.iterencode(doc, _one_shot=True)) is tuple
    assert size > 2_000_000 and peak < (1.2 * size if whole else size / 2)


def test_is_filtered_on_degree_rips_output_exits_1_with_condition_2(runner, tmp_path):
    metric = write(tmp_path, "metric.json", COLLINEAR)
    r1 = invoke(runner, ["degree-rips", metric])
    assert r1.exit_code == 0
    obj = write(tmp_path, "dr.json", json.loads(r1.output))
    r2 = invoke(runner, ["is-filtered", obj])
    assert r2.exit_code == 1
    report = json.loads(r2.output)
    assert report["ok"] is False and report["condition"] == 2


def test_is_filtered_on_rips_output_exits_0_with_witness(runner, tmp_path):
    metric = write(tmp_path, "metric.json", COLLINEAR)
    vr = write(tmp_path, "vr.json", json.loads(invoke(runner, ["rips", metric]).output))
    r = invoke(runner, ["is-filtered", vr])
    assert r.exit_code == 0
    assert json.loads(r.output)["witness"]


def test_is_filtered_writes_a_frozenset_vertex_in_its_wire_form(runner, tmp_path):
    vertex = {"frozenset": ["a"]}
    obj = write(tmp_path, "obj.json", {
        "format": ser.FORMAT_OBJECT, "m": 1, "category": "Complex",
        "integer_indexed": True, "axes": [["0"]], "objects": {"0": [[vertex]]},
        "edge_maps": {},
    })
    r = invoke(runner, ["is-filtered", obj])
    assert r.exit_code == 0
    assert json.loads(r.output)["witness"] == [[[vertex], ["0"]]]


def test_interleave_check_valid_and_corrupted(runner, tmp_path):
    rng = random.Random(0)
    x = rand_finset_object(rng, lo=-2, hi=2)
    cert_path = write(tmp_path, "cert.json",
                      ser.encode_cert(self_interleaving(x, grade(1))))
    assert invoke(runner, ["interleave-check", cert_path]).exit_code == 0
    y, cert = interleaved_pair(rng, x, 1)
    data = ser.encode_cert(cert)
    data["f_components"] = data["g_components"]  # deliberately inconsistent
    bad_path = write(tmp_path, "bad_cert.json", data)
    r = invoke(runner, ["interleave-check", bad_path])
    assert r.exit_code in (1, 2)  # invalid components or schema-level mismatch


def test_interleave_dist_reports_exact_rationals(runner, tmp_path):
    x = rand_finset_object(random.Random(1), lo=0, hi=2, max_size=2)
    p = write(tmp_path, "x.json", ser.encode_object(x))
    r = invoke(runner, ["interleave-dist", p, p])
    assert r.exit_code == 0
    assert json.loads(r.output)["distance"] == "0"


def test_interleave_dist_settles_an_object_past_the_recursion_limit(runner, tmp_path):
    """A one-element constant object on three times as many integer grades
    as the recursion limit is at distance 0 from itself."""
    n = 3 * sys.getrecursionlimit()
    x = integer_object("FinSet", [frozenset({"*"})] * n, [{"*": "*"}] * (n - 1), 0)
    p = write(tmp_path, "x.json", ser.encode_object(x))
    r = invoke(runner, ["interleave-dist", p, p])
    assert r.exit_code == 0
    assert json.loads(r.output)["distance"] == "0"


def test_dash_reads_the_document_from_stdin(runner, tmp_path):
    """``-`` reads the input document from stdin, with the output and exit
    code of the file form, for a metric, a complex and a certificate."""
    complex_doc = invoke(runner, ["rips", write(tmp_path, "m.json", COLLINEAR)]).output
    cases = [(["rips"], json.dumps(COLLINEAR)), (["barcode", "--dim", "0"], complex_doc),
             (["interleave-check"], json.dumps(self_cert_document()))]
    for (command, *options), text in cases:
        path = tmp_path / "in.json"
        path.write_text(text)
        by_file = invoke(runner, [command, str(path), *options])
        by_stdin = runner.invoke(main, [command, "-", *options], input=text,
                                 catch_exceptions=False)
        assert by_file.exit_code == 0
        assert (by_stdin.exit_code, by_stdin.output) == (by_file.exit_code, by_file.output)


def test_interleave_dist_budget_exceeded_exits_3(runner, tmp_path):
    rng = random.Random(2)
    x = rand_finset_object(rng, lo=-2, hi=2, max_size=4)
    y, _ = interleaved_pair(rng, x, 1)
    px = write(tmp_path, "x.json", ser.encode_object(x))
    py = write(tmp_path, "y.json", ser.encode_object(y))
    r = invoke(runner, ["interleave-dist", px, py, "--max-enum", "1"])
    assert r.exit_code == 3


def test_interleave_dist_rejects_a_set_against_a_module(runner, tmp_path):
    # the zero module is infinitely far from the point in barcodes, but the
    # two objects live in different categories
    x = integer_object("FinSet", [frozenset({"*"})] * 2, [{"*": "*"}], 0)
    y = integer_object("F2Vec", [0, 0], [GF2Matrix.zeros(0, 0)], 0)
    px = write(tmp_path, "x.json", ser.encode_object(x))
    py = write(tmp_path, "y.json", ser.encode_object(y))
    r = invoke(runner, ["interleave-dist", px, py])
    assert r.exit_code == 1
    assert json.loads(r.output)["message"] == "source and target live in different categories"


@pytest.mark.parametrize("doc, message", [
    ({"format": ser.FORMAT_OBJECT, "m": 2, "category": "FinSet", "axes": [["0"], ["0"]],
      "objects": {"0,0": ["a"]}, "edge_maps": {}}, "distance search supports m = 1 only"),
    ({"format": ser.FORMAT_OBJECT, "m": 1, "category": "Complex", "axes": [["0"]],
      "objects": {"0": [[0]]}, "edge_maps": {}},
     "distance search supports FinSet and F2Vec only"),
], ids=["two-parameter", "complexes"])
def test_interleave_dist_refuses_objects_it_does_not_search(runner, tmp_path, doc, message):
    p = write(tmp_path, "x.json", doc)
    r = invoke(runner, ["interleave-dist", p, p])
    assert r.exit_code == 1
    assert json.loads(r.output) == {"format": ser.FORMAT_REPORT, "ok": False,
                                     "error": "property", "message": message}


def test_interleave_dist_infinite_bottleneck_needs_no_budget(runner, tmp_path):
    x = integer_object("F2Vec", [1, 1], [GF2Matrix.identity(1)], 0)
    y = integer_object("F2Vec", [1, 0], [GF2Matrix.zeros(0, 1)], 0)
    px = write(tmp_path, "x.json", ser.encode_object(x))
    py = write(tmp_path, "y.json", ser.encode_object(y))
    r = invoke(runner, ["interleave-dist", px, py, "--max-enum", "1"])
    assert r.exit_code == 0
    assert json.loads(r.output)["distance"] == "inf"


def test_rectify_emits_the_composite_with_shifts_2_2(runner, tmp_path):
    rng = random.Random(3)
    x = rand_finset_object(rng, lo=-4, hi=4)
    y, cert = interleaved_pair(rng, x, 1)
    p = write(tmp_path, "cert.json", ser.encode_cert(cert))
    r = invoke(runner, ["rectify", p])
    assert r.exit_code == 0
    out = json.loads(r.output)
    assert out["even_restriction_equal"] and out["odd_restriction_equal"]
    assert out["total_shifts"] == [["2"], ["2"]]


def test_roundtrip_floor_command(runner, tmp_path):
    x = rand_real_object(random.Random(4), "FinSet")
    p = write(tmp_path, "x.json", ser.encode_object(x))
    r = invoke(runner, ["roundtrip-floor", p])
    assert r.exit_code == 0
    assert json.loads(r.output)["epsilon"] == ["1"]


def test_roundtrip_floor_refuses_a_wide_window_up_front(runner, tmp_path):
    """Two grades of F2Vec on the axis 0 < 1000000: sampling every integer
    between them is over the budget, reported with exit 3 before it starts."""
    x = {"format": ser.FORMAT_OBJECT, "m": 1, "category": "F2Vec",
         "axes": [["0", "1000000"]], "objects": {"0": 1, "1": 1},
         "edge_maps": {"0|0": {"rows": [[1]], "shape": [1, 1]}}}
    start = time.perf_counter()
    r = invoke(runner, ["roundtrip-floor", write(tmp_path, "x.json", x)])
    assert time.perf_counter() - start < 1
    assert r.exit_code == 3
    report = json.loads(r.output)
    assert (report["ok"], report["error"]) == (False, "budget")
    assert report["message"] == ("restrict_to_Z window [0, 1000001] holds 1000002 integers, "
                                 "more than the limit of 100000")


def test_stability_audit_command(runner, tmp_path):
    rng = random.Random(5)
    x = rand_persistent_complex(rng)
    y, cert = interleaved_pair(rng, x, 1)
    p = write(tmp_path, "cert.json", ser.encode_cert(cert))
    r = invoke(runner, ["stability-audit", p, "--dim", "0"])
    assert r.exit_code == 0
    out = json.loads(r.output)
    assert out["ok"] is True and out["module_certificate_valid"] is True


def _interleaved_cert(seed, build):
    rng = random.Random(seed)
    return ser.encode_cert(interleaved_pair(rng, build(rng), 1)[1])


@pytest.mark.parametrize("command, doc, fmt", [
    ("rectify", _interleaved_cert(3, rand_finset_object), ser.FORMAT_ZIGZAG),
    ("roundtrip-floor", ser.encode_object(rand_real_object(random.Random(4), "FinSet")),
     ser.FORMAT_CERT),
    ("stability-audit", _interleaved_cert(5, rand_persistent_complex), ser.FORMAT_REPORT),
])
def test_failed_replay_writes_the_document_then_exits_1(
        runner, tmp_path, monkeypatch, command, doc, fmt):
    """Each command replays what it built, and the document is written, to
    the -o file when given, before the exit; here the replay (the
    certificate check, or the stability inequality) is made to fail."""
    audit = cli.stability_audit
    monkeypatch.setattr(cli, "check_interleaving",
                        lambda cert: InterleavingReport(False, "refused"))
    monkeypatch.setattr(cli, "stability_audit",
                        lambda cert, n: audit(cert, n)._replace(holds=False))
    path = write(tmp_path, "doc.json", doc)
    r = invoke(runner, [command, path])
    assert r.exit_code == 1
    assert json.loads(r.output)["format"] == fmt
    out = tmp_path / "out.json"
    r = invoke(runner, [command, path, "-o", str(out)])
    assert r.exit_code == 1 and r.output == ""
    assert json.loads(out.read_text())["format"] == fmt


def test_bottleneck_command(runner, tmp_path):
    b1 = write(tmp_path, "b1.json", {
        "format": ser.FORMAT_BARCODE,
        "intervals": [{"birth": "0", "death": "2"}],
    })
    b2 = write(tmp_path, "b2.json", {
        "format": ser.FORMAT_BARCODE,
        "intervals": [{"birth": "0", "death": "3"}],
    })
    r = invoke(runner, ["bottleneck", b1, b2])
    assert r.exit_code == 0
    assert json.loads(r.output)["cost"] == "1"


def test_pi0_and_homology_accept_complex_documents(runner, tmp_path):
    from perscert.complexes import vietoris_rips

    vr = vietoris_rips(MetricInput([0, 1, 3], [[0, 1, 3], [1, 0, 2], [3, 2, 0]]), 2)
    p = write(tmp_path, "vr.json", ser.encode_filtered_complex(vr))
    r0 = invoke(runner, ["pi0", p])
    assert r0.exit_code == 0
    r1 = invoke(runner, ["homology", p, "--dim", "1"])
    assert r1.exit_code == 0
    assert json.loads(r1.output)["category"] == "F2Vec"


def test_skeleton_command(runner, tmp_path):
    from perscert.complexes import vietoris_rips

    vr = vietoris_rips(MetricInput([0, 1, 3], [[0, 1, 3], [1, 0, 2], [3, 2, 0]]), 2)
    p = write(tmp_path, "vr.json", ser.encode_filtered_complex(vr))
    r = invoke(runner, ["skeleton", p, "-n", "1"])
    assert r.exit_code == 0
    out = json.loads(r.output)
    assert all(len(s["v"]) <= 2 for s in out["simplices"])


def square_document(vertices=("*",), corners=(), maps=()):
    """An sq-gadget document: the square of four copies of the discrete
    complex on vertices with identity maps, with the given corners and maps
    put in (or dropped, where given None)."""
    corner = [[v] for v in vertices]
    ident = [[v, v] for v in vertices]
    doc = {"corners": dict.fromkeys(["0,0", "1,0", "0,1", "1,1"], corner),
           "maps": dict.fromkeys(["0,0|0", "0,0|1", "1,0|1", "0,1|0"], ident)}
    for part, change in (("corners", dict(corners)), ("maps", dict(maps))):
        for key, value in change.items():
            if value is None:
                del doc[part][key]
            else:
                doc[part][key] = value
    return doc


def test_sq_gadget_command(runner, tmp_path):
    p = write(tmp_path, "square.json", square_document())
    r = invoke(runner, ["sq-gadget", p])
    assert r.exit_code == 0
    assert json.loads(r.output)["m"] == 2


@pytest.mark.parametrize("doc, message", [
    (square_document(corners={"2,0": [["*"]]}), "keys outside the grid"),
    (square_document(maps={"1,1|0": [["*", "zz"]]}), "keys outside the grid"),
    (square_document(corners={"1,1": None}), "missing object at grid index (1, 1)"),
    (square_document(maps={"0,0|0": [["*", "zz"]]}),
     "edge map at ((0, 0), 0) is not a valid map"),
    (square_document(corners={"0,0": []}), "edge map at ((0, 0), 0) is not a valid map"),
    (square_document(("a", "b"), maps={"0,0|0": [["a", "b"], ["b", "a"]]}),
     "non-commuting square at (0, 0), axes (0,1)"),
], ids=["stray-corner", "stray-map", "missing-corner", "map-off-target",
        "map-out-of-empty-corner", "non-commuting"])
def test_square_is_validated_as_a_persistent_complex(runner, tmp_path, doc, message):
    r = invoke(runner, ["sq-gadget", write(tmp_path, "square.json", doc)])
    assert r.exit_code == 1
    report = json.loads(r.output)
    assert report["ok"] is False and report["error"] == "property"
    assert message in report["message"]


def f2vec_object(edge_map):
    """A two-grade F2Vec object whose one edge map is the given wire matrix."""
    return {
        "format": ser.FORMAT_OBJECT,
        "m": 1,
        "category": "F2Vec",
        "axes": [["0", "1"]],
        "objects": {"0": 2, "1": 2},
        "edge_maps": {"0|0": edge_map},
    }


def test_valid_matrix_document_is_accepted(runner, tmp_path):
    p = write(tmp_path, "x.json", f2vec_object({"rows": [[1, 0], [1, 1]], "shape": [2, 2]}))
    r = invoke(runner, ["barcode", p])
    assert r.exit_code == 0
    assert json.loads(r.output)["intervals"] == [
        {"birth": "0", "death": "inf"}, {"birth": "0", "death": "inf"},
    ]


@pytest.mark.parametrize("edge_map", [
    {"rows": [[1, 0], [0, 1]], "shape": [2]},
    {"rows": [[1, 0, 1], [0, 1]], "shape": [2, 2]},
    {"rows": [[1, 0], [0, 1]], "shape": ["2", "2"]},
    {"rows": 5, "shape": [2, 2]},
    {"rows": [[1, "a"], [0, 1]], "shape": [2, 2]},
    {"rows": [[1, None], [0, 1]], "shape": [2, 2]},
    {"rows": [[1, 3], [0, 1]], "shape": [2, 2]},
], ids=["short-shape", "long-row", "string-shape", "rows-not-a-list",
        "string-entry", "null-entry", "entry-3"])
def test_malformed_matrix_is_a_schema_error(runner, tmp_path, edge_map):
    p = write(tmp_path, "x.json", f2vec_object(edge_map))
    r = invoke(runner, ["barcode", p])
    assert r.exit_code == 2
    report = json.loads(r.output)
    assert report["ok"] is False and report["error"] == "schema"


def test_inverted_bar_is_a_schema_error(runner, tmp_path):
    good = write(tmp_path, "good.json", {
        "format": ser.FORMAT_BARCODE,
        "intervals": [{"birth": "0", "death": "2"}],
    })
    bad = write(tmp_path, "bad.json", {
        "format": ser.FORMAT_BARCODE,
        "intervals": [{"birth": "2", "death": "1"}],
    })
    r = invoke(runner, ["bottleneck", good, bad])
    assert r.exit_code == 2
    assert json.loads(r.output)["error"] == "schema"


@pytest.mark.parametrize("patch", [
    {"objects": {"a": 2, "1": 2}},
    {"edge_maps": {"0|x": {"rows": [[1, 0], [0, 1]], "shape": [2, 2]}}},
    {"objects": {"0": True, "1": 1}, "edge_maps": {"0|0": {"rows": [[1]], "shape": [1, 1]}}},
], ids=["index-key", "edge-key", "true-dimension"])
def test_malformed_object_is_a_schema_error(runner, tmp_path, patch):
    doc = {**f2vec_object({"rows": [[1, 0], [0, 1]], "shape": [2, 2]}), **patch}
    r = invoke(runner, ["barcode", write(tmp_path, "x.json", doc)])
    assert r.exit_code == 2
    report = json.loads(r.output)
    assert report["ok"] is False and report["error"] == "schema"


@pytest.mark.parametrize("corner, map_key", [("0,x", "0,0|0"), ("0,0", "0,0")],
                         ids=["corner-key", "map-key-without-axis"])
def test_malformed_square_key_is_a_schema_error(runner, tmp_path, corner, map_key):
    point = [["*"]]
    ident = [["*", "*"]]
    square = {
        "corners": {corner: point, "1,0": point, "0,1": point, "1,1": point},
        "maps": {map_key: ident, "0,0|1": ident, "1,0|1": ident, "0,1|0": ident},
    }
    r = invoke(runner, ["sq-gadget", write(tmp_path, "square.json", square)])
    assert r.exit_code == 2
    assert json.loads(r.output)["error"] == "schema"


@pytest.mark.parametrize("args", [["validate"], ["barcode", "--dim", "0"]],
                         ids=["validate", "barcode"])
def test_mixed_vertex_names_get_a_report(runner, tmp_path, args):
    mixed = {
        "format": ser.FORMAT_COMPLEX,
        "vertices": [0, "a"],
        "simplices": [
            {"v": [0], "grade": ["0"]},
            {"v": ["a"], "grade": ["0"]},
            {"v": [0, "a"], "grade": ["1"]},
        ],
    }
    p = write(tmp_path, "mixed.json", mixed)
    r = invoke(runner, [args[0], p, *args[1:]])
    assert r.exit_code == 0
    out = json.loads(r.output)
    if args[0] == "validate":
        assert out["ok"] is True
    else:
        assert out["intervals"] == [
            {"birth": "0", "death": "inf"}, {"birth": "0", "death": "1"},
        ]


def self_cert_document():
    """A valid certificate document: the 1-self-interleaving of a seeded
    F2Vec object."""
    from perscert.randgen import rand_f2vec_object

    x = rand_f2vec_object(random.Random(0), lo=0, hi=2, max_dim=1)
    return ser.encode_cert(self_interleaving(x, grade(1)))


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


IDENTITY_2 = {"rows": [[1, 0], [0, 1]], "shape": [2, 2]}


@pytest.mark.parametrize("command, doc", [
    ("barcode", {**f2vec_object(IDENTITY_2), "objects": []}),
    ("barcode", {**f2vec_object(IDENTITY_2), "edge_maps": []}),
    ("barcode", {**f2vec_object(IDENTITY_2), "axes": ["01"]}),
    ("interleave-check", without(self_cert_document(), "epsilon")),
    ("interleave-check", without(self_cert_document(), "delta")),
    ("interleave-check", without(self_cert_document(), "f_components")),
    ("interleave-check", without(self_cert_document(), "g_components")),
    ("rips", {**COLLINEAR, "points": 3}),
    ("rips", {**COLLINEAR, "matrix": 5}),
    ("rips", {**COLLINEAR, "points": [0, 1], "matrix": [["0", "1/0"], ["1/0", "0"]]}),
    ("rips", {**COLLINEAR, "points": [0, 1],
              "matrix": [["0", "1" * 5000], ["1" * 5000, "0"]]}),
    ("validate", {"format": ser.FORMAT_COMPLEX, "vertices": 5, "simplices": []}),
    ("validate", {"format": ser.FORMAT_COMPLEX, "vertices": [0],
                  "simplices": [{"v": [], "grade": ["0"]}]}),
    ("bottleneck", {"format": ser.FORMAT_BARCODE, "intervals": 5}),
    ("sq-gadget", without(square_document(), "corners")),
    ("sq-gadget", without(square_document(), "maps")),
    ("sq-gadget", []),
], ids=["objects-not-an-object", "edge-maps-not-an-object", "axis-a-string",
        "cert-without-epsilon", "cert-without-delta", "cert-without-f", "cert-without-g",
        "points-not-a-list", "matrix-not-a-list", "rational-over-0",
        "numerator-of-5000-digits", "vertices-not-a-list", "empty-simplex",
        "intervals-not-a-list",
        "square-without-corners", "square-without-maps", "square-not-an-object"])
def test_hostile_document_is_a_schema_error(runner, tmp_path, command, doc):
    p = write(tmp_path, "doc.json", doc)
    args = [command, p, p] if command == "bottleneck" else [command, p]
    r = invoke(runner, args)
    assert r.exit_code == 2
    report = json.loads(r.output)
    assert report["ok"] is False and report["error"] == "schema"


@pytest.mark.parametrize("value", ["1\n", "\u0663", "\uff11/\uff12"],
                         ids=["trailing-newline", "arabic-indic-digit", "fullwidth-digits"])
def test_rational_must_be_ascii_digits(runner, tmp_path, value):
    doc = {**f2vec_object(IDENTITY_2), "axes": [["0", value]]}
    r = invoke(runner, ["barcode", write(tmp_path, "x.json", doc)])
    assert r.exit_code == 2
    report = json.loads(r.output)
    assert report["error"] == "schema" and "bad rational" in report["message"]


@pytest.mark.parametrize("command", ["rips", "frips", "degree-rips"])
def test_negative_dissimilarity_is_a_schema_error(runner, tmp_path, command):
    doc = {"format": ser.FORMAT_METRIC, "points": [0, 1],
           "matrix": [["0", "-1"], ["-1", "0"]], "values": ["0", "0"]}
    r = invoke(runner, [command, write(tmp_path, "metric.json", doc)])
    assert r.exit_code == 2
    report = json.loads(r.output)
    assert report["error"] == "schema" and "nonnegative" in report["message"]


@pytest.mark.parametrize("change, message", [
    ("off-grid", "component at Grade(1/2) is not a point of the merged grid"),
    ("repeated", "component at Grade(-1) is given twice"),
    ("repeated-spelled-apart", "component at Grade(-1) is given twice"),
    ("wrong-arity", "component at Grade(0, 1) is not a point of the merged grid"),
], ids=["off-grid", "repeated", "repeated-spelled-apart", "wrong-arity"])
def test_certificate_component_must_be_a_merged_grid_point_given_once(
        runner, tmp_path, change, message):
    doc = self_cert_document()
    entry = doc["f_components"][0]
    assert entry["at"] == ["-1"]
    at = {"off-grid": ["1/2"], "repeated": ["-1"], "repeated-spelled-apart": ["-2/2"],
          "wrong-arity": ["0", "1"]}[change]
    doc["f_components"].append({**entry, "at": at})
    r = invoke(runner, ["interleave-check", write(tmp_path, "cert.json", doc)])
    assert r.exit_code == 2
    report = json.loads(r.output)
    assert report["error"] == "schema" and report["message"] == message


@pytest.mark.parametrize("patch", [
    {"edge_maps": {"0|0": IDENTITY_2, "1|0": IDENTITY_2}},
    {"objects": {"0": 2, "1": 2, "2": 2}},
], ids=["edge-off-grid", "object-off-grid"])
def test_keys_outside_the_grid_are_rejected(runner, tmp_path, patch):
    doc = {**f2vec_object(IDENTITY_2), **patch}
    r = invoke(runner, ["barcode", write(tmp_path, "x.json", doc)])
    assert r.exit_code == 1
    report = json.loads(r.output)
    assert report["ok"] is False and report["error"] == "property"
    assert "outside the grid" in report["message"]


def test_integer_indexed_must_be_a_json_boolean(runner, tmp_path):
    doc = {**f2vec_object(IDENTITY_2), "axes": [["0", "1/2"]], "integer_indexed": "no"}
    r = invoke(runner, ["barcode", write(tmp_path, "x.json", doc)])
    assert r.exit_code == 2
    report = json.loads(r.output)
    assert report["error"] == "schema" and "integer_indexed" in report["message"]


def _metric_text(point):
    return ('{"format": "%s", "points": [%s, 1], "matrix": [["0", "1"], ["1", "0"]]}'
            % (ser.FORMAT_METRIC, point))


@pytest.mark.parametrize("content", [
    _metric_text("1" * 5000).encode(),
    _metric_text('"caf\xe9"').encode("latin-1"),
    b"[" * 100_000,
    _metric_text("[" * 900 + "0" + "]" * 900).encode(),
], ids=["integer-of-5000-digits", "not-utf-8", "arrays-nested-100000-deep",
        "vertex-nested-900-deep"])
def test_unreadable_document_is_a_schema_error(runner, tmp_path, content):
    path = tmp_path / "metric.json"
    path.write_bytes(content)
    r = invoke(runner, ["rips", str(path)])
    assert r.exit_code == 2
    report = json.loads(r.output)
    assert report["ok"] is False and report["error"] == "schema"


@pytest.mark.parametrize("depth, code", [(100, 0), (101, 2)])
def test_elements_nest_at_most_100_levels(runner, tmp_path, depth, code):
    for point in ("[" * depth + "0" + "]" * depth,
                  '{"frozenset": [' * depth + "0" + "]}" * depth):
        path = tmp_path / "metric.json"
        path.write_text(_metric_text(point))
        r = invoke(runner, ["rips", str(path)])
        assert r.exit_code == code
        if code:
            assert json.loads(r.output)["message"] == "element nested deeper than 100 levels"


@pytest.mark.parametrize("key", ["epsilon", "delta"])
def test_certificate_shift_arity_must_match_the_objects(runner, tmp_path, key):
    doc = {**self_cert_document(), key: ["1", "1"]}
    r = invoke(runner, ["interleave-check", write(tmp_path, "cert.json", doc)])
    assert r.exit_code == 2
    report = json.loads(r.output)
    assert report["error"] == "schema"
    assert report["message"] == "shift Grade(1, 1) has arity 2, the objects have m = 1"


def test_validate_names_the_simplex_whose_grade_arity_differs(runner, tmp_path):
    doc = {
        "format": ser.FORMAT_COMPLEX,
        "vertices": ["a", "b"],
        "simplices": [
            {"v": ["a"], "grade": ["0"]},
            {"v": ["b"], "grade": ["0"]},
            {"v": ["a", "b"], "grade": ["0", "1"]},
        ],
    }
    r = invoke(runner, ["validate", write(tmp_path, "c.json", doc)])
    assert r.exit_code == 1
    report = json.loads(r.output)
    assert report["ok"] is False
    assert report["reason"].startswith("grades of mixed arity")
    assert report["offender"] == ["a", "b"]


def test_boolean_element_is_a_schema_error(runner, tmp_path):
    # JSON true would merge with 1: the object {1, true} would become {1}
    doc = {
        "format": ser.FORMAT_OBJECT,
        "m": 1,
        "category": "FinSet",
        "axes": [["0", "1/2"]],
        "objects": {"0": [1, True], "1": ["a", "b"]},
        "edge_maps": {"0|0": [[1, "a"], [True, "b"]]},
    }
    r = invoke(runner, ["roundtrip-floor", write(tmp_path, "x.json", doc)])
    assert r.exit_code == 2
    report = json.loads(r.output)
    assert report["error"] == "schema" and "True" in report["message"]


REPEATED_SIMPLEX = {
    "format": ser.FORMAT_COMPLEX,
    "vertices": [0, 1],
    "simplices": [
        {"v": [0], "grade": ["0"]},
        {"v": [1], "grade": ["0"]},
        {"v": [0, 1], "grade": ["1"]},
        {"v": [1, 0], "grade": ["5"]},
    ],
}
REPEATED_VERTEX = {
    "format": ser.FORMAT_COMPLEX,
    "vertices": [0, 1],
    "simplices": [
        {"v": [0], "grade": ["0"]},
        {"v": [1], "grade": ["0"]},
        {"v": [0, 0, 1], "grade": ["1"]},
    ],
}


@pytest.mark.parametrize("command, doc, message", [
    (["rips"], {**COLLINEAR, "points": [0, 0, 1]}, "distinct"),
    (["validate"], {**REPEATED_VERTEX, "vertices": [0, 0, 1],
                    "simplices": REPEATED_VERTEX["simplices"][:2]}, "distinct"),
    (["validate"], REPEATED_VERTEX, "repeats a vertex"),
    (["validate"], REPEATED_SIMPLEX, "given twice"),
    (["barcode", "--dim", "0"], REPEATED_SIMPLEX, "given twice"),
], ids=["metric-point", "complex-vertex", "simplex-vertex", "simplex-validate", "simplex-barcode"])
def test_repeated_names_are_a_schema_error(runner, tmp_path, command, doc, message):
    r = invoke(runner, [command[0], write(tmp_path, "doc.json", doc), *command[1:]])
    assert r.exit_code == 2
    report = json.loads(r.output)
    assert report["error"] == "schema" and message in report["message"]


def _repeats(category, obj0, obj1, edge):
    return {"format": ser.FORMAT_OBJECT, "m": 1, "category": category,
            "axes": [["0", "1/2"]], "objects": {"0": obj0, "1": obj1},
            "edge_maps": {"0|0": edge}}


@pytest.mark.parametrize("command, doc", [
    ("roundtrip-floor", _repeats("FinSet", [1, 1, 2], ["a", "b"], [[1, "a"], [2, "a"]])),
    ("roundtrip-floor", _repeats("FinSet", [1, 2], ["a", "b"],
                                 [[1, "a"], [2, "a"], [1, "b"]])),
    ("pi0", _repeats("Complex", [[0], [0]], [[0], [1]], [[0, 0]])),
    ("pi0", _repeats("Complex", [[0]], [[0], [1]], [[0, 0], [0, 1]])),
], ids=["finset-object", "finset-map", "complex-object", "complex-map"])
def test_repeated_entries_are_a_schema_error(runner, tmp_path, command, doc):
    r = invoke(runner, [command, write(tmp_path, "x.json", doc)])
    assert r.exit_code == 2
    report = json.loads(r.output)
    assert report["error"] == "schema" and "twice" in report["message"]


def test_rectify_rejects_block_size_0(runner, tmp_path):
    x = integer_object("FinSet", [frozenset({"a"})] * 2, [{"a": "a"}], 0)
    p = write(tmp_path, "cert.json", ser.encode_cert(self_interleaving(x, grade(0))))
    r = invoke(runner, ["rectify", p, "--block", "0"])
    assert r.exit_code == 1
    report = json.loads(r.output)
    assert report["error"] == "property" and report["message"] == "block size must be >= 1"


def test_rectify_refuses_a_large_block_before_sampling(runner, tmp_path):
    """A two-grade self-interleaving of shift 10000 is a document of some
    770 bytes, but its block window [0, 20000] at block 10000 is far over
    the limit: budget exceeded (exit 3) before any sample is taken."""
    x = integer_object("FinSet", [frozenset({"a"})] * 2, [{"a": "a"}], 0)
    p = write(tmp_path, "cert.json", ser.encode_cert(self_interleaving(x, grade(10000))))
    start = time.perf_counter()
    r = invoke(runner, ["rectify", p, "--block", "10000"])
    assert time.perf_counter() - start < 1
    assert r.exit_code == 3
    report = json.loads(r.output)
    assert report["error"] == "budget"
    assert report["message"].startswith("rectify window [0, 20000] holds 20001 integers")


def f2vec_point(dim: int) -> dict:
    """A one-grade F2Vec object of dimension dim: its floor round trip is a
    certificate of 4 * dim^2 matrix entries, which the command bounds by
    7 * dim^2 (two integers in the window, so one edge of A and at most
    three components of each leg)."""
    return {"format": ser.FORMAT_OBJECT, "m": 1, "category": "F2Vec", "axes": [["0"]],
            "objects": {"0": dim}, "edge_maps": {}}


def isolated_vertices(n: int) -> dict:
    """n vertices at grade 0 and an edge at grade 1: H_0 of dimension n,
    then n - 1, so one induced map of n * (n - 1) entries."""
    return {"format": ser.FORMAT_COMPLEX, "m": 1, "vertices": list(range(n)),
            "simplices": [{"v": [v], "grade": ["0"]} for v in range(n)]
            + [{"v": [0, 1], "grade": ["1"]}]}


@pytest.mark.parametrize("command, doc, count, written, what", [
    ("roundtrip-floor", f2vec_point(3), 63, 36, "the floor round-trip certificate could hold"),
    ("homology", isolated_vertices(5), 20, 20, "the induced maps would hold"),
], ids=["roundtrip-floor", "homology"])
def test_commands_bound_the_matrix_entries_they_write(runner, tmp_path, monkeypatch,
                                                      command, doc, count, written, what):
    """A command writes a document of written matrix entries at a limit of
    count, its bound on them, and refuses it one below, naming the count
    and the limit."""
    p = write(tmp_path, "in.json", doc)
    monkeypatch.setattr(persist, "MAX_ENTRIES", count)
    r = invoke(runner, [command, p])
    assert r.exit_code == 0 and matrix_entries(json.loads(r.output)) == written
    monkeypatch.setattr(persist, "MAX_ENTRIES", count - 1)
    r = invoke(runner, [command, p])
    assert r.exit_code == 3
    assert json.loads(r.output)["message"] == (
        f"{what} {count} matrix entries, more than the limit of {count - 1}")


@pytest.mark.parametrize("command, doc", [
    ("barcode", ser.encode_object(to_persistent(ser.decode_filtered_complex(
        isolated_vertices(5))))),
    ("stability-audit", _interleaved_cert(5, rand_persistent_complex)),
    ("interleave-dist", ser.encode_object(integer_object(
        "FinSet", [frozenset({0, 1}), frozenset({0})], [{0: 0, 1: 0}], 0))),
], ids=["barcode", "stability-audit", "interleave-dist"])
def test_commands_that_write_no_matrix_meet_no_entry_limit(runner, tmp_path, monkeypatch,
                                                           command, doc):
    """Commands that build F2Vec maps (the homology of a persistent complex,
    of a certificate of complexes, the linearization of FinSet objects) but
    write only a barcode or a report give the same output with the entry
    limit at 0."""
    p = write(tmp_path, "in.json", doc)
    expected = invoke(runner, [command] + [p] * (2 if command == "interleave-dist" else 1))
    assert expected.exit_code == 0
    monkeypatch.setattr(persist, "MAX_ENTRIES", 0)
    r = invoke(runner, [command] + [p] * (2 if command == "interleave-dist" else 1))
    assert (r.exit_code, r.output) == (0, expected.output)


def test_a_reader_that_closes_stdout_early_gets_no_traceback(tmp_path):
    """A reader that stops after 10 bytes (as `| head -c 10` does) of a
    certificate of some 600 KB, written in many batches: the rest is
    dropped with the command's exit code and nothing on stderr, as when the
    whole text went in one write."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "perscert.cli", "roundtrip-floor",
         write(tmp_path, "x.json", f2vec_point(100))],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(10) == b'{\n  "delta'
    proc.stdout.close()
    assert (proc.stderr.read(), proc.wait()) == (b"", 0)
    proc.stderr.close()


def test_roundtrip_floor_refuses_a_large_dimension_before_building(runner, tmp_path):
    """A one-grade F2Vec object of dimension 8,000 is a document of some 130
    bytes, but its certificate would hold 4 * 8000^2 matrix entries, bounded
    by 7 * 8000^2: budget exceeded (exit 3) before any map is built."""
    start = time.perf_counter()
    r = invoke(runner, ["roundtrip-floor", write(tmp_path, "x.json", f2vec_point(8000))])
    assert time.perf_counter() - start < 1
    assert r.exit_code == 3
    assert json.loads(r.output)["message"] == (
        "the floor round-trip certificate could hold 448000000 matrix entries, "
        f"more than the limit of {persist.MAX_ENTRIES}")


def test_bottleneck_and_interleave_dist_bound_the_bars_they_match(runner, tmp_path):
    """``bottleneck`` matches two barcodes of MAX_BARS bars together and
    refuses one bar more (exit 3), naming the count and the limit; so does
    the bottleneck floor of ``interleave-dist``, on the barcodes of its
    objects: MAX_BARS / 2 infinite bars each at the limit, where the search
    then spends its budget of 0, and one finite bar more past it."""
    half = MAX_BARS // 2
    refused = f"the two barcodes hold {MAX_BARS + 1} bars, more than the limit of {MAX_BARS}"
    left = write(tmp_path, "left.json", ser.encode_barcode(Barcode([Bar(0, 2)] * half)))
    for n, code, field, value in ((half, 0, "cost", "1"), (half + 1, 3, "message", refused)):
        right = write(tmp_path, "right.json", ser.encode_barcode(Barcode([Bar(1, 3)] * n)))
        r = invoke(runner, ["bottleneck", left, right])
        assert (r.exit_code, json.loads(r.output)[field]) == (code, value)
    x = write(tmp_path, "x.json", ser.encode_object(integer_object("F2Vec", [half], [], 0)))
    projection = GF2Matrix([[int(i == j) for j in range(half + 1)] for i in range(half)])
    for y, message in ((integer_object("F2Vec", [half], [], 1),
                        "search budget of 0 exhausted before settling all candidates"),
                       (integer_object("F2Vec", [half + 1, half], [projection], 1), refused)):
        r = invoke(runner, ["interleave-dist", "--max-enum", "0", x,
                            write(tmp_path, "y.json", ser.encode_object(y))])
        assert r.exit_code == 3
        assert json.loads(r.output)["message"] == message


def test_interleave_dist_refuses_large_barcodes_before_matching(runner, tmp_path):
    """Two one-grade F2Vec objects of dimension 2,000, at grades 0 and 1,
    are documents of some 150 bytes each, but their barcodes hold 2,000
    infinite bars each: budget exceeded (exit 3) before the bottleneck floor
    builds a cost matrix."""
    x, y = (write(tmp_path, f"{name}.json", {**f2vec_point(2000), "axes": [[at]]})
            for name, at in (("x", "0"), ("y", "1")))
    start = time.perf_counter()
    r = invoke(runner, ["interleave-dist", "--max-enum", "0", x, y])
    assert time.perf_counter() - start < 1
    assert r.exit_code == 3
    assert json.loads(r.output)["message"] == (
        f"the two barcodes hold 4000 bars, more than the limit of {MAX_BARS}")


@pytest.mark.parametrize("command", ["rips", "frips", "degree-rips"])
def test_rips_builders_refuse_a_large_output_before_building(runner, tmp_path, command):
    """The metric |i - j| on 18 points is a document of under 2 KB, but its
    Rips complex up to dimension 17 has all 2^18 - 1 vertex subsets: budget
    exceeded (exit 3) before any simplex is built."""
    n = 18
    metric = write(tmp_path, "m.json", {
        "format": ser.FORMAT_METRIC, "points": list(range(n)), "values": ["0"] * n,
        "matrix": [[str(abs(i - j)) for j in range(n)] for i in range(n)]})
    start = time.perf_counter()
    r = invoke(runner, [command, metric, "--dmax", "17"])
    assert time.perf_counter() - start < 1
    assert r.exit_code == 3
    report = json.loads(r.output)
    assert report["error"] == "budget"
    assert report["message"] == ("a Rips complex of 18 points up to dimension 17 has 262143 "
                                 "simplices, more than the limit of 100000")


def test_degree_rips_of_an_empty_metric_is_the_empty_complex(runner, tmp_path):
    empty = write(tmp_path, "empty.json", {**COLLINEAR, "points": [], "matrix": []})
    r = invoke(runner, ["degree-rips", empty])
    assert r.exit_code == 0
    out = json.loads(r.output)
    assert out["m"] == 2 and out["category"] == "Complex"
    assert out["axes"] == [["0"], ["0"]]
    assert out["objects"] == {"0,0": []} and out["edge_maps"] == {}
    r2 = invoke(runner, ["is-filtered", write(tmp_path, "dr.json", out)])
    assert r2.exit_code == 0 and json.loads(r2.output)["witness"] == []


ONE_PARAMETER_COMPLEX = {
    "format": ser.FORMAT_COMPLEX,
    "vertices": [0, 1],
    "simplices": [
        {"v": [0], "grade": ["0"]},
        {"v": [1], "grade": ["0"]},
        {"v": [0, 1], "grade": ["1"]},
    ],
}


@pytest.mark.parametrize("command, doc", [
    ("barcode", {**f2vec_object(IDENTITY_2), "m": 2}),
    ("barcode", {**f2vec_object(IDENTITY_2), "m": "x"}),
    ("barcode", {**f2vec_object(IDENTITY_2), "m": True}),
    ("validate", {**ONE_PARAMETER_COMPLEX, "m": 3}),
    ("validate", {**ONE_PARAMETER_COMPLEX, "m": "1"}),
    ("barcode", {**ONE_PARAMETER_COMPLEX, "m": 0}),
], ids=["object-m-2-one-axis", "object-m-a-string", "object-m-a-boolean",
        "complex-m-3-one-parameter", "complex-m-a-string", "complex-barcode-m-0"])
def test_m_must_match_the_axes_or_grades(runner, tmp_path, command, doc):
    r = invoke(runner, [command, write(tmp_path, "doc.json", doc)])
    assert r.exit_code == 2
    report = json.loads(r.output)
    assert report["error"] == "schema" and "'m'" in report["message"]


EMPTY_TWO_PARAMETER_COMPLEX = {"format": ser.FORMAT_COMPLEX, "m": 2, "vertices": [],
                               "simplices": []}


def test_a_complex_without_simplices_keeps_its_arity(runner, tmp_path):
    p = write(tmp_path, "c.json", EMPTY_TWO_PARAMETER_COMPLEX)
    r = invoke(runner, ["skeleton", p, "-n", "1"])
    assert r.exit_code == 0 and json.loads(r.output) == EMPTY_TWO_PARAMETER_COMPLEX
    metric = write(tmp_path, "m.json", {"format": ser.FORMAT_METRIC, "points": [],
                                        "matrix": [], "values": []})
    r = invoke(runner, ["frips", metric])
    assert r.exit_code == 0 and json.loads(r.output) == EMPTY_TWO_PARAMETER_COMPLEX
    r = invoke(runner, ["barcode", p])
    assert r.exit_code == 1
    assert json.loads(r.output)["message"] == "barcodes need m = 1; slice first"


def _route_complexes():
    """Seeded filtered complexes: Rips complexes on integer distances (tied
    grades), random filtrations, and the empty complex."""
    out = [FilteredComplex([], [], {})]
    for seed in range(4):
        rng = random.Random(seed)
        out.append(vietoris_rips(rand_metric(rng, 6, max_dist=2, integer=True), 3))
        out.append(rand_filtered_complex(rng, 5))
    return out


def test_barcode_of_a_complex_equals_barcode_of_its_homology(runner, tmp_path):
    """``barcode c.json`` reduces the complex in filtration order; ``homology``
    and then ``barcode`` go through the persistent module. Degree 4 is above
    every complex's top dimension."""
    for i, f in enumerate(_route_complexes()):
        p = write(tmp_path, f"c{i}.json", ser.encode_filtered_complex(f))
        for dim in ("0", "1", "2", "4"):
            direct = invoke(runner, ["barcode", p, "--dim", dim])
            h = str(tmp_path / "h.json")
            assert invoke(runner, ["homology", p, "--dim", dim, "-o", h]).exit_code == 0
            through = invoke(runner, ["barcode", h])
            assert (direct.exit_code, direct.output) == (0, through.output)


@pytest.mark.parametrize("doc, dim", [
    (ONE_PARAMETER_COMPLEX, "-1"),
    (EMPTY_TWO_PARAMETER_COMPLEX, "-1"),
    ({**ONE_PARAMETER_COMPLEX, "simplices": ONE_PARAMETER_COMPLEX["simplices"][1:]}, "-1"),
], ids=["negative-degree", "empty-m-2", "missing-face"])
def test_barcode_of_a_complex_reports_as_homology_does(runner, tmp_path, doc, dim):
    p = write(tmp_path, "c.json", doc)
    direct = invoke(runner, ["barcode", p, "--dim", dim])
    through = invoke(runner, ["homology", p, "--dim", dim])
    assert direct.exit_code == through.exit_code == 1
    assert direct.output == through.output


def test_homology_of_a_two_parameter_complex_is_a_module_without_a_barcode(runner, tmp_path):
    """``homology`` takes a bifiltration to its m = 2 module; both barcode
    routes, from the complex and from that module, refuse it with one
    message."""
    p = write(tmp_path, "c.json", ser.encode_filtered_complex(function_rips(
        MetricInput([0, 1], [[0, 1], [1, 0]], values=[0, 1]), 1)))
    h = str(tmp_path / "h.json")
    assert invoke(runner, ["homology", p, "--dim", "0", "-o", h]).exit_code == 0
    module = json.loads(Path(h).read_text())
    assert (module["m"], module["category"]) == (2, "F2Vec")
    for doc in (p, h):
        r = invoke(runner, ["barcode", doc, "--dim", "0"])
        assert r.exit_code == 1
        assert json.loads(r.output)["message"] == "barcodes need m = 1; slice first"


def _complex_cert_path(tmp_path):
    rng = random.Random(5)
    x = rand_persistent_complex(rng)
    _, cert = interleaved_pair(rng, x, 1)
    return write(tmp_path, "cert.json", ser.encode_cert(cert))


@pytest.mark.parametrize("command", ["homology", "barcode", "stability-audit"])
@pytest.mark.parametrize("dim", ["-1", "-3"])
def test_negative_homology_degree_is_a_property_error(runner, tmp_path, command, dim):
    if command == "stability-audit":
        p = _complex_cert_path(tmp_path)
    else:
        p = write(tmp_path, "c.json", ONE_PARAMETER_COMPLEX)
    r = invoke(runner, [command, p, "--dim", dim])
    assert r.exit_code == 1
    report = json.loads(r.output)
    assert report["error"] == "property"
    assert report["message"] == f"homology degree needs n >= 0, got {dim}"


@pytest.mark.parametrize("floor", ["finite", "infinite"])
def test_negative_search_budget_is_a_property_error(runner, tmp_path, floor):
    if floor == "finite":
        x = rand_finset_object(random.Random(1), lo=0, hi=2, max_size=2)
        y = x
    else:
        x = integer_object("F2Vec", [1, 1], [GF2Matrix.identity(1)], 0)
        y = integer_object("F2Vec", [1, 0], [GF2Matrix.zeros(0, 1)], 0)
    px = write(tmp_path, "x.json", ser.encode_object(x))
    py = write(tmp_path, "y.json", ser.encode_object(y))
    r = invoke(runner, ["interleave-dist", px, py, "--max-enum", "-5"])
    assert r.exit_code == 1
    report = json.loads(r.output)
    assert report["error"] == "property"
    assert report["message"] == "search budget must be >= 0, got -5"
    if floor == "finite":
        assert invoke(runner, ["interleave-dist", px, py, "--max-enum", "0"]).exit_code == 3


# -- hostile input: one field of a valid document replaced, dropped or retyped --


def _valid_documents():
    """A valid input document for each command whose decoders the mutations
    reach, with the command's arguments around its path."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("metric.json", "w") as fh:
            json.dump(COLLINEAR, fh)
        rips = json.loads(runner.invoke(main, ["rips", "metric.json"]).output)
        degree = json.loads(runner.invoke(main, ["degree-rips", "metric.json"]).output)
    x = rand_finset_object(random.Random(3), lo=-1, hi=1, max_size=2)
    _, cert = interleaved_pair(random.Random(4), x, 1)
    return [
        (["is-filtered"], degree),
        (["is-filtered"], rips),
        (["barcode", "--dim", "0"], rips),
        (["barcode"], ser.encode_object(rand_f2vec_object(random.Random(1), lo=0, hi=2))),
        (["degree-rips"], COLLINEAR),
        (["interleave-check"], self_cert_document()),
        (["rectify"], ser.encode_cert(cert)),
    ]


VALID_DOCUMENTS = _valid_documents()


def _fields(doc, prefix=()):
    """The path to every member and array entry of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _fields(value, prefix + (key,))


def _retyped(value):
    """The same content as a JSON value of another type."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return [value]
    if isinstance(value, list):
        return {str(i): v for i, v in enumerate(value)}
    if isinstance(value, dict):
        return list(value.values())
    return 0


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3)
    | st.sampled_from(["0", "1/2", "-1", "inf", "0,0", "0|0", "frozenset"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=5,
)


@st.composite
def mutated_documents(draw):
    args, doc = draw(st.sampled_from(VALID_DOCUMENTS))
    *parents, last = draw(st.sampled_from(list(_fields(doc))))
    doc = copy.deepcopy(doc)
    parent = doc
    for key in parents:
        parent = parent[key]
    kind = draw(st.sampled_from(["replace", "drop", "retype"]))
    if kind == "drop":
        del parent[last]
    elif kind == "retype":
        parent[last] = _retyped(parent[last])
    else:
        parent[last] = draw(JSON_VALUES)
    return args, doc


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mutated_documents())
def test_mutated_documents_get_a_report_and_no_traceback(tmp_path_factory, case):
    args, doc = case
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    r = CliRunner().invoke(main, [args[0], str(path), *args[1:]])
    assert r.exception is None or isinstance(r.exception, SystemExit), r.exc_info
    assert r.exit_code in (0, 1, 2, 3)
    out = json.loads(r.stdout)
    if r.exit_code in (2, 3):
        assert out["format"] == ser.FORMAT_REPORT and out["ok"] is False


# -- usage errors and help: the parser's own exits, before any command runs --

# each subcommand's options, short and long
OPTIONS = {
    "rips": ["--dmax", "-o", "--output"],
    "frips": ["--dmax", "-o", "--output"],
    "degree-rips": ["--dmax", "-o", "--output"],
    "validate": [],
    "is-filtered": [],
    "skeleton": ["-n", "--dim", "-o", "--output"],
    "pi0": ["-o", "--output"],
    "homology": ["--dim", "-o", "--output"],
    "barcode": ["--dim", "-o", "--output"],
    "bottleneck": ["-o", "--output"],
    "interleave-check": [],
    "interleave-dist": ["--max-enum", "-o", "--output"],
    "rectify": ["--block", "-o", "--output"],
    "roundtrip-floor": ["-o", "--output"],
    "stability-audit": ["--dim", "-o", "--output"],
    "sq-gadget": ["-o", "--output"],
}

# the subcommands with an option whose --help shows its default
SHOW_DEFAULT = {"rips", "frips", "degree-rips", "homology", "barcode", "interleave-dist",
                "rectify", "stability-audit"}


def test_every_subcommand_has_help_naming_its_options(runner):
    top = invoke(runner, ["--help"])
    assert top.exit_code == 0
    listed = top.stdout
    for command, options in OPTIONS.items():
        assert command in listed
        r = invoke(runner, [command, "--help"])
        assert r.exit_code == 0, command
        text = " ".join(r.stdout.split())
        for option in [*options, "--help"]:
            assert f"{option} " in text or f"{option}," in text, (command, option)
        if command in SHOW_DEFAULT:
            assert "[default: " in text, command


@pytest.mark.parametrize("args", [
    ["no-such-command", "metric.json"],
    ["rips", "metric.json", "--no-such-option"],
    ["bottleneck", "x.json"],
    ["barcode", "x.json", "--dim", "x"],
    ["interleave-dist", "x.json", "x.json", "--max", "5"],
], ids=["unknown-subcommand", "unknown-option", "missing-positional", "dim-not-an-integer",
        "abbreviated-option"])
def test_usage_error_exits_2_with_usage_on_stderr_only(runner, tmp_path, monkeypatch, args):
    # valid inputs, so that a command that ran would write a report to stdout
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "metric.json", COLLINEAR)
    write(tmp_path, "x.json",
          ser.encode_object(rand_finset_object(random.Random(1), lo=0, hi=2, max_size=2)))
    r = invoke(runner, args)
    assert r.exit_code == 2
    assert r.stdout == ""
    assert "usage" in r.stderr.lower()
    # byte for byte what _PARSER.parse_args writes: a parse sent straight to
    # the subcommand's parser would word an unknown option's error otherwise
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), pytest.raises(SystemExit):
        cli._PARSER.parse_args(args)
    assert r.stderr == stderr.getvalue()


# -- the one-pass reader: argparse's answer for a well-formed request, and
# argparse itself for any other --


def parse_or_exit(argv):
    """vars(_PARSER.parse_args(argv)), or None where argparse exits (help or
    a usage error); what it writes is dropped."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(cli._PARSER.parse_args(argv))
    except SystemExit:
        return None


def assert_read_as_argparse(argv):
    """The reader takes argv and gives what argparse gives, run the same
    function."""
    read, parsed = cli._read(argv), parse_or_exit(argv)
    assert read is not None and parsed is not None, argv
    assert read.pop("run") is parsed.pop("run")
    assert read == parsed, argv


ODD_TOKENS = ["-", "", "-1", "--", "--dmax=3", "-ovr.json", "--help", "--max"]
VALUES = st.sampled_from(["0", "3", "1_0", "x", "x.json", *ODD_TOKENS])


@st.composite
def reader_argvs(draw):
    """A subcommand of the reader's table, about as many positionals as it
    declares and some of its option strings, each with a valid or invalid
    value, in any order, and now and then an odd token anywhere."""
    command = draw(st.sampled_from(sorted(cli._FORMS)))
    positionals, options, _, _ = cli._FORMS[command]
    count = len(positionals) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    items = [["x.json"]] * count
    if options:
        pair = st.tuples(st.sampled_from(sorted(options)), VALUES).map(list)
        items += draw(st.lists(pair, max_size=3))
    items += draw(st.lists(st.sampled_from(ODD_TOKENS).map(lambda t: [t]), max_size=1))
    return [command, *itertools.chain.from_iterable(draw(st.permutations(items)))]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(reader_argvs())
def test_reader_gives_argparse_answer_or_leaves_the_request_to_it(argv):
    if cli._read(argv) is not None:
        assert_read_as_argparse(argv)


def test_reader_files_every_subcommand_with_its_options():
    assert {command: sorted(form[1]) for command, form in cli._FORMS.items()} == {
        command: sorted(options) for command, options in OPTIONS.items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_reader_takes_every_golden_request(name):
    args = CASES[name]
    assert_read_as_argparse(args)
    if args[0] not in NO_OUTPUT_OPTION:
        assert_read_as_argparse([*args, "-o", "out.json"])


def test_requests_left_to_argparse_run_as_before(runner, tmp_path, monkeypatch):
    """--opt=v, -ov, a negative value and -- go to argparse, and run as
    their spaced forms do."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "metric.json", COLLINEAR)
    for args in (["rips", "metric.json", "--dmax=1"], ["rips", "metric.json", "-ovr.json"],
                 ["barcode", "vr.json", "--dim", "-1"], ["rips", "--", "metric.json"]):
        assert cli._read(args) is None, args
    spaced = invoke(runner, ["rips", "metric.json", "--dmax", "1"])
    attached = invoke(runner, ["rips", "metric.json", "--dmax=1"])
    assert attached.exit_code == spaced.exit_code == 0
    assert attached.stdout == spaced.stdout
    assert invoke(runner, ["rips", "metric.json", "-o", "spaced.json"]).exit_code == 0
    r = invoke(runner, ["rips", "metric.json", "-ovr.json"])
    assert r.exit_code == 0 and r.stdout == ""
    assert (tmp_path / "vr.json").read_text() == (tmp_path / "spaced.json").read_text()
    r = invoke(runner, ["barcode", "vr.json", "--dim", "-1"])
    assert r.exit_code == 1
    report = json.loads(r.stdout)
    assert report["error"] == "property"
    assert report["message"] == "homology degree needs n >= 0, got -1"
    r = invoke(runner, ["rips", "--", "metric.json"])
    assert r.exit_code == 0
    assert r.stdout == invoke(runner, ["rips", "metric.json"]).stdout


# -- the two entry points: main() and main.main(args=...) --


def test_in_process_entry_returns_on_0_and_raises_on_1_2_3(tmp_path, capsys):
    metric = write(tmp_path, "metric.json", COLLINEAR)
    assert main.main(args=["rips", metric], prog_name="perscert", standalone_mode=False) is None
    assert json.loads(capsys.readouterr().out)["format"] == ser.FORMAT_COMPLEX
    rng = random.Random(1)  # a seed whose corrupted certificate fails its replay
    _, cert = interleaved_pair(rng, rand_finset_object(rng, lo=-2, hi=2), 1)
    bad = write(tmp_path, "bad.json", ser.encode_cert(corrupt_certificate(random.Random(0), cert)))
    unreadable = tmp_path / "unreadable.json"
    unreadable.write_text("{not json")
    x = write(tmp_path, "x.json",
              ser.encode_object(rand_finset_object(random.Random(1), lo=0, hi=2, max_size=2)))
    for args, code in [(["interleave-check", bad], 1), (["rips", str(unreadable)], 2),
                       (["interleave-dist", x, x, "--max-enum", "0"], 3)]:
        with pytest.raises(SystemExit) as exc:
            main.main(args=args, prog_name="perscert", standalone_mode=False)
        assert exc.value.code == code, args
        assert json.loads(capsys.readouterr().out)["ok"] is False


def test_console_script_reads_sys_argv_and_needs_no_click(tmp_path):
    metric = write(tmp_path, "metric.json", COLLINEAR)
    script = ("import sys\n"
              "sys.modules['click'] = None  # any import of click fails\n"
              "from perscert.cli import main\n"
              "sys.argv = ['perscert', 'rips', sys.argv[1]]\n"
              "main()\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    r = subprocess.run([sys.executable, "-c", script, metric], capture_output=True, text=True,
                       env=env, check=False)
    assert r.returncode == 0, r.stderr
    golden = (Path(__file__).parent / "golden" / "readme-rips.txt").read_text()
    assert r.stdout == golden.split("\n", 1)[1]
