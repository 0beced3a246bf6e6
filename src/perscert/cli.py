"""Command-line interface.

All interchange is JSON with exact rationals as strings; output is
deterministic (sorted keys) so identical inputs give byte-identical output.

Exit codes: 0 ok, 1 property violated, 2 schema error, 3 budget exceeded.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from . import serialize as ser
from .complexes import (
    FilteredComplex,
    SquareDiagram,
    degree_rips,
    function_rips,
    is_filtered,
    skeleton,
    sq_gadget,
    to_persistent,
    validate,
    vietoris_rips,
)
from .distances import bottleneck, stability_audit
from .errors import BudgetExceededError, PerscertError, SchemaError
from .grades import rat_to_str
from .invariants import barcode, filtration_barcode, homology, pi0
from .persist import check_interleaving, floor_roundtrip_cert
from .rectify import zigzag
from .search import DEFAULT_BUDGET, interleaving_distance_search

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_SCHEMA = 2
EXIT_BUDGET = 3


def _load(path: str) -> dict:
    """The JSON document at path ("-" for stdin). Text that is not UTF-8
    (UnicodeDecodeError), is not JSON (JSONDecodeError), holds an integer of
    more digits than the interpreter converts (ValueError, all three) or
    nests deeper than it parses (RecursionError) is a schema error."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise SchemaError(f"cannot read JSON from {path}: {exc}") from exc


def _emit(data: dict, output: str | None) -> None:
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _fail(code: int, kind: str, message: str) -> None:
    _emit({"format": ser.FORMAT_REPORT, "ok": False, "error": kind,
           "message": message}, None)
    sys.exit(code)


def _reports(command):
    """Map a perscert error raised by a command to its JSON report and exit code."""
    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            command(*args, **kwargs)
        except SchemaError as exc:
            _fail(EXIT_SCHEMA, "schema", str(exc))
        except BudgetExceededError as exc:
            _fail(EXIT_BUDGET, "budget", str(exc))
        except PerscertError as exc:
            _fail(EXIT_PROPERTY, "property", str(exc))
    return run


def _load_complex_or_object(path: str):
    """A filtered complex or a persistent object, as the document's "format"
    says."""
    data = _load(path)
    fmt = data.get("format") if isinstance(data, dict) else None
    if fmt == ser.FORMAT_COMPLEX:
        return ser.decode_filtered_complex(data)
    if fmt == ser.FORMAT_OBJECT:
        return ser.decode_object(data)
    raise SchemaError(f"expected a filtered complex or persistent object, got {fmt!r}")


def _load_persistent_complex(path: str):
    """Accept either a filtered-complex document, taken to its sublevel
    filtration, or a persistent object."""
    doc = _load_complex_or_object(path)
    return to_persistent(doc) if isinstance(doc, FilteredComplex) else doc


@click.group()
def main() -> None:
    """Exact persistence toolkit: filtration builders, interleaving
    certificates, invariants, and barcode distances."""


@main.command()
@click.argument("metric", type=str)
@click.option("--dmax", type=int, default=2, show_default=True,
              help="Maximum simplex dimension.")
@click.option("-o", "--output", type=str, default=None)
@_reports
def rips(metric, dmax, output):
    """Vietoris-Rips filtered complex from a dissimilarity matrix."""
    mi = ser.decode_metric(_load(metric))
    _emit(ser.encode_filtered_complex(vietoris_rips(mi, dmax)), output)


@main.command()
@click.argument("metric", type=str)
@click.option("--dmax", type=int, default=2, show_default=True)
@click.option("-o", "--output", type=str, default=None)
@_reports
def frips(metric, dmax, output):
    """Bifiltration by (diameter, max vertex value); the metric document
    must carry a "values" array."""
    mi = ser.decode_metric(_load(metric))
    _emit(ser.encode_filtered_complex(function_rips(mi, dmax)), output)


@main.command("degree-rips")
@click.argument("metric", type=str)
@click.option("--dmax", type=int, default=2, show_default=True)
@click.option("-o", "--output", type=str, default=None)
@_reports
def degree_rips_cmd(metric, dmax, output):
    """Two-parameter degree-Rips persistent complex (second axis is the
    negated degree threshold)."""
    mi = ser.decode_metric(_load(metric))
    _emit(ser.encode_object(degree_rips(mi, dmax)), output)


@main.command("validate")
@click.argument("complex_path", type=str)
@_reports
def validate_cmd(complex_path):
    """Check face closure and grade monotonicity of a filtered complex."""
    fc = ser.decode_filtered_complex(_load(complex_path))
    report = validate(fc)
    _emit({"format": ser.FORMAT_REPORT, "ok": report.valid,
           "reason": report.reason,
           "offender": ser.encode_element(report.offender)
           if report.offender else None}, None)
    if not report.valid:
        sys.exit(EXIT_PROPERTY)


@main.command("is-filtered")
@click.argument("object_path", type=str)
@_reports
def is_filtered_cmd(object_path):
    """Decide whether a persistent complex is a sublevel filtration: all
    structure maps monomorphisms and every appearance set has a minimum."""
    p = _load_persistent_complex(object_path)
    chk = is_filtered(p)
    out = {"format": ser.FORMAT_REPORT, "ok": chk.filtered}
    if chk.filtered:
        # sorted on the decoded simplices, which fixes the order of tuple vertices
        # as before, then written in wire form, which frozenset vertices need
        witness = sorted(([list(s), ser.encode_grade(g)] for s, g in chk.witness.items()),
                         key=repr)
        out["witness"] = [[[ser.encode_element(v) for v in s], g] for s, g in witness]
    else:
        out["condition"] = chk.condition
        out["reason"] = chk.reason
    _emit(out, None)
    if not chk.filtered:
        sys.exit(EXIT_PROPERTY)


@main.command("skeleton")
@click.argument("complex_path", type=str)
@click.option("-n", "--dim", "n", type=int, required=True,
              help="Truncate to simplices of dimension <= n.")
@click.option("-o", "--output", type=str, default=None)
@_reports
def skeleton_cmd(complex_path, n, output):
    """n-skeleton of a filtered complex."""
    fc = ser.decode_filtered_complex(_load(complex_path))
    _emit(ser.encode_filtered_complex(skeleton(fc, n)), output)


@main.command("pi0")
@click.argument("object_path", type=str)
@click.option("-o", "--output", type=str, default=None)
@_reports
def pi0_cmd(object_path, output):
    """Persistent set of connected components of a persistent complex."""
    _emit(ser.encode_object(pi0(_load_persistent_complex(object_path))), output)


@main.command("homology")
@click.argument("object_path", type=str)
@click.option("--dim", type=int, default=0, show_default=True,
              help="Homology degree n.")
@click.option("-o", "--output", type=str, default=None)
@_reports
def homology_cmd(object_path, dim, output):
    """Degree-n persistent GF(2) homology of a 1-parameter complex."""
    _emit(ser.encode_object(homology(_load_persistent_complex(object_path), dim)),
          output)


@main.command("barcode")
@click.argument("input_path", type=str)
@click.option("--dim", type=int, default=0, show_default=True,
              help="Homology degree when the input is a complex.")
@click.option("-o", "--output", type=str, default=None)
@_reports
def barcode_cmd(input_path, dim, output):
    """Barcode of a persistence module, or of the degree-dim homology of a
    complex. A filtered complex is reduced in filtration order, without
    building its persistent homology; a persistent complex goes through
    degree-dim homology first."""
    doc = _load_complex_or_object(input_path)
    if isinstance(doc, FilteredComplex):
        bars = filtration_barcode(doc, dim)
    else:
        bars = barcode(doc if doc.category_name == "F2Vec" else homology(doc, dim))
    _emit(ser.encode_barcode(bars), output)


@main.command("bottleneck")
@click.argument("barcode1", type=str)
@click.argument("barcode2", type=str)
@click.option("-o", "--output", type=str, default=None)
@_reports
def bottleneck_cmd(barcode1, barcode2, output):
    """Exact bottleneck distance with an optimal matching."""
    b1 = ser.decode_barcode(_load(barcode1))
    b2 = ser.decode_barcode(_load(barcode2))
    d, matching = bottleneck(b1, b2)
    _emit(ser.encode_matching(matching, d), output)


@main.command("interleave-check")
@click.argument("cert_path", type=str)
@_reports
def interleave_check_cmd(cert_path):
    """Verify an interleaving certificate (naturality of both legs plus both
    triangle identities)."""
    cert = ser.decode_cert(_load(cert_path))
    report = check_interleaving(cert)
    _emit({"format": ser.FORMAT_REPORT, "ok": report.valid,
           "reason": report.reason,
           "grade": ser.encode_grade(report.grade) if report.grade else None,
           "identity": report.identity}, None)
    if not report.valid:
        sys.exit(EXIT_PROPERTY)


@main.command("interleave-dist")
@click.argument("x_path", type=str)
@click.argument("y_path", type=str)
@click.option("--max-enum", type=int, default=DEFAULT_BUDGET, show_default=True,
              help="Budget on enumerated component maps.")
@click.option("-o", "--output", type=str, default=None)
@_reports
def interleave_dist_cmd(x_path, y_path, max_enum, output):
    """Least candidate delta admitting a certified delta-interleaving
    (a certified upper bound on the interleaving distance; m = 1,
    FinSet or F2Vec)."""
    x = ser.decode_object(_load(x_path))
    y = ser.decode_object(_load(y_path))
    result = interleaving_distance_search(x, y, budget=max_enum)
    out = {
        "format": ser.FORMAT_REPORT,
        "ok": True,
        "distance": "inf" if result.distance is None
        else rat_to_str(result.distance),
        "reason": result.reason,
        "candidates": [rat_to_str(c) for c in result.candidates],
    }
    if result.certificate is not None:
        out["certificate"] = ser.encode_cert(result.certificate,
                                             include_objects=False)
    _emit(out, output)


@main.command("rectify")
@click.argument("cert_path", type=str)
@click.option("--block", "m", type=int, default=1, show_default=True,
              help="Block size m of the input m-interleaving.")
@click.option("-o", "--output", type=str, default=None)
@_reports
def rectify_cmd(cert_path, m, output):
    """Zig-zag rectification of an m-interleaving of Z-indexed objects; emits
    the diagonal object, equality witnesses, piece certificates, and the
    certified composite."""
    cert = ser.decode_cert(_load(cert_path))
    result = zigzag(cert.f.source, cert.f.target, cert, m)
    _emit(ser.encode_zigzag(result), output)
    if not (result.even_equal and result.odd_equal
            and check_interleaving(result.composite).valid):
        sys.exit(EXIT_PROPERTY)


@main.command("roundtrip-floor")
@click.argument("object_path", type=str)
@click.option("-o", "--output", type=str, default=None)
@_reports
def roundtrip_floor_cmd(object_path, output):
    """Certificate that a 1-parameter object is 1-interleaved with the
    floor-extension of its integer restriction."""
    x = ser.decode_object(_load(object_path))
    cert = floor_roundtrip_cert(x)
    _emit(ser.encode_cert(cert), output)
    if not check_interleaving(cert).valid:
        sys.exit(EXIT_PROPERTY)


@main.command("stability-audit")
@click.argument("cert_path", type=str)
@click.option("--dim", type=int, default=0, show_default=True)
@click.option("-o", "--output", type=str, default=None)
@_reports
def stability_audit_cmd(cert_path, dim, output):
    """Push a complex-level interleaving through degree-dim homology and
    check the stability inequality d_B <= max(eps, delta) on the barcodes."""
    cert = ser.decode_cert(_load(cert_path))
    rep = stability_audit(cert, dim)
    _emit({
        "format": ser.FORMAT_REPORT,
        "ok": rep.holds,
        "bound": rat_to_str(rep.bound),
        "distance": "inf" if rep.distance is None else rat_to_str(rep.distance),
        "module_certificate_valid": rep.module_cert_valid,
        "barcode_x": ser.encode_barcode(rep.barcode_x),
        "barcode_y": ser.encode_barcode(rep.barcode_y),
        "matching": ser.encode_matching(rep.matching, rep.distance),
    }, output)
    if not rep.holds:
        sys.exit(EXIT_PROPERTY)


@main.command("sq-gadget")
@click.argument("square_path", type=str)
@click.option("-o", "--output", type=str, default=None)
@_reports
def sq_gadget_cmd(square_path, output):
    """Embed a commuting square of complexes into a two-parameter persistent
    complex (empty on negative grades, collapsing to a point at 2)."""
    data = _load(square_path)
    if not (isinstance(data, dict) and isinstance(data.get("corners"), dict)
            and isinstance(data.get("maps"), dict)):
        raise SchemaError("square document needs 'corners' and 'maps' objects")
    corners = {
        ser.decode_index(key): ser.decode_cat_object("Complex", simplices)
        for key, simplices in data["corners"].items()
    }
    maps = {
        ser.decode_edge_key(key): ser.decode_cat_map("Complex", table)
        for key, table in data["maps"].items()
    }
    _emit(ser.encode_object(sq_gadget(SquareDiagram(corners, maps))), output)


if __name__ == "__main__":
    main()
