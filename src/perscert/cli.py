"""Command-line interface.

All interchange is JSON with exact rationals as strings. A command returns
its document, and one runner (``_reports``) writes it, to ``-o`` when given
and else to stdout, and sets the exit code. Output is the text of
``json.dumps(data, sort_keys=True, indent=2)`` and a newline, so identical
inputs give byte-identical output. The encoders of ``serialize`` build each
distinct value of a document once and share it wherever it occurs; the
writer encodes the text of a value that a member dict holds under several
keys (the lists of a persistent object's objects and edge maps), and of
each item such lists share (a simplex of nested complexes), once.

Exit codes: 0 ok, 1 property violated (after the document is written),
2 schema error (an input that cannot be read, or an ``-o`` path that cannot
be written, is one), 3 budget exceeded. A usage error (unknown subcommand or
option, missing argument, an option value that is not an integer, an
abbreviated option) exits 2 too, with the usage text on stderr and nothing
on stdout. ``perscert --help`` lists the subcommands, and
``perscert COMMAND --help`` documents each.

argparse defines the grammar: each subcommand's arguments are declared once,
on its parser. A well-formed request is read in one pass over the actions
those declarations return (``_read``); argparse parses every other request
and writes help and every usage error, so their output is argparse's own.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from . import serialize as ser
from .complexes import (
    FilteredComplex,
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


_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)


def _repeats(value) -> bool:
    """Whether value is a dict holding one list or dict object under two keys."""
    if not isinstance(value, dict):
        return False
    held = [id(v) for v in value.values() if isinstance(v, (list, dict))]
    return len(set(held)) < len(held)


def _members(data: dict, pad: str, text) -> str:
    """The non-empty dict data as json.dumps(sort_keys=True, indent=2) writes
    it at the indentation pad ("\\n" and spaces), with text(value, inner pad)
    as the text of each value."""
    inner = pad + "  "
    return "{" + ",".join(
        inner + encode_basestring_ascii(key) + ": " + text(value, inner)
        for key, value in sorted(data.items())
    ) + pad + "}"


def _dumps(data: dict) -> str:
    """The text of json.dumps(data, sort_keys=True, indent=2), with each value
    that a member dict of data holds under several keys encoded once: the
    object lists and edge maps of a persistent-object document, which the
    encoders share between equal values. A list of containers whose first
    item the member has met before shares items with earlier lists (as the
    simplex lists of nested complexes do) and is joined from the text of its
    items, each encoded once; one whose first item is new (the fresh pairs
    of a vertex map) costs less encoded whole. Shared values deeper down
    (the component maps and embedded objects of certificates) are written
    at each place.

    Documents without such a member (all but persistent objects) go to the
    encoder of json.dumps(sort_keys=True, indent=2) in one call. Otherwise
    the top level and the repeating members are written here, and every
    other value goes through that encoder; its text is re-indented by
    replacing each newline, which is exact because JSON text holds no raw
    newline. Only depth 1 is searched for repeats: splitting a document that
    has none costs more than encoding it whole."""
    if not any(map(_repeats, data.values())):
        return _ENCODER.encode(data)

    def member(value, pad):
        if not _repeats(value):
            return _ENCODER.encode(value).replace("\n", pad)
        held, items = {}, {}  # id -> text of a value, of an item (None: met, not written)

        def item(x, pad):
            items[id(x)] = text = _ENCODER.encode(x).replace("\n", pad)
            return text

        def once(v, inner):
            text = held.get(id(v))
            if text is None:
                if isinstance(v, list) and v and isinstance(v[0], (list, dict)):
                    if id(v[0]) in items:
                        pad = inner + "  "
                        text = "[" + pad + ("," + pad).join(
                            [items.get(id(x)) or item(x, pad) for x in v]) + inner + "]"
                    else:
                        items[id(v[0])] = None
                if text is None:
                    text = _ENCODER.encode(v).replace("\n", inner)
                held[id(v)] = text
            return text
        return _members(value, pad, once)
    return _members(data, "\n", member)


def _emit(data: dict, output: str | None) -> None:
    """Write data as JSON to stdout, or to the file output ("-" is stdout).
    A file that cannot be written is a schema error, as an unreadable input
    is in _load."""
    text = _dumps(data) + "\n"
    if output is None or output == "-":
        sys.stdout.write(text)
        return
    try:
        with open(output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write JSON to {output}: {exc}") from exc


def _report(ok: bool, **fields) -> dict:
    """A report document: its envelope and fields."""
    return {"format": ser.FORMAT_REPORT, "ok": ok, **fields}


def _fail(code: int, kind: str, message: str) -> None:
    _emit(_report(False, error=kind, message=message), None)
    sys.exit(code)


def _reports(command):
    """Run a command and write the document it returns (to the -o file
    output, else stdout). A verdict command returns the document and whether
    its property holds, and exits 1 once it is written if that fails. A
    perscert error instead writes its report to stdout and exits 2 (schema),
    3 (budget) or 1."""
    @functools.wraps(command)
    def run(output=None, **arguments):
        try:
            result = command(**arguments)
            data, ok = result if type(result) is tuple else (result, True)
            _emit(data, output)
            if not ok:
                sys.exit(EXIT_PROPERTY)
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


class _Parser(argparse.ArgumentParser):
    """A parser that takes no abbreviated option and whose one help option
    is ``--help``; the subcommands' parsers are of this class too."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")


_PARSER = _Parser(prog="perscert", description="Exact persistence toolkit: filtration "
                 "builders, interleaving certificates, invariants, and barcode distances.")
_COMMANDS = _PARSER.add_subparsers(title="commands", metavar="COMMAND", required=True)


def _arg(*flags, show_default: bool = False, **options) -> tuple:
    """The flags and ArgumentParser.add_argument options of one argument;
    show_default appends the default to its help."""
    if show_default:
        options["help"] = options.get("help", "") + " [default: %(default)s]"
    return flags, options


_DMAX = _arg("--dmax", type=int, default=2, show_default=True,
             help="Maximum simplex dimension.")
_DIM = _arg("--dim", type=int, default=0, show_default=True, help="Homology degree n.")
_OUTPUT = _arg("-o", "--output", help="Write the document to this file (- is stdout).")


# subcommand -> (its positional actions in order, option string -> action,
# the values argparse fills in for what is not given: each optional option's
# default and run, the dests of its required options); _command files each
# subcommand whose arguments are all plain stores of one value
_FORMS: dict[str, tuple[list, dict, dict, frozenset]] = {}


def _plain(action: argparse.Action) -> bool:
    """Whether an action stores one value, unchecked against choices."""
    return (type(action) is argparse._StoreAction and action.nargs is None
            and action.choices is None)


def _command(name: str, *arguments):
    """Register the decorated function as the subcommand name, taking the
    arguments (each from _arg, its dest a parameter of the function or, for
    _OUTPUT, of _reports) and run through _reports. The function's docstring
    is the subcommand's help. The actions argparse returns for the arguments
    are filed in _FORMS, for _read."""
    def register(command):
        doc = " ".join((command.__doc__ or "").split())  # None under -OO
        first, stop, _ = doc.partition(". ")
        sub = _COMMANDS.add_parser(name, help=first + stop.strip(), description=doc)
        actions = [sub.add_argument(*flags, **options) for flags, options in arguments]
        run = _reports(command)
        sub.set_defaults(run=run)
        if all(map(_plain, actions)):
            by_flag = {flag: a for a in actions for flag in a.option_strings}
            _FORMS[name] = (
                [a for a in actions if not a.option_strings], by_flag,
                {a.dest: a.default for a in by_flag.values() if not a.required} | {"run": run},
                frozenset(a.dest for a in by_flag.values() if a.required))
        return command
    return register


def _read(args) -> dict | None:
    """What vars(_PARSER.parse_args(args)) gives for a well-formed request,
    read in one pass, or None for any other request. Well-formed: a filed
    subcommand, then its positionals and options in any order, every
    positional and required option given and no other; each option string
    exactly as declared (no --opt=v, no -ov) and followed by one value; no
    value or positional that starts with "-", but "-" itself; each value
    converted by its action's type without a ValueError. A repeated option
    keeps its last value, as in argparse."""
    form = _FORMS.get(args[0]) if args else None
    if form is None:
        return None
    positionals, options, defaults, required = form
    parsed, rest, positional = dict(defaults), iter(args[1:]), iter(positionals)
    for arg in rest:
        action = options.get(arg)
        if action is None:
            action, text = next(positional, None), arg
        else:
            text = next(rest, None)
        if action is None or text is None or text.startswith("-") and text != "-":
            return None
        try:
            parsed[action.dest] = text if action.type is None else action.type(text)
        except ValueError:
            return None
    if next(positional, None) is not None or not required <= parsed.keys():
        return None
    return parsed


class _Main:
    """The entry point. ``main()`` (the ``perscert`` console script) parses
    sys.argv[1:]; ``main.main(args=[...])`` parses args. prog_name and
    standalone_mode are taken for the call form of click's ``Command.main``,
    which test runners use, and change nothing. A subcommand that ends with
    exit code 0 returns, and any other exit raises SystemExit: 2 for a usage
    error, whose usage text goes to stderr and nothing to stdout.

    A well-formed request (see ``_read``: declared option strings, each with
    one value, and positionals, none starting with "-" but "-" itself) is
    read in one pass. Any other request goes to ``_PARSER.parse_args`` as it
    is: ``--help``, every usage error, ``--``, a negative value and the
    ``--opt=v`` and ``-ov`` forms, so that argparse parses them and writes
    their help or usage text itself."""

    name = "perscert"

    def main(self, args=None, prog_name=None, standalone_mode=None) -> None:
        if args is None:
            args = sys.argv[1:]
        parsed = _read(args)
        if parsed is None:
            try:
                parsed = vars(_PARSER.parse_args(args))
            except SystemExit as exc:
                if exc.code:
                    raise
                return  # --help
        parsed.pop("run")(**parsed)

    __call__ = main


main = _Main()


@_command("rips", _arg("metric"), _DMAX, _OUTPUT)
def rips(metric, dmax):
    """Vietoris-Rips filtered complex from a dissimilarity matrix."""
    mi = ser.decode_metric(_load(metric))
    return ser.encode_filtered_complex(vietoris_rips(mi, dmax))


@_command("frips", _arg("metric"), _DMAX, _OUTPUT)
def frips(metric, dmax):
    """Bifiltration by (diameter, max vertex value); the metric document
    must carry a "values" array."""
    mi = ser.decode_metric(_load(metric))
    return ser.encode_filtered_complex(function_rips(mi, dmax))


@_command("degree-rips", _arg("metric"), _DMAX, _OUTPUT)
def degree_rips_cmd(metric, dmax):
    """Two-parameter degree-Rips persistent complex (second axis is the
    negated degree threshold)."""
    mi = ser.decode_metric(_load(metric))
    return ser.encode_object(degree_rips(mi, dmax))


@_command("validate", _arg("complex_path"))
def validate_cmd(complex_path):
    """Check face closure and grade monotonicity of a filtered complex."""
    fc = ser.decode_filtered_complex(_load(complex_path))
    report = validate(fc)
    return _report(report.valid, reason=report.reason,
                   offender=ser.encode_element(report.offender)
                   if report.offender else None), report.valid


@_command("is-filtered", _arg("object_path"))
def is_filtered_cmd(object_path):
    """Decide whether a persistent complex is a sublevel filtration: all
    structure maps monomorphisms and every appearance set has a minimum."""
    p = _load_persistent_complex(object_path)
    chk = is_filtered(p)
    if not chk.filtered:
        return _report(False, condition=chk.condition, reason=chk.reason), False
    # sorted on the decoded simplices, which fixes the order of tuple vertices
    # as before, then written in wire form, which frozenset vertices need
    witness = sorted(([list(s), ser.encode_grade(g)] for s, g in chk.witness.items()),
                     key=repr)
    return _report(True, witness=[[[ser.encode_element(v) for v in s], g]
                                  for s, g in witness]), True


@_command("skeleton", _arg("complex_path"),
          _arg("-n", "--dim", dest="n", type=int, required=True,
               help="Truncate to simplices of dimension <= n."), _OUTPUT)
def skeleton_cmd(complex_path, n):
    """n-skeleton of a filtered complex."""
    fc = ser.decode_filtered_complex(_load(complex_path))
    return ser.encode_filtered_complex(skeleton(fc, n))


@_command("pi0", _arg("object_path"), _OUTPUT)
def pi0_cmd(object_path):
    """Persistent set of connected components of a persistent complex."""
    return ser.encode_object(pi0(_load_persistent_complex(object_path)))


@_command("homology", _arg("object_path"), _DIM, _OUTPUT)
def homology_cmd(object_path, dim):
    """Degree-n persistent GF(2) homology of a persistent complex, at any m."""
    return ser.encode_object(homology(_load_persistent_complex(object_path), dim))


@_command("barcode", _arg("input_path"),
          _arg("--dim", type=int, default=0, show_default=True,
               help="Homology degree when the input is a complex."), _OUTPUT)
def barcode_cmd(input_path, dim):
    """Barcode of a one-parameter persistence module, or of the degree-dim
    homology of a one-parameter complex. A filtered complex is reduced in filtration order, without
    building its persistent homology; a persistent complex goes through
    degree-dim homology first."""
    doc = _load_complex_or_object(input_path)
    if isinstance(doc, FilteredComplex):
        bars = filtration_barcode(doc, dim)
    else:
        bars = barcode(doc if doc.category_name == "F2Vec" else homology(doc, dim))
    return ser.encode_barcode(bars)


@_command("bottleneck", _arg("barcode1"), _arg("barcode2"), _OUTPUT)
def bottleneck_cmd(barcode1, barcode2):
    """Exact bottleneck distance with an optimal matching."""
    b1 = ser.decode_barcode(_load(barcode1))
    b2 = ser.decode_barcode(_load(barcode2))
    d, matching = bottleneck(b1, b2)
    return ser.encode_matching(matching, d)


@_command("interleave-check", _arg("cert_path"))
def interleave_check_cmd(cert_path):
    """Verify an interleaving certificate (naturality of both legs plus both
    triangle identities)."""
    cert = ser.decode_cert(_load(cert_path))
    report = check_interleaving(cert)
    return _report(report.valid, reason=report.reason,
                   grade=ser.encode_grade(report.grade) if report.grade else None,
                   identity=report.identity), report.valid


@_command("interleave-dist", _arg("x_path"), _arg("y_path"),
          _arg("--max-enum", type=int, default=DEFAULT_BUDGET, show_default=True,
               help="Budget on enumerated component maps."), _OUTPUT)
def interleave_dist_cmd(x_path, y_path, max_enum):
    """Least candidate delta admitting a certified delta-interleaving
    (a certified upper bound on the interleaving distance; m = 1,
    FinSet or F2Vec)."""
    x = ser.decode_object(_load(x_path))
    y = ser.decode_object(_load(y_path))
    result = interleaving_distance_search(x, y, budget=max_enum)
    out = _report(True, distance=ser.encode_rational(result.distance),
                  reason=result.reason,
                  candidates=[ser.encode_rational(c) for c in result.candidates])
    if result.certificate is not None:
        out["certificate"] = ser.encode_cert(result.certificate,
                                             include_objects=False)
    return out


@_command("rectify", _arg("cert_path"),
          _arg("--block", dest="m", type=int, default=1, show_default=True,
               help="Block size m of the input m-interleaving."), _OUTPUT)
def rectify_cmd(cert_path, m):
    """Zig-zag rectification of an m-interleaving of Z-indexed objects; emits
    the diagonal object, equality witnesses, piece certificates, and the
    certified composite."""
    cert = ser.decode_cert(_load(cert_path))
    result = zigzag(cert.f.source, cert.f.target, cert, m)
    valid = (result.even_equal and result.odd_equal
             and check_interleaving(result.composite).valid)
    return ser.encode_zigzag(result), valid


@_command("roundtrip-floor", _arg("object_path"), _OUTPUT)
def roundtrip_floor_cmd(object_path):
    """Certificate that a 1-parameter object is 1-interleaved with the
    floor-extension of its integer restriction."""
    x = ser.decode_object(_load(object_path))
    cert = floor_roundtrip_cert(x)
    return ser.encode_cert(cert), check_interleaving(cert).valid


@_command("stability-audit", _arg("cert_path"), _DIM, _OUTPUT)
def stability_audit_cmd(cert_path, dim):
    """Push a complex-level interleaving through degree-dim homology and
    check the stability inequality d_B <= max(eps, delta) on the barcodes."""
    cert = ser.decode_cert(_load(cert_path))
    rep = stability_audit(cert, dim)
    return _report(
        rep.holds,
        bound=ser.encode_rational(rep.bound),
        distance=ser.encode_rational(rep.distance),
        module_certificate_valid=rep.module_cert_valid,
        barcode_x=ser.encode_barcode(rep.barcode_x),
        barcode_y=ser.encode_barcode(rep.barcode_y),
        matching=ser.encode_matching(rep.matching, rep.distance),
    ), rep.holds


@_command("sq-gadget", _arg("square_path"), _OUTPUT)
def sq_gadget_cmd(square_path):
    """Embed a commuting square of complexes into a two-parameter persistent
    complex (empty on negative grades, collapsing to a point at 2). The
    square is validated as a persistent complex on the grid {0,1}^2, so a
    corner or map keyed outside it is refused."""
    data = _load(square_path)
    if not (isinstance(data, dict) and isinstance(data.get("corners"), dict)
            and isinstance(data.get("maps"), dict)):
        raise SchemaError("square document needs 'corners' and 'maps' objects")
    square = ser.decode_object({
        "format": ser.FORMAT_OBJECT, "category": "Complex", "axes": [[0, 1], [0, 1]],
        "objects": data["corners"], "edge_maps": data["maps"],
    })
    return ser.encode_object(sq_gadget(square))


if __name__ == "__main__":
    main()
