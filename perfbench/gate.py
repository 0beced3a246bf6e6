"""Turn generated units into CLI requests, each with its correctness check.

A request names the CLI arguments, the documents written before it runs and
the file it writes with ``-o``. Its check sees the exit code and the output
document; it raises ``Mismatch`` when the answer is wrong and
otherwise returns the answer (distances, barcodes, verdicts, shifts) that is
compared with the answers recorded at the default seed. Certificate bytes are
never compared, so a different valid certificate still passes.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import gen
from chains import cert_from_doc, chain_from_doc, check_cert

MAX_ENUM = str(gen.PARAMS["distance-search"]["max_enum"])


class Mismatch(Exception):
    """An answer that fails the correctness gate."""


@dataclass
class Result:
    code: int
    doc: object  # parsed output document (the -o file, else stdout), or None


@dataclass
class Request:
    name: str
    argv: list[str]
    check: Callable[[Result], object]
    inputs: dict = field(default_factory=dict)  # file name -> document
    output: str | None = None


def expect(cond, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def expect_code(res: Result, code: int) -> None:
    expect(res.code == code, f"exit code {res.code}, expected {code}")
    expect(isinstance(res.doc, dict), "no JSON document in the answer")


def parse_bars(doc) -> list:
    expect(isinstance(doc, dict) and doc.get("format") == gen.FORMAT_BARCODE,
           "not a barcode document")
    bars = [(Fraction(e["birth"]), None if e["death"] == "inf" else Fraction(e["death"]))
            for e in doc["intervals"]]
    for b, d in bars:
        expect(d is None or b < d, f"empty bar [{b}, {d})")
    return sorted(bars, key=gen.bar_key)


def bars_answer(bars) -> list:
    return [[str(b), "inf" if d is None else str(d)] for b, d in bars]


def matching_cost(doc, left, right):
    """Cost of the reported matching, recomputed from the two barcodes
    (bars indexed in sorted order, as perscert indexes them)."""
    def pair_cost(a, b):
        if (a[1] is None) != (b[1] is None):
            return None
        if a[1] is None:
            return abs(a[0] - b[0])
        return max(abs(a[0] - b[0]), abs(a[1] - b[1]))

    def half(bar):
        return None if bar[1] is None else (bar[1] - bar[0]) / 2

    used_l = [i for i, _ in doc["pairs"]] + doc["deleted_left"]
    used_r = [j for _, j in doc["pairs"]] + doc["deleted_right"]
    expect(sorted(used_l) == list(range(len(left))), "matching does not cover the left bars")
    expect(sorted(used_r) == list(range(len(right))), "matching does not cover the right bars")
    costs = [pair_cost(left[i], right[j]) for i, j in doc["pairs"]]
    costs += [half(left[i]) for i in doc["deleted_left"]]
    costs += [half(right[j]) for j in doc["deleted_right"]]
    if any(c is None for c in costs):
        return None
    return max(costs, default=Fraction(0))


def check_bottleneck(res: Result, left, right) -> str:
    expect_code(res, 0)
    cost = res.doc["cost"]
    if cost == "inf":
        inf_l = sum(d is None for _, d in left)
        inf_r = sum(d is None for _, d in right)
        expect(inf_l != inf_r, "infinite bottleneck between barcodes with equal infinite bars")
        return cost
    expect(matching_cost(res.doc, left, right) == Fraction(cost),
           "reported matching does not attain the reported cost")
    return cost


# -- rips-barcode ---------------------------------------------------------------


def degree_rips_filtered(dist) -> bool:
    """Degree-Rips is filtered iff every simplex appears at its diameter with
    the top degree threshold: each of its vertices is within the simplex
    diameter of every point (structure maps are inclusions, so the
    monomorphism condition always holds)."""
    n = len(dist)
    for k in (1, 2, 3):
        for s in itertools.combinations(range(n), k):
            diam = max((dist[a][b] for a, b in itertools.combinations(s, 2)), default=0)
            if any(dist[v][j] > diam for v in s for j in range(n)):
                return False
    return True


def rips_requests(u: dict, state: dict) -> list[Request]:
    dist, n = u["dist"], u["n"]
    values = {d for row in dist for d in row}
    h0 = gen.rips_mst_bars(dist)
    prev_h0 = parse_bars(u["prev_h0"])

    def rips(res):
        expect_code(res, 0)
        simplices = res.doc["simplices"]
        expect(len(simplices) == n + n * (n - 1) // 2 + n * (n - 1) * (n - 2) // 6,
               "wrong number of simplices")
        for s in simplices:
            diam = max((dist[a][b] for a, b in itertools.combinations(s["v"], 2)),
                       default=Fraction(0))
            expect(Fraction(s["grade"][0]) == diam, f"simplex {s['v']} not graded by diameter")
        return len({s["grade"][0] for s in simplices})

    def validate(res):
        expect_code(res, 0)
        expect(res.doc["ok"] is True, "a Rips complex is a valid filtered complex")
        return "valid"

    def barcode0(res):
        expect_code(res, 0)
        bars = parse_bars(res.doc)
        expect(bars == h0, "H0 bars differ from the Kruskal MST oracle")
        return bars_answer(bars)

    def barcode1(res):
        expect_code(res, 0)
        bars = parse_bars(res.doc)
        for b, d in bars:
            expect(b in values and (d is None or d in values), "bar endpoint is no filtration value")
        return bars_answer(bars)

    def bottleneck(res):
        return check_bottleneck(res, prev_h0, h0)

    def degree_rips(res):
        expect_code(res, 0)
        doc = res.doc
        expect(doc["m"] == 2 and doc["category"] == "Complex", "not a 2-parameter complex")
        scales = sorted(values)
        expect([Fraction(v) for v in doc["axes"][0]] == scales, "wrong scale axis")
        expect([int(v) for v in doc["axes"][1]] == list(range(-(n - 1), 1)), "wrong degree axis")
        return len(doc["objects"])

    filtered = degree_rips_filtered(dist)

    def is_filtered(res):
        expect_code(res, 0 if filtered else 1)
        expect(res.doc["ok"] is filtered, "wrong is-filtered verdict")
        if not filtered:
            expect(res.doc["condition"] == 2, "degree-Rips fails the minimum condition only")
        return [filtered, res.doc.get("condition")]

    return [
        Request("rips", ["rips", "metric.json", "--dmax", "2", "-o", "complex.json"], rips,
                inputs={"metric.json": u["metric"], "prev_h0.json": u["prev_h0"]},
                output="complex.json"),
        Request("validate", ["validate", "complex.json"], validate),
        Request("barcode0", ["barcode", "complex.json", "--dim", "0", "-o", "h0.json"],
                barcode0, output="h0.json"),
        Request("barcode1", ["barcode", "complex.json", "--dim", "1", "-o", "h1.json"],
                barcode1, output="h1.json"),
        Request("bottleneck", ["bottleneck", "prev_h0.json", "h0.json", "-o", "bn.json"],
                bottleneck, output="bn.json"),
        Request("degree-rips", ["degree-rips", "metric.json", "--dmax", "2", "-o", "dr.json"],
                degree_rips, output="dr.json"),
        Request("is-filtered", ["is-filtered", "dr.json"], is_filtered),
    ]


# -- cert-replay -------------------------------------------------------------------


def cert_requests(u: dict, state: dict) -> list[Request]:
    m, cert, bad = u["m"], u["cert"], u["bad"]
    identity, grade = u["violation"]
    kcert = u["complex_cert"]
    x_doc = cert.x.to_doc()

    def genuine(res):
        expect_code(res, 0)
        expect(res.doc["ok"] is True, "genuine certificate rejected")
        return "valid"

    def corrupted(res):
        expect_code(res, 1)
        expect(res.doc["ok"] is False, "corrupted certificate accepted")
        expect(res.doc["identity"] == identity and res.doc["grade"] == [str(grade)],
               "first violation differs from the replay")
        return [identity, grade]

    def rectify(res):
        expect_code(res, 0)
        doc = res.doc
        expect(doc["even_restriction_equal"] and doc["odd_restriction_equal"],
               "restrictions are not equal")
        shifts = [[Fraction(c) for c in s] for s in doc["total_shifts"]]
        if m == 1:
            expect(shifts == [[2], [2]], "m = 1 composite shifts are not (2, 2)")
        else:
            expect(all(s[0] <= 3 * m - 1 for s in shifts), "composite exceeds (3m-1, 3m-1)")
        return doc["total_shifts"]

    def roundtrip(res):
        expect_code(res, 0)
        doc = res.doc
        expect(doc["epsilon"] == ["1"] and doc["delta"] == ["1"], "round trip is not a 1-interleaving")
        replay = cert_from_doc(doc, chain_from_doc(doc["x"]), chain_from_doc(doc["y"]))
        expect(check_cert(replay) is None, "round-trip certificate does not replay")
        return "valid"

    k = kcert.x
    vertex_grade = {s[0]: n for n in range(k.hi, k.lo - 1, -1) for s in k.value(n) if len(s) == 1}
    edge_grade = {s: n for n in range(k.hi, k.lo - 1, -1) for s in k.value(n) if len(s) == 2}
    verts = sorted(vertex_grade)
    index = {v: i for i, v in enumerate(verts)}
    h0 = gen.h0_bars(len(verts), lambda i: vertex_grade[verts[i]],
                     [(g, index[a], index[b]) for (a, b), g in edge_grade.items()])

    def audit(res):
        expect_code(res, 0)
        doc = res.doc
        expect(doc["ok"] is True and doc["module_certificate_valid"] is True,
               "stability audit does not hold")
        expect(doc["distance"] != "inf" and Fraction(doc["distance"]) <= Fraction(doc["bound"]),
               "d_B exceeds the interleaving bound")
        if u["audit_dim"] == 0:
            expect(parse_bars(doc["barcode_x"]) == h0, "H0 bars differ from the elder-rule oracle")
        return [doc["bound"], doc["distance"], bars_answer(parse_bars(doc["barcode_x"]))]

    return [
        Request("check", ["interleave-check", "cert.json"], genuine,
                inputs={"cert.json": cert.to_doc(), "bad.json": bad.to_doc(),
                        "x.json": x_doc, "kcert.json": kcert.to_doc()}),
        Request("check-corrupted", ["interleave-check", "bad.json"], corrupted),
        Request("rectify", ["rectify", "cert.json", "--block", str(m), "-o", "z.json"],
                rectify, output="z.json"),
        Request("roundtrip", ["roundtrip-floor", "x.json", "-o", "rt.json"], roundtrip,
                output="rt.json"),
        Request("audit", ["stability-audit", "kcert.json", "--dim", str(u["audit_dim"]),
                          "-o", "sa.json"], audit, output="sa.json"),
    ]


# -- distance-search ----------------------------------------------------------------


def distance_requests(u: dict, state: dict) -> list[Request]:
    x_doc, y_doc = u["x"], u["y"]
    seen = {}

    def module_bars(key, doc):
        dims = [doc["objects"][str(i)] for i in range(len(doc["axes"][0]))]
        axis = [Fraction(v) for v in doc["axes"][0]]

        def check(res):
            expect_code(res, 0)
            bars = parse_bars(res.doc)
            for g, dim in zip(axis, dims):
                alive = sum(b <= g and (d is None or g < d) for b, d in bars)
                expect(alive == dim, f"{alive} bars alive at {g}, dimension {dim}")
            seen[key] = bars
            return bars_answer(bars)

        return check

    def bottleneck(res):
        seen["d_B"] = check_bottleneck(res, seen["x"], seen["y"])
        return seen["d_B"]

    def distance(res):
        expect_code(res, 0)
        doc = res.doc
        delta = doc["distance"]
        expect((delta == "inf") == ("certificate" not in doc),
               "a finite distance needs a certificate and only then")
        if delta != "inf":
            expect(state["replay"](x_doc, y_doc, doc["certificate"]),
                   "returned certificate does not replay")
        if u["genuine"]:
            expect(delta != "inf" and Fraction(delta) <= 1, "genuine 1-interleaving missed")
        if "d_B" in seen and delta != "inf":
            expect(seen["d_B"] != "inf" and Fraction(seen["d_B"]) <= Fraction(delta),
                   "d_B exceeds the certified distance")
        return delta

    search = Request("interleave-dist", ["interleave-dist", "x.json", "y.json",
                                         "--max-enum", MAX_ENUM, "-o", "d.json"],
                     distance, output="d.json")
    if u["kind"] == "finset-pair":
        search.inputs = {"x.json": x_doc, "y.json": y_doc}
        return [search]
    return [
        Request("barcode-x", ["barcode", "x.json", "-o", "bx.json"], module_bars("x", x_doc),
                inputs={"x.json": x_doc, "y.json": y_doc}, output="bx.json"),
        Request("barcode-y", ["barcode", "y.json", "-o", "by.json"], module_bars("y", y_doc),
                output="by.json"),
        Request("bottleneck", ["bottleneck", "bx.json", "by.json", "-o", "bn.json"], bottleneck,
                output="bn.json"),
        search,
    ]


BUILDERS = {"rips-barcode": rips_requests, "cert-replay": cert_requests,
            "distance-search": distance_requests}


def requests_for(workload: str, u: dict, state: dict) -> list[Request]:
    return BUILDERS[workload](u, state)


def normalize(answer):
    """Answers as they read back from JSON, for comparison with a record."""
    return json.loads(json.dumps(answer, default=str))
