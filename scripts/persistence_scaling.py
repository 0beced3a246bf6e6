#!/usr/bin/env python3
"""Time ``barcode`` and ``bottleneck`` as their inputs grow, the two routes
to the barcode of a filtered complex, and the builders and checks of Rips
complexes.

For each size n, ``barcode`` runs on a seeded persistence module with n
grades and random GF(2) structure maps (so zero maps and zero-dimensional
spaces occur), and ``bottleneck`` on two seeded barcodes of n bars each, two
of them infinite. For each number of points n, a seeded Rips complex up to
dimension 2 gets its H0 and H1 barcodes both by ``filtration_barcode`` and
by ``barcode(homology(to_persistent(...)))``; the script exits with status 1
when the two differ. ``degree_rips`` is built up to dimension 2 on seeded
metrics of DEGREE_RIPS_POINTS points, ``homology`` in degrees 0 and 1 takes
those of DECODE_POINTS points to two-parameter modules, and ``validate``
checks the Rips complexes of RIPS_POINTS points. The documents of the
degree-Rips objects,
and then of their ``pi0`` (components named by frozensets), are written
both by ``json.dumps(sort_keys=True, indent=2)`` and by the CLI's writer,
which encodes each repeated value, and each item that object lists share,
once; the script exits with status 1 when the two texts differ. Then
``decode_filtered_complex`` reads the documents of the Rips complexes of
RIPS_POINTS points, and
``decode_object`` reads the degree-Rips documents of DEGREE_RIPS_POINTS
points and ``is_filtered`` checks what it read; the script exits with status
1 when that verdict (filtered or not, the condition failed, the witness)
differs from the verdict on the object before it was written. The
degree-Rips documents of DECODE_POINTS points, as the CLI writes them, are
read by ``decode_object``, with the memory the decoded object holds and the
peak of the decode (tracemalloc, the least over three decodes made after
the one that checks the round trip); the script exits with status 1 when
the decoded object is written to another text. Then
``check_interleaving`` replays, for FinSet and F2Vec objects on windows of
CHECK_GRADES grades, a seeded genuine 1-interleaving (``interleaved_pair``),
its zig-zag composite, and a copy of each with one component replaced; the
script exits with status 1 when a genuine certificate or a composite is
reported invalid. ``zigzag`` then rectifies, for the same seeded objects
at m = 1 and 2, a seeded genuine m-interleaving, with the shifts of its
composite. Last, for the same certificates, the
``rectify`` document of the pair (``encode_zigzag`` of its zig-zag) and the
``roundtrip-floor`` document of the partner (``encode_cert`` of its floor
round trip) are encoded and written as the CLI writes them, and by the
encoders of ``tests/oracles.py``, which encode each value where it occurs;
the script exits with status 1 when the two texts differ. Then
``decode_cert`` reads the documents, as the CLI writes them, of the genuine
FinSet and F2Vec certificates of the ``check_interleaving`` rows; the
script exits with status 1 when the decoded certificate is written to
another text. Then ``decode_object`` reads SMALL_DOCUMENTS seeded 3-grade
FinSet and F2Vec documents on rational axes (``rand_real_object``), as the
CLI writes them, the small documents of an ``interleave-dist`` request;
the script exits with status 1 when a decoded object is written to another
text. Then the CLI reads the argument lists of PARSED_REQUESTS, the
shapes perfbench sends, both by its one-pass reader and by argparse; the
script exits with status 1 when the reader does not take one or gives
another answer than argparse. Last, the launch rows time LAUNCHES fresh
interpreters that import ``perscert.cli`` from a copy of the package, each
row the median: with bytecode writes off, so that every launch compiles the
package, as a fresh checkout does under PYTHONDONTWRITEBYTECODE=1, and with
a PYTHONPYCACHEPREFIX directory warmed by one launch, which reads it; the
difference is the compile share of a launch. Each other line
gives a deterministic checksum (the number of bars, the distance d_B, the
grid points and distinct objects of a degree-Rips object, the grid shape
and the sum of the dimensions of a two-parameter module, the simplices of a
complex, the bytes of a document, the verdict of ``is_filtered``, the valid
certificates and the identities that fail, the shifts of a zig-zag
composite, the length and a sha256 prefix
of a written document, the number of arguments) and the
best time over repeated runs, so the same command run on two versions of the
code gives their before and after numbers. The inputs are seeded from SEED and n, so the checksums are
fixed. Metrics and complexes keep the ranks of their values once computed,
so every run of the Rips, degree-Rips and ``validate`` rows gets a copy of
its input made by the public constructor before the clock starts, and every
run of the ``is_filtered`` rows a fresh decode of its document. The output
with every timing and memory field stripped,

    sed -E 's/ ([a-z_0-9]+_(ms|us|kb))= *[0-9.]+//g'

is ``tests/golden/persistence-scaling.txt``, which CI diffs against.

    PYTHONPATH=src python scripts/persistence_scaling.py
"""

import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

from perscert import (Bar, Barcode, FilteredComplex, MetricInput, barcode, bottleneck,
                      check_interleaving, degree_rips, filtration_barcode, homology,
                      is_filtered, pi0, to_persistent, validate, vietoris_rips, zigzag)
from perscert import serialize as ser
from perscert.cli import _PARSER, _pieces, _read
from perscert.grades import rat_to_str
from perscert.persist import floor_roundtrip_cert
from perscert.randgen import (corrupt_certificate, interleaved_pair, rand_f2vec_object,
                              rand_finset_object, rand_metric, rand_real_object)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import encode_cert_by_occurrence, encode_zigzag_by_occurrence  # noqa: E402

SIZES = (8, 16, 32, 64, 128)
RIPS_POINTS = (8, 12, 16, 20, 24)
DEGREE_RIPS_POINTS = (6, 7, 8, 9, 12)
DECODE_POINTS = (6, 9, 12)
CHECK_GRADES = (41, 81)
# the 3-grade documents of each decode small row
SMALL_DOCUMENTS = 200
SEED = 1
# the argument lists perfbench sends, by command
PARSED_REQUESTS = {
    "barcode": ["barcode", "x.json", "-o", "bx.json"],
    "bottleneck": ["bottleneck", "bx.json", "by.json", "-o", "bn.json"],
    "interleave-dist": ["interleave-dist", "x.json", "y.json", "--max-enum", "2000000",
                        "-o", "d.json"],
    "rectify": ["rectify", "cert.json", "--block", "1", "-o", "z.json"],
    "degree-rips": ["degree-rips", "metric.json", "--dmax", "2", "-o", "dr.json"],
}
# calls per timed run of the cli parse rows, which take microseconds each
PARSE_BATCH = 100
# fresh interpreters per launch row
LAUNCHES = 9


MAX_RUNS = 50


def best_ms(fn, budget_s: float = 0.5, max_runs: int = MAX_RUNS) -> float:
    """The least wall time of fn() in ms, over runs repeated until budget_s
    has passed (at least one run)."""
    best, spent, runs = float("inf"), 0.0, 0
    while runs < max_runs and (runs == 0 or spent < budget_s):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        best, spent, runs = min(best, elapsed), spent + elapsed, runs + 1
    return best * 1000


def best_ms_on_copies(fn, make) -> float:
    """best_ms of fn(copy), with a new copy from make() for each run; the
    copies are made before timing starts."""
    copies = iter([make() for _ in range(MAX_RUNS)])
    return best_ms(lambda: fn(next(copies)))


def traced_kb(make) -> tuple[float, float]:
    """The size in KB of what make() returns, as tracemalloc counts the
    memory still held after the call, and the peak during the call; each
    the least over three calls, so that one call's reading of what earlier
    code left behind does not count."""
    lives, peaks = [], []
    for _ in range(3):
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        value = make()
        live, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del value
        lives.append(live - before)
        peaks.append(peak - before)
    return min(lives) / 1024, min(peaks) / 1024


def launch_ms(env: dict) -> float:
    """Wall time in ms of a fresh interpreter that imports perscert.cli."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import perscert.cli"], env=env, check=True)
    return (time.perf_counter() - t0) * 1000


def launch_rows() -> None:
    """The median launch, over LAUNCHES launches of each kind taken in turn,
    with bytecode writes off and with a warmed bytecode cache."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(Path(ser.__file__).parent, Path(tmp, "src", "perscert"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        env["PYTHONPATH"] = str(Path(tmp, "src"))
        prefix = str(Path(tmp, "pycache"))
        off = {**env, "PYTHONDONTWRITEBYTECODE": "1"}
        cached = {**off, "PYTHONPYCACHEPREFIX": prefix}
        launch_ms({**env, "PYTHONPYCACHEPREFIX": prefix})  # writes the cache
        times = [(launch_ms(off), launch_ms(cached)) for _ in range(LAUNCHES)]
    off_ms, cached_ms = (statistics.median(row) for row in zip(*times))
    print(f"launch      writes_off  median_ms={off_ms:10.3f}")
    print(f"launch      cached      median_ms={cached_ms:10.3f}  "
          f"compile_ms={off_ms - cached_ms:10.3f}")


def complex_copy(f: FilteredComplex):
    return lambda: FilteredComplex(f.vertices, f.simplices, f.grade, f.m)


def seeded_bars(rng: random.Random, n: int) -> Barcode:
    """n bars born in [0, n/2], two of them infinite and born in [0, 2]."""
    bars = [Bar(Fraction(rng.randint(0, 4), 2), None) for _ in range(2)]
    for _ in range(n - 2):
        birth = Fraction(rng.randint(0, n), 2)
        bars.append(Bar(birth, birth + Fraction(rng.randint(1, 8), 2)))
    return Barcode(bars)


def rips_metric(n: int):
    """A seeded metric on n points with half-integer distances up to n^2/2,
    so most of them are distinct."""
    return rand_metric(random.Random(SEED * 1000 + n), n, max_dist=n * n // 4)


def checked_object(category: str, rng: random.Random, n: int):
    """A seeded Z-indexed FinSet or F2Vec object on the window [0, n - 1]."""
    return (rand_finset_object(rng, lo=0, hi=n - 1, max_size=5) if category == "FinSet"
            else rand_f2vec_object(rng, lo=0, hi=n - 1, max_dim=3))


def main() -> None:
    for n in SIZES:
        module = rand_f2vec_object(random.Random(SEED * 1000 + n), lo=0, hi=n - 1,
                                   max_dim=6)
        bars = len(barcode(module).bars)
        ms = best_ms(lambda: barcode(module))
        print(f"barcode     n={n:3d}  bars={bars:4d}  best_ms={ms:10.3f}")
    for n in SIZES:
        rng = random.Random(SEED * 1000 + n)
        b1, b2 = seeded_bars(rng, n), seeded_bars(rng, n)
        d = bottleneck(b1, b2)[0]
        ms = best_ms(lambda: bottleneck(b1, b2))
        print(f"bottleneck  n={n:3d}  d_B={rat_to_str(d):>6}  best_ms={ms:10.3f}")
    disagree = 0
    for n in RIPS_POINTS:
        f = vietoris_rips(rips_metric(n), 2)
        for dim in (0, 1):
            bars = filtration_barcode(f, dim)
            if bars != barcode(homology(to_persistent(f), dim)):
                print(f"rips H{dim} n={n}: the two routes give different barcodes")
                disagree += 1
            module_ms = best_ms_on_copies(lambda g: barcode(homology(to_persistent(g), dim)),
                                          complex_copy(f))
            filtration_ms = best_ms_on_copies(lambda g: filtration_barcode(g, dim),
                                              complex_copy(f))
            print(f"rips H{dim}     n={n:3d}  bars={len(bars.bars):4d}  "
                  f"module_ms={module_ms:10.3f}  filtration_ms={filtration_ms:10.3f}")
    for n in DEGREE_RIPS_POINTS:
        metric = rips_metric(n)
        x = degree_rips(metric, 2)
        points, distinct = len(x.objects), len(set(x.objects.values()))
        ms = best_ms_on_copies(lambda mi: degree_rips(mi, 2),
                               lambda: MetricInput(metric.points, metric.dist))
        print(f"degree_rips n={n:3d}  grid_points={points:4d}  distinct={distinct:4d}  "
              f"best_ms={ms:10.3f}")
    for n in DECODE_POINTS:
        x = degree_rips(rips_metric(n), 2)
        for dim in (0, 1):
            dims = sum(homology(x, dim).objects.values())
            ms = best_ms(lambda: homology(x, dim))
            shape = "x".join(map(str, x.grid.shape()))
            print(f"homology m=2 H{dim} n={n:3d}  grid={shape:>6}  dims={dims:5d}  "
                  f"best_ms={ms:10.3f}")
    for n in RIPS_POINTS:
        f = vietoris_rips(rips_metric(n), 2)
        ms = best_ms_on_copies(validate, complex_copy(f))
        print(f"validate    n={n:3d}  simplices={len(f.simplices):5d}  best_ms={ms:10.3f}")
    for kind in ("emit", "emit pi0"):
        for n in DEGREE_RIPS_POINTS:
            x = degree_rips(rips_metric(n), 2)
            doc = ser.encode_object(x if kind == "emit" else pi0(x))
            text = json.dumps(doc, sort_keys=True, indent=2)
            if "".join(_pieces(doc)) != text:
                print(f"{kind} n={n}: the writer's text differs from json.dumps")
                disagree += 1
            dumps_ms = best_ms(lambda: json.dumps(doc, sort_keys=True, indent=2))
            writer_ms = best_ms(lambda: "".join(_pieces(doc)))
            print(f"{kind:11} n={n:3d}  bytes={len(text):8d}  "
                  f"json_dumps_ms={dumps_ms:10.3f}  dumps_ms={writer_ms:10.3f}")
    for n in RIPS_POINTS:
        text = json.dumps(ser.encode_filtered_complex(vietoris_rips(rips_metric(n), 2)),
                          sort_keys=True, indent=2)
        data = json.loads(text)
        ms = best_ms(lambda: ser.decode_filtered_complex(data))
        print(f"decode      n={n:3d}  bytes={len(text):8d}  best_ms={ms:10.3f}")
    for n in DEGREE_RIPS_POINTS:
        x = degree_rips(rips_metric(n), 2)
        text = json.dumps(ser.encode_object(x), sort_keys=True, indent=2)
        data = json.loads(text)
        check, before = is_filtered(ser.decode_object(data)), is_filtered(x)
        # the offender named on failure is the first simplex met, which
        # depends on how each set of simplices was built
        if (check.filtered, check.condition, check.witness) != (
                before.filtered, before.condition, before.witness):
            print(f"is_filtered n={n}: the decoded object gets another verdict")
            disagree += 1
        decode_ms = best_ms(lambda: ser.decode_object(data))
        check_ms = best_ms_on_copies(is_filtered, lambda: ser.decode_object(data))
        print(f"is_filtered n={n:3d}  bytes={len(text):8d}  filtered={check.filtered!s:5}  "
              f"decode_ms={decode_ms:10.3f}  is_filtered_ms={check_ms:10.3f}")
    for n in DECODE_POINTS:
        text = "".join(_pieces(ser.encode_object(degree_rips(rips_metric(n), 2))))
        data = json.loads(text)
        if "".join(_pieces(ser.encode_object(ser.decode_object(data)))) != text:
            print(f"decode dr n={n}: the decoded object is written another way")
            disagree += 1
        digest = hashlib.sha256(text.encode()).hexdigest()[:12]
        live_kb, peak_kb = traced_kb(lambda: ser.decode_object(data))
        ms = best_ms(lambda: ser.decode_object(data))
        print(f"decode dr   n={n:3d}  bytes={len(text):8d}  sha256={digest}  "
              f"live_kb={live_kb:8.1f}  peak_kb={peak_kb:8.1f}  best_ms={ms:10.3f}")
    for category in ("FinSet", "F2Vec"):
        for n in CHECK_GRADES:
            rng = random.Random(SEED * 1000 + n)
            x = checked_object(category, rng, n)
            y, cert = interleaved_pair(rng, x, 1)
            genuine = [cert, zigzag(cert, 1).composite]
            certs = genuine + [corrupt_certificate(rng, c) for c in genuine]
            reports = [check_interleaving(c) for c in certs]
            if not all(r.valid for r in reports[:len(genuine)]):
                print(f"check_interleaving {category} n={n}: a genuine certificate is invalid")
                disagree += 1
            failing = ",".join(r.identity for r in reports if not r.valid) or "-"
            ms = best_ms(lambda: [check_interleaving(c) for c in certs])
            print(f"check_interleaving {category:6} n={n:3d}  "
                  f"valid={sum(r.valid for r in reports)}/{len(certs)}  failing={failing}  "
                  f"best_ms={ms:10.3f}")
    for category in ("FinSet", "F2Vec"):
        for n in CHECK_GRADES:
            for m in (1, 2):
                x = checked_object(category, random.Random(SEED * 1000 + n), n)
                cert = interleaved_pair(random.Random(SEED * 1000 + n + m), x, m)[1]
                eps, delta = (rat_to_str(g.coords[0]) for g in zigzag(cert, m).total_shifts)
                ms = best_ms(lambda: zigzag(cert, m))
                print(f"zigzag      {category:6} n={n:3d} m={m}  composite=({eps},{delta})  "
                      f"best_ms={ms:10.3f}")
    for category in ("FinSet", "F2Vec"):
        for n in CHECK_GRADES:
            for m in (1, 2):
                x = checked_object(category, random.Random(SEED * 1000 + n), n)
                y, cert = interleaved_pair(random.Random(SEED * 1000 + n + m), x, m)
                result, back = zigzag(cert, m), floor_roundtrip_cert(y)
                for kind, encode, oracle in (
                        ("rectify", lambda: ser.encode_zigzag(result),
                         lambda: encode_zigzag_by_occurrence(result)),
                        ("roundtrip", lambda: ser.encode_cert(back),
                         lambda: encode_cert_by_occurrence(back))):
                    text = "".join(_pieces(encode()))
                    if text != "".join(_pieces(oracle())):
                        print(f"encode {kind} {category} n={n} m={m}: the text differs "
                              "from the oracle encoders' text")
                        disagree += 1
                    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
                    oracle_ms = best_ms(lambda: "".join(_pieces(oracle())))
                    ms = best_ms(lambda: "".join(_pieces(encode())))
                    print(f"encode {kind:9} {category:6} n={n:3d} m={m}  bytes={len(text):8d}  "
                          f"sha256={digest}  oracle_ms={oracle_ms:10.3f}  best_ms={ms:10.3f}")
    for category in ("FinSet", "F2Vec"):
        for n in CHECK_GRADES:
            rng = random.Random(SEED * 1000 + n)
            x = checked_object(category, rng, n)
            text = "".join(_pieces(ser.encode_cert(interleaved_pair(rng, x, 1)[1])))
            data = json.loads(text)
            if "".join(_pieces(ser.encode_cert(ser.decode_cert(data)))) != text:
                print(f"decode cert {category} n={n}: the decoded certificate is written "
                      "another way")
                disagree += 1
            digest = hashlib.sha256(text.encode()).hexdigest()[:12]
            ms = best_ms(lambda: ser.decode_cert(data))
            print(f"decode cert {category:6} n={n:3d}  bytes={len(text):8d}  sha256={digest}  "
                  f"best_ms={ms:10.3f}")
    for category in ("FinSet", "F2Vec"):
        rng = random.Random(SEED * 1000 + 3)
        texts = ["".join(_pieces(ser.encode_object(rand_real_object(rng, category, 3, 2))))
                 for _ in range(SMALL_DOCUMENTS)]
        docs = [json.loads(text) for text in texts]
        if ["".join(_pieces(ser.encode_object(ser.decode_object(d)))) for d in docs] != texts:
            print(f"decode small {category}: a decoded object is written another way")
            disagree += 1
        joined = "\n".join(texts).encode()
        digest = hashlib.sha256(joined).hexdigest()[:12]
        ms = best_ms(lambda: [ser.decode_object(d) for d in docs])
        print(f"decode small {category:6} n={SMALL_DOCUMENTS:3d}  bytes={len(joined):8d}  "
              f"sha256={digest}  best_ms={ms:10.3f}")
    for command, argv in PARSED_REQUESTS.items():
        read, parsed = _read(argv), vars(_PARSER.parse_args(argv))
        if read != parsed:
            print(f"cli parse {command}: the reader does not give argparse's answer")
            disagree += 1
        reader_us = best_ms(lambda: [_read(argv) for _ in range(PARSE_BATCH)]) * 1000 / PARSE_BATCH
        argparse_us = best_ms(lambda: [_PARSER.parse_args(argv) for _ in range(PARSE_BATCH)]
                              ) * 1000 / PARSE_BATCH
        print(f"cli parse   {command:15}  args={len(argv):2d}  reader_us={reader_us:8.2f}  "
              f"argparse_us={argparse_us:8.2f}")
    launch_rows()
    if disagree:
        sys.exit(1)


if __name__ == "__main__":
    main()
