"""Acceptance gate: eleven numbered criteria, one printed pass/fail line
each. Every check is exact (rational arithmetic end to end); the randomized
ones are seeded and deterministic.

Run with ``pytest tests/test_acceptance.py -v``; the verdict lines are
replayed in the terminal summary (see conftest) so they survive capture.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from perscert import (
    FilteredComplex,
    MetricInput,
    ValidationError,
    check_interleaving,
    degree_rips,
    floor_roundtrip_cert,
    grade,
    homology,
    is_filtered,
    module_distance_crosscheck,
    pi0,
    pullback_interleaving,
    rescale_cert,
    skeleton,
    stability_audit,
    three_halves_check,
    to_persistent,
    vietoris_rips,
    zigzag,
)
from perscert import serialize as ser
from perscert.distances import bottleneck
from perscert.persist import Grid, PersistentObject
from perscert.randgen import (
    corrupt_certificate,
    interleaved_pair,
    lift_cert_to_real,
    natural_map_into,
    rand_barcode,
    rand_f2vec_object,
    rand_filtered_complex,
    rand_finset_object,
    rand_metric,
    rand_persistent_complex,
    rand_real_object,
)

from oracles import bfs_component_count, bottleneck_bruteforce, matching_cost

COLLINEAR = MetricInput([0, 1, 3], [[0, 1, 3], [1, 0, 2], [3, 2, 0]])


def test_criterion_01_zigzag_constant_m1(record_criterion):
    t0 = time.monotonic()
    ok = True
    for seed in range(50):
        rng = random.Random(seed)
        x = rand_finset_object(rng, lo=-4, hi=4, max_size=5)
        y, cert = interleaved_pair(rng, x, 1)
        result = zigzag(cert, 1)
        ok = ok and result.even_equal and result.odd_equal
        ok = ok and result.total_shifts == (grade(2), grade(2))
        ok = ok and check_interleaving(result.composite).valid
    ok = ok and (time.monotonic() - t0) < 10.0
    record_criterion(1, "zig-zag composite is exactly (2,2) at m=1, 50 seeded pairs", ok)


def test_criterion_02_floor_round_trip(record_criterion):
    ok = True
    for seed in range(50):
        rng = random.Random(seed)
        category = "FinSet" if seed % 2 == 0 else "F2Vec"
        x = rand_real_object(rng, category)
        cert = floor_roundtrip_cert(x)
        ok = ok and (cert.epsilon, cert.delta) == (grade(1), grade(1))
        ok = ok and check_interleaving(cert).valid
    record_criterion(2, "floor round trip certificate validates, 50 real-indexed objects", ok)


def test_criterion_03_rescaling_iff(record_criterion):
    ok = True
    count = 0
    for seed in range(50):
        rng = random.Random(seed)
        x = rand_finset_object(rng, lo=-3, hi=3, max_size=4)
        y, cert = interleaved_pair(rng, x, 1)
        # half the instances get a corrupted certificate so both checker
        # verdicts are exercised
        if seed % 2 == 1:
            cert = corrupt_certificate(rng, cert)
        delta = cert.epsilon.coords[0]
        before = check_interleaving(cert).valid
        for m in (1, 2, 3):
            after = check_interleaving(rescale_cert(cert, Fraction(delta, m))).valid
            ok = ok and (before == after)
            count += 1
    ok = ok and count == 150
    record_criterion(3, "checker(X,Y,delta) == checker(rescaled, m) for m in {1,2,3}", ok)


def test_criterion_04_pullback_preserves_shifts(record_criterion):
    ok = True
    for seed in range(100):
        rng = random.Random(seed)
        x = rand_finset_object(rng, lo=-2, hi=2, max_size=4)
        y, cert = interleaved_pair(rng, x, 1)
        b, h = natural_map_into(rng, y)
        result = pullback_interleaving(cert, h)
        ok = ok and (result.cert.epsilon, result.cert.delta) == (
            cert.epsilon, cert.delta
        )
        ok = ok and check_interleaving(result.cert).valid
    for seed in range(50):
        rng = random.Random(1000 + seed)
        x = rand_f2vec_object(rng, lo=-2, hi=2, max_dim=3)
        y, cert = interleaved_pair(rng, x, 1)
        b, h = natural_map_into(rng, y)
        result = pullback_interleaving(cert, h)
        ok = ok and (result.cert.epsilon, result.cert.delta) == (
            cert.epsilon, cert.delta
        )
        ok = ok and check_interleaving(result.cert).valid
    record_criterion(4, "pullback keeps (eps,delta), 100 FinSet + 50 F2Vec instances", ok)


def test_criterion_05_three_halves_extraction(record_criterion):
    ok = True
    for seed in range(50):
        rng = random.Random(seed)
        category = "FinSet" if seed % 2 == 0 else "F2Vec"
        maker = rand_finset_object if category == "FinSet" else rand_f2vec_object
        x = maker(rng, lo=-3, hi=3)
        y, cert = interleaved_pair(rng, x, 1)
        lifted = lift_cert_to_real(cert, Fraction(5, 4))
        ok = ok and check_interleaving(lifted).valid
        out = three_halves_check(lifted)
        ok = ok and (out.epsilon, out.delta) == (grade(1), grade(1))
        ok = ok and check_interleaving(out).valid
    rng = random.Random(0)
    x = rand_finset_object(rng, lo=-2, hi=2)
    y, cert = interleaved_pair(rng, x, 1)
    at_threshold = lift_cert_to_real(cert, Fraction(3, 2))
    rejected = False
    try:
        three_halves_check(at_threshold)
    except ValidationError:
        rejected = True
    ok = ok and rejected
    record_criterion(5, "(5/4)-interleavings drop to valid 1-certificates; r=3/2 rejected", ok)


def test_criterion_06_filtered_characterization(record_criterion):
    ok = True
    # every to_persistent output is filtered with the entrance grades recovered
    for seed in range(20):
        fc = rand_filtered_complex(random.Random(seed))
        chk = is_filtered(to_persistent(fc))
        ok = ok and chk.filtered and chk.witness == dict(fc.grade)
    vr_chk = is_filtered(to_persistent(vietoris_rips(COLLINEAR, 2)))
    ok = ok and vr_chk.filtered
    # degree-Rips of the collinear points fails the minimum condition
    dr_chk = is_filtered(degree_rips(COLLINEAR, 2))
    ok = ok and not dr_chk.filtered and dr_chk.condition == 2
    ok = ok and "minimum" in dr_chk.reason
    # hand-built gadget: a vertex appearing at (1,0) and (0,1) but not (0,0)
    v = frozenset({("v",)})
    gadget = PersistentObject(
        Grid([[0, 1], [0, 1]]),
        "Complex",
        {(0, 0): frozenset(), (1, 0): v, (0, 1): v, (1, 1): v},
        {((0, 0), 0): {}, ((0, 0), 1): {},
         ((1, 0), 1): {"v": "v"}, ((0, 1), 0): {"v": "v"}},
    )
    g_chk = is_filtered(gadget)
    ok = ok and not g_chk.filtered and g_chk.condition == 2
    ok = ok and "minimum" in g_chk.reason
    # monic random m=1 objects never fail the minimum condition
    for seed in range(20):
        chk = is_filtered(rand_persistent_complex(random.Random(seed)))
        ok = ok and chk.condition != 2
    record_criterion(6, "filtered characterization with exact witnesses and both failures", ok)


def test_criterion_07_skeletality(record_criterion):
    ok = True
    rng = random.Random(0)
    for n in range(1, 5):
        mi = rand_metric(rng, n + 1)
        vr = vietoris_rips(mi, n + 2)
        ok = ok and vr.dimension() <= n
        for k in range(vr.dimension() + 1):
            sk = skeleton(vr, k)
            ok = ok and skeleton(sk, k) == sk
            ok = ok and sk.dimension() == min(k, vr.dimension())
    record_criterion(7, "VR of n+1 points is at most n-dimensional; skeleton idempotent", ok)


def test_criterion_08_pi0_oracle(record_criterion):
    ok = True
    for seed in range(100):
        x = rand_persistent_complex(random.Random(seed))
        comps = pi0(x)
        h0 = homology(x, 0)
        for p in x.grid.points():
            n_uf = len(comps.evaluate(p))
            ok = ok and n_uf == bfs_component_count(x.evaluate(p))
            ok = ok and n_uf == h0.evaluate(p)
    record_criterion(8, "union-find = BFS = rank H_0 at every grid point, 100 complexes", ok)


def test_criterion_09_worked_example_via_cli(record_criterion, tmp_path):
    def run(args, stdin=None):
        return subprocess.run(
            [sys.executable, "-m", "perscert.cli", *args],
            capture_output=True, text=True, input=stdin,
        )

    ok = True
    metric = tmp_path / "metric.json"
    metric.write_text(json.dumps({
        "format": ser.FORMAT_METRIC,
        "points": [0, 1, 3],
        "matrix": [["0", "1", "3"], ["1", "0", "2"], ["3", "2", "0"]],
    }))
    vr = tmp_path / "vr.json"
    r = run(["rips", str(metric), "-o", str(vr)])
    ok = ok and r.returncode == 0
    r0 = run(["barcode", str(vr), "--dim", "0"])
    ok = ok and r0.returncode == 0
    h0 = {(b["birth"], b["death"]) for b in json.loads(r0.stdout)["intervals"]}
    ok = ok and h0 == {("0", "inf"), ("0", "1"), ("0", "2")}
    r1 = run(["barcode", str(vr), "--dim", "1"])
    ok = ok and r1.returncode == 0 and json.loads(r1.stdout)["intervals"] == []

    # 4-cycle: vertices at 0, boundary edges at 1, diagonals and triangles at 2
    verts = [0, 1, 2, 3]
    grades = {(v,): grade(0) for v in verts}
    grades.update({e: grade(1) for e in [(0, 1), (1, 2), (2, 3), (0, 3)]})
    grades.update({s: grade(2) for s in [(0, 2), (1, 3)]
                   + list(itertools.combinations(verts, 3))})
    cyc = tmp_path / "cycle.json"
    cyc.write_text(json.dumps(ser.encode_filtered_complex(
        FilteredComplex(verts, grades.keys(), grades)
    )))
    r2 = run(["barcode", str(cyc), "--dim", "1"])
    ok = ok and r2.returncode == 0
    ok = ok and json.loads(r2.stdout)["intervals"] == [
        {"birth": "1", "death": "2"}
    ]
    record_criterion(9, "worked examples through the CLI: H_0 bars and the 4-cycle H_1", ok)


def test_criterion_10_bottleneck_oracle(record_criterion):
    ok = True
    for seed in range(100):
        rng = random.Random(seed)
        b1, b2 = rand_barcode(rng), rand_barcode(rng)
        d, matching = bottleneck(b1, b2)
        ok = ok and d == bottleneck_bruteforce(b1, b2)
        if matching is not None:
            ok = ok and matching_cost(matching, b1, b2) == d
    for seed in range(20):
        rng = random.Random(1000 + seed)
        a, b, c = (rand_barcode(rng) for _ in range(3))
        ok = ok and bottleneck(a, a)[0] == 0
        ok = ok and bottleneck(a, b)[0] == bottleneck(b, a)[0]
        ab, bc, ac = bottleneck(a, b)[0], bottleneck(b, c)[0], bottleneck(a, c)[0]
        if ab is not None and bc is not None:
            ok = ok and ac is not None and ac <= ab + bc
    record_criterion(10, "bottleneck = brute force on 100 pairs; pseudometric axioms", ok)


def test_criterion_11_algebraic_stability(record_criterion):
    ok = True
    # every complex-level certificate the generators produce satisfies
    # d_B(H_n) <= max shift
    for seed in range(15):
        rng = random.Random(seed)
        x = rand_persistent_complex(rng)
        y, cert = interleaved_pair(rng, x, 1)
        for n in (0, 1):
            rep = stability_audit(cert, n)
            ok = ok and rep.holds and rep.module_cert_valid
    # module-level crosscheck on 50 small pairs
    nontrivial = 0
    for seed in range(50):
        rng = random.Random(seed)
        f = rand_f2vec_object(rng, lo=0, hi=2, max_dim=2)
        if seed % 2 == 0:
            # a genuinely interleaved partner, so a finite delta is certified
            g, _ = interleaved_pair(rng, f, 1)
        else:
            g = rand_f2vec_object(rng, lo=0, hi=2, max_dim=2)
        rep = module_distance_crosscheck(f, g, budget=2_000_000)
        ok = ok and rep.holds
        if rep.certified_delta is not None:
            nontrivial += 1
            if rep.bottleneck_distance is not None:
                ok = ok and rep.bottleneck_distance <= rep.certified_delta
    ok = ok and nontrivial >= 25  # the bound must be exercised, not vacuous
    record_criterion(11, "d_B <= certified delta for suite certificates and 50 modules", ok)
