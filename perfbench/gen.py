"""Seeded workload inputs as wire-format JSON documents.

Unit ``i`` of a workload is a function of (seed, workload, i) alone, so the
same seed gives byte-identical documents however far a run gets. Nothing here
imports perscert.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from chains import Chain, Complex, F2Vec, FinSet, check_cert, genuine_cert, rat_str

FORMAT_METRIC = "perscert/metric/1"
FORMAT_BARCODE = "perscert/barcode/1"

# Generator parameters, also recorded in baseline.json.
PARAMS = {
    "rips-barcode": {
        "points": [6, 7, 8, 9],
        "coordinate_step": "1/8",
        "coordinate_range": [0, 8],
        "pairwise_distances": "distinct and nonzero",
        "metric": "L1",
        "dmax": 2,
        "requests_per_cloud": ["rips", "validate", "barcode --dim 0", "barcode --dim 1",
                               "bottleneck (H0, previous cloud)", "degree-rips",
                               "is-filtered"],
    },
    "cert-replay": {
        "window_grades": [41, 51, 61, 71, 81],
        "kinds": [["FinSet", 1], ["F2Vec", 1], ["FinSet", 2], ["F2Vec", 2]],
        "finset_max_size": 5,
        "f2vec_max_dim": 3,
        "complex_vertices": [4, 5],
        "complex_max_grade": 3,
        "requests_per_unit": ["interleave-check (genuine)",
                              "interleave-check (one component replaced)",
                              "rectify --block m", "roundtrip-floor",
                              "stability-audit --dim (unit % 2)"],
    },
    "distance-search": {
        "max_enum": 2000000,
        "f2vec_grades": 3,
        "f2vec_max_dim": 1,
        "finset_grades": 3,
        "finset_axis": "distinct multiples of 1/4 in [-2, 4]",
        "finset_max_size": 2,
        "design_per_cycle": "every pair of FinSet size profiles (empty prefix), every pair "
                            "of F2Vec dimension profiles, and every F2Vec profile 16 times "
                            "with a genuinely 1-interleaved partner, in seeded order",
        "requests_per_f2vec_pair": ["barcode x", "barcode y", "bottleneck",
                                    "interleave-dist"],
        "requests_per_finset_pair": ["interleave-dist"],
    },
}


def rng_for(seed: int, workload: str, i: int, part: str = "") -> random.Random:
    return random.Random(f"{seed}/{workload}/{i}/{part}")


# -- rips-barcode --------------------------------------------------------------


def l1(a, b) -> Fraction:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def cloud(rng: random.Random, n: int) -> list[tuple[Fraction, Fraction]]:
    """n points whose pairwise distances are distinct and nonzero, so every
    cloud of a size has the same number of filtration values; each point is
    redrawn until it adds no repeated distance."""
    points, seen = [], set()
    while len(points) < n:
        p = (Fraction(rng.randint(0, 64), 8), Fraction(rng.randint(0, 64), 8))
        new = [l1(p, q) for q in points]
        if 0 not in new and len(set(new)) == len(new) and not seen.intersection(new):
            points.append(p)
            seen.update(new)
    return points


def l1_matrix(points) -> list[list[Fraction]]:
    return [[l1(a, b) for b in points] for a in points]


def metric_doc(dist) -> dict:
    return {
        "format": FORMAT_METRIC,
        "points": list(range(len(dist))),
        "matrix": [[rat_str(d) for d in row] for row in dist],
    }


def h0_bars(n_vertices: int, vertex_grade, edges) -> list[tuple[Fraction, Fraction | None]]:
    """H0 barcode by Kruskal with the elder rule: edges are (grade, u, v);
    when two components merge the younger one dies. Zero-length bars are
    dropped, as barcodes list only nonempty intervals."""
    parent = list(range(n_vertices))
    birth = [vertex_grade(v) for v in range(n_vertices)]

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    bars = []
    for w, u, v in sorted(edges):
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        if (birth[ru], ru) > (birth[rv], rv):
            ru, rv = rv, ru  # ru is the elder
        if birth[rv] < w:
            bars.append((birth[rv], w))
        parent[rv] = ru
    roots = {find(v) for v in range(n_vertices)}
    bars.extend((birth[r], None) for r in roots)
    return sorted(bars, key=bar_key)


def bar_key(bar):
    birth, death = bar
    return (birth, death is not None, death or 0)


def barcode_doc(bars) -> dict:
    return {
        "format": FORMAT_BARCODE,
        "intervals": [{"birth": rat_str(b), "death": "inf" if d is None else rat_str(d)}
                      for b, d in bars],
    }


def rips_mst_bars(dist) -> list:
    n = len(dist)
    edges = [(dist[i][j], i, j) for i, j in itertools.combinations(range(n), 2)]
    return h0_bars(n, lambda v: Fraction(0), edges)


def rips_unit(seed: int, i: int) -> dict:
    sizes = PARAMS["rips-barcode"]["points"]
    n = sizes[i % len(sizes)]
    dist = l1_matrix(cloud(rng_for(seed, "rips-barcode", i), n))
    # the previous cloud of unit 0 is drawn at index -1 with the largest size
    prev_n = sizes[(i - 1) % len(sizes)]
    prev = l1_matrix(cloud(rng_for(seed, "rips-barcode", i - 1), prev_n))
    return {
        "kind": "rips",
        "n": n,
        "dist": dist,
        "metric": metric_doc(dist),
        "prev_h0": barcode_doc(rips_mst_bars(prev)),
    }


# -- cert-replay ------------------------------------------------------------------


def finset_chain(rng: random.Random, lo: int, sizes) -> Chain:
    """Sets x0, x1, ... of the given sizes with random maps; empty sets come
    first, so every map out of a nonempty set has a nonempty target."""
    values = [tuple(f"x{e}" for e in range(s)) for s in sizes]
    maps = [{e: rng.choice(b) for e in a} for a, b in zip(values, values[1:])]
    return Chain(FinSet, lo, values, maps)


def f2vec_chain(rng: random.Random, lo: int, dims) -> Chain:
    """Spaces of the given dimensions with random matrices between them."""
    maps = [(tuple(tuple(rng.randint(0, 1) for _ in range(a)) for _ in range(b)), b, a)
            for a, b in zip(dims, dims[1:])]
    return Chain(F2Vec, lo, list(dims), maps)


def monotone_tau(rng: random.Random, lo: int, hi: int, m: int):
    """Monotone tau with n - m <= tau(n) <= n and tau(hi) = hi."""
    tau = {}
    prev = lo - m
    for n in range(lo, hi + 1):
        tau[n] = hi if n == hi else rng.randint(max(prev, n - m), n)
        prev = tau[n]
    return tau.__getitem__


def complex_chain(rng: random.Random, n_vertices: int, max_grade: int) -> Chain:
    """Sublevel sets of a random integer-graded filtration on the window
    [min grade, max grade + 1]; structure maps are inclusions."""
    grade = {(v,): rng.randint(0, 1) for v in range(n_vertices)}
    for e in itertools.combinations(range(n_vertices), 2):
        if rng.random() < 0.6:
            grade[e] = rng.randint(max(grade[(e[0],)], grade[(e[1],)]), max_grade)
    for t in itertools.combinations(range(n_vertices), 3):
        faces = list(itertools.combinations(t, 2))
        if all(f in grade for f in faces) and rng.random() < 0.5:
            grade[t] = rng.randint(max(grade[f] for f in faces), max_grade)
    lo, hi = min(grade.values()), max(grade.values()) + 1
    values = [frozenset(s for s, g in grade.items() if g <= n) for n in range(lo, hi + 1)]
    maps = [Complex.identity(k) for k in values[:-1]]
    return Chain(Complex, lo, values, maps)


def corrupt(rng: random.Random, cert):
    """A copy of a genuine certificate with one f-component replaced by a
    different map of the same type, chosen so the copy is invalid. Returns
    (copy, (identity, grade) of its first violation)."""
    x, y, m = cert.x, cert.y, cert.m
    points = list(cert.grid())
    rng.shuffle(points)
    for p in points:
        src, tgt = x.value(p), y.value(p + m)
        old = cert.f[p]
        if x.cat is FinSet:
            if not src or len(tgt) < 2:
                continue
            e = rng.choice(src)
            new = dict(old)
            new[e] = rng.choice([t for t in tgt if t != old[e]])
        else:
            rows, nr, nc = old
            if nr == 0 or nc == 0:
                continue
            r, c = rng.randrange(nr), rng.randrange(nc)
            rows = tuple(tuple(v ^ (i == r and j == c) for j, v in enumerate(row))
                         for i, row in enumerate(rows))
            new = (rows, nr, nc)
        bad = type(cert)(x, y, m, {**cert.f, p: new}, cert.g)
        violation = check_cert(bad)
        if violation is not None:
            return bad, violation
    raise ValueError("no corruptible component found")


def cert_unit(seed: int, i: int) -> dict:
    p = PARAMS["cert-replay"]
    cat_name, m = p["kinds"][i % len(p["kinds"])]
    rng = rng_for(seed, "cert-replay", i)
    length = p["window_grades"][i // len(p["kinds"]) % len(p["window_grades"])]
    lo = -rng.randint(0, length // 2)
    if cat_name == "FinSet":
        first = rng.randint(0, length // 4)
        x = finset_chain(rng, lo, [0 if k < first else rng.randint(1, p["finset_max_size"])
                                   for k in range(length)])
    else:
        x = f2vec_chain(rng, lo, [rng.randint(0, p["f2vec_max_dim"]) for _ in range(length)])
    cert = genuine_cert(x, monotone_tau(rng, x.lo, x.hi, m), m)
    bad, violation = corrupt(rng, cert)

    crng = rng_for(seed, "cert-replay", i, "complex")
    k = complex_chain(crng, crng.choice(p["complex_vertices"]), p["complex_max_grade"])
    cm = crng.randint(1, 2)
    kcert = genuine_cert(k, monotone_tau(crng, k.lo, k.hi, cm), cm)
    return {
        "kind": "cert",
        "category": cat_name,
        "m": m,
        "cert": cert,
        "bad": bad,
        "violation": violation,
        "complex_cert": kcert,
        "audit_dim": i % 2,
    }


# -- distance-search --------------------------------------------------------------


def rational_axis(rng: random.Random, size: int) -> list[Fraction]:
    vals: set[Fraction] = set()
    while len(vals) < size:
        vals.add(Fraction(rng.randint(-8, 16), 4))
    return sorted(vals)


def profiles(max_size: int, grades: int, empty_prefix: bool) -> list[tuple[int, ...]]:
    sizes = itertools.product(range(max_size + 1), repeat=grades)
    if not empty_prefix:
        return list(sizes)
    return [v for v in sizes if all(a == 0 or b > 0 for a, b in zip(v, v[1:]))]


def distance_design() -> list[tuple]:
    """One cycle: every pair of FinSet size profiles, every pair of F2Vec
    dimension profiles, and every F2Vec profile 16 times with a genuine
    partner."""
    p = PARAMS["distance-search"]
    fs = profiles(p["finset_max_size"], p["finset_grades"], True)
    fv = profiles(p["f2vec_max_dim"], p["f2vec_grades"], False)
    design = [("finset-pair", a, b) for a in fs for b in fs]
    design += [("f2vec-pair", a, b) for a in fv for b in fv]
    design += [("f2vec-pair", a, None) for a in fv for _ in range(16)]
    return design


DISTANCE_DESIGN = distance_design()


def finset_real_doc(rng: random.Random, sizes) -> dict:
    doc = finset_chain(rng, 0, sizes).to_doc()
    doc["integer_indexed"] = False
    doc["axes"] = [[rat_str(v) for v in rational_axis(rng, len(sizes))]]
    return doc


def distance_unit(seed: int, i: int) -> dict:
    cycle, j = divmod(i, len(DISTANCE_DESIGN))
    order = list(range(len(DISTANCE_DESIGN)))
    rng_for(seed, "distance-search", cycle, "order").shuffle(order)
    kind, a, b = DISTANCE_DESIGN[order[j]]
    rng = rng_for(seed, "distance-search", i)
    if kind == "finset-pair":
        return {"kind": kind, "genuine": False,
                "x": finset_real_doc(rng, a), "y": finset_real_doc(rng, b)}
    x = f2vec_chain(rng, 0, a)
    if b is None:
        y = genuine_cert(x, monotone_tau(rng, x.lo, x.hi, 1), 1).y
    else:
        y = f2vec_chain(rng, 0, b)
    return {"kind": kind, "genuine": b is None, "x": x.to_doc(), "y": y.to_doc()}


# Units per cycle: a run is made of whole cycles, so every run sees the same
# mix of input sizes and kinds.
CYCLE = {
    "rips-barcode": len(PARAMS["rips-barcode"]["points"]),
    "cert-replay": len(PARAMS["cert-replay"]["kinds"]) * len(PARAMS["cert-replay"]["window_grades"]),
    "distance-search": len(DISTANCE_DESIGN),
}
UNITS = {"rips-barcode": rips_unit, "cert-replay": cert_unit,
         "distance-search": distance_unit}
WORKLOADS = tuple(UNITS)


def unit(workload: str, seed: int, i: int) -> dict:
    return UNITS[workload](seed, i)
