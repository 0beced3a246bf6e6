"""Plain-Python model of Z-indexed persistent objects ("chains") and their
wire format, independent of the perscert package.

The generator builds workload inputs from it and the correctness gate replays
certificates with it, so a change to perscert cannot silently change either.
Maps are plain data: a dict for FinSet and Complex (on elements or vertices),
and ``(rows, nrows, ncols)`` for F2Vec, with ``rows`` a tuple of 0/1 tuples.
"""

from __future__ import annotations

from fractions import Fraction

FORMAT_OBJECT = "perscert/persistent-object/1"
FORMAT_CERT = "perscert/interleaving/1"


def rat_str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class FinSet:
    name = "FinSet"

    @staticmethod
    def initial():
        return ()

    @staticmethod
    def identity(obj):
        return {e: e for e in obj}

    @staticmethod
    def initial_map(tgt):
        return {}

    @staticmethod
    def compose(g, f):
        return {k: g[v] for k, v in f.items()}

    @staticmethod
    def encode_object(obj):
        return sorted(obj, key=repr)

    @staticmethod
    def encode_map(f):
        return sorted(([k, v] for k, v in f.items()), key=repr)

    @staticmethod
    def decode_map(data):
        return {k: v for k, v in data}


class Complex(FinSet):
    """Objects are frozensets of sorted vertex tuples; maps act on vertices."""

    name = "Complex"

    @staticmethod
    def initial():
        return frozenset()

    @staticmethod
    def identity(obj):
        return {v: v for s in obj for v in s}

    @staticmethod
    def encode_object(obj):
        return sorted((list(s) for s in obj), key=repr)


class F2Vec:
    name = "F2Vec"

    @staticmethod
    def initial():
        return 0

    @staticmethod
    def identity(n):
        return tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n, n

    @staticmethod
    def initial_map(tgt):
        return tuple(() for _ in range(tgt)), tgt, 0

    @staticmethod
    def compose(g, f):
        grows, gr, gc = g
        frows, fr, fc = f
        if gc != fr:
            raise ValueError("shape mismatch in F2Vec composition")
        rows = tuple(
            tuple(sum(grows[i][k] & frows[k][j] for k in range(gc)) % 2 for j in range(fc))
            for i in range(gr)
        )
        return rows, gr, fc

    @staticmethod
    def encode_object(obj):
        return obj

    @staticmethod
    def encode_map(f):
        rows, nr, nc = f
        return {"rows": [list(r) for r in rows], "shape": [nr, nc]}

    @staticmethod
    def decode_map(data):
        nr, nc = data["shape"]
        return tuple(tuple(r) for r in data["rows"]), nr, nc


CATEGORIES = {c.name: c for c in (FinSet, F2Vec, Complex)}


class Chain:
    """An object on the integer window [lo, hi]: initial below lo and
    constant above hi, as perscert evaluates grid objects."""

    def __init__(self, cat, lo: int, values: list, maps: list):
        if len(maps) != len(values) - 1:
            raise ValueError("a chain needs one map per consecutive pair of values")
        self.cat, self.lo, self.values, self.maps = cat, lo, values, maps
        self.hi = lo + len(values) - 1

    def value(self, n: int):
        if n < self.lo:
            return self.cat.initial()
        return self.values[min(n, self.hi) - self.lo]

    def smap(self, i: int, j: int):
        """Structure map from grade i to grade j >= i."""
        if i > j:
            raise ValueError(f"structure map needs i <= j, got {i} > {j}")
        if i < self.lo:
            return self.cat.initial_map(self.value(j))
        i, j = min(i, self.hi), min(j, self.hi)
        f = self.cat.identity(self.values[i - self.lo])
        for k in range(i, j):
            f = self.cat.compose(self.maps[k - self.lo], f)
        return f

    def reindex(self, tau) -> "Chain":
        """The chain n -> X(tau(n)) on the same window, for monotone tau."""
        window = range(self.lo, self.hi + 1)
        values = [self.value(tau(n)) for n in window]
        maps = [self.smap(tau(n), tau(n + 1)) for n in window[:-1]]
        return Chain(self.cat, self.lo, values, maps)

    def to_doc(self) -> dict:
        cat = self.cat
        return {
            "format": FORMAT_OBJECT,
            "m": 1,
            "category": cat.name,
            "integer_indexed": True,
            "axes": [[str(n) for n in range(self.lo, self.hi + 1)]],
            "objects": {str(k): cat.encode_object(v) for k, v in enumerate(self.values)},
            "edge_maps": {f"{k}|0": cat.encode_map(f) for k, f in enumerate(self.maps)},
        }


class Cert:
    """An (m, m)-interleaving of chains on a shared window: one component per
    integer grade of the canonical grid [lo - m, hi], for each leg."""

    def __init__(self, x: Chain, y: Chain, m: int, f: dict, g: dict):
        self.x, self.y, self.m, self.f, self.g = x, y, m, f, g

    def grid(self) -> range:
        return range(self.x.lo - self.m, self.x.hi + 1)

    def to_doc(self) -> dict:
        cat = self.x.cat
        shift = [str(self.m)]

        def comps(leg):
            return [{"at": [str(n)], "map": cat.encode_map(leg[n])} for n in self.grid()]

        return {
            "format": FORMAT_CERT,
            "epsilon": shift,
            "delta": shift,
            "f_components": comps(self.f),
            "g_components": comps(self.g),
            "x": self.x.to_doc(),
            "y": self.y.to_doc(),
        }


def genuine_cert(x: Chain, tau, m: int) -> Cert:
    """y = x . tau with n - m <= tau(n) <= n and tau(hi) = hi, interleaved with
    x by structure maps of x, so the certificate is valid by construction."""
    lo, hi = x.lo, x.hi
    y = x.reindex(tau)

    def clamp(n):
        return min(max(n, lo), hi)

    f, g = {}, {}
    for n in range(lo - m, hi + 1):
        if n + m < lo:
            f[n] = x.cat.initial_map(x.cat.initial())
        else:
            f[n] = x.smap(n, tau(clamp(n + m)))
        if n < lo:
            g[n] = x.cat.initial_map(x.value(n + m))
        else:
            g[n] = x.smap(tau(clamp(n)), n + m)
    return Cert(x, y, m, f, g)


def _component_at(leg: dict, lo: int, hi: int, n: int, cat, target: Chain, shift: int):
    if n < lo:
        return cat.initial_map(target.value(n + shift))
    return leg[min(n, hi)]


def check_cert(c: Cert):
    """None when (f, g) is a valid interleaving; otherwise the first
    violation as (identity, grade), checked in perscert's order: naturality
    of f, of g, then the triangle on X and on Y."""
    cat, m, x, y = c.x.cat, c.m, c.x, c.y
    grid = c.grid()
    lo, hi = grid[0], grid[-1]
    for name, leg, src, tgt in (("f", c.f, x, y), ("g", c.g, y, x)):
        for p in grid[:-1]:
            upper = cat.compose(tgt.smap(p + m, p + 1 + m), leg[p])
            lower = cat.compose(leg[p + 1], src.smap(p, p + 1))
            if upper != lower:
                return f"naturality({name})", p
    for name, first, second, obj, other in (
        ("triangle(X)", c.f, c.g, x, y),
        ("triangle(Y)", c.g, c.f, y, x),
    ):
        for p in range(lo - m, hi + 1):
            a = _component_at(first, lo, hi, p, cat, other, m)
            b = _component_at(second, lo, hi, p + m, cat, obj, m)
            if cat.compose(b, a) != obj.smap(p, p + 2 * m):
                return name, p
    return None


def chain_from_doc(doc: dict) -> Chain:
    """Inverse of Chain.to_doc for integer-axis FinSet and F2Vec objects."""
    cat = CATEGORIES[doc["category"]]
    axis = [int(v) for v in doc["axes"][0]]
    values = [doc["objects"][str(k)] for k in range(len(axis))]
    if cat is FinSet:
        values = [tuple(v) for v in values]
    maps = [cat.decode_map(doc["edge_maps"][f"{k}|0"]) for k in range(len(axis) - 1)]
    return Chain(cat, axis[0], values, maps)


def cert_from_doc(doc: dict, x: Chain, y: Chain) -> Cert:
    cat = x.cat
    m = int(doc["epsilon"][0])
    if doc["delta"] != doc["epsilon"]:
        raise ValueError("only (m, m)-interleavings are replayed here")
    legs = []
    for key in ("f_components", "g_components"):
        legs.append({int(e["at"][0]): cat.decode_map(e["map"]) for e in doc[key]})
    return Cert(x, y, m, *legs)
