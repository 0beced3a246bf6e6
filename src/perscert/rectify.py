"""Strict-level zig-zag rectification: build the diagonal object C of an
m-interleaving between Z-indexed objects, verify its even/odd restrictions,
and assemble the certified composite interleaving with explicit constants.

For m = 1 the pieces have shifts (1,0), (1,1), (0,1) and the composite is a
(2,2)-interleaving. For general m the outer pieces need shift 2m - 1 (the
even-block floor can lag by up to 2m - 1 off multiples of m), giving a
composite no worse than (3m - 1, 3m - 1).

Window handling: the even (resp. odd) restriction of an object with window
[lo, hi] is presented on [lo, He] (resp. [lo, Ho]) where He (resp. Ho) is the
smallest even-block (resp. odd-block) multiple of m that is >= hi. Ending the
presentation at a fixed point of the reindexing keeps the piecewise-constant
clamping of the presentation consistent with the clamping of the base object,
which is what makes the certificates below literally valid.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from . import persist
from .errors import BudgetExceededError, InvalidScaleError, ValidationError
from .grades import Grade, even_reindex, floor_int, odd_reindex, rat
from .persist import (
    InterleavingCert,
    PersistentObject,
    _integer_of,
    _positions,
    _require_valid,
    _sample,
    _structure_morphism,
    compose_interleavings,
    extend_floor,
)


def _window(x: PersistentObject) -> tuple[int, int]:
    if not x.integer_indexed:
        raise ValidationError("expected an integer-indexed object")
    axis = x.grid.axes[0]
    return int(axis[0]), int(axis[-1])


def _block_end(lo: int, hi: int, m: int, parity: int) -> int:
    """Smallest q*m >= hi with q % 2 == parity (0: even, 1: odd). The
    window [lo, q*m] is sampled, and each sample may compose up to m
    structure maps, so a window whose integers times m exceed
    ``persist.MAX_WINDOW`` is refused before any sample is taken."""
    q = -(-hi // m)
    if q % 2 != parity:
        q += 1
    end = q * m
    if (end - lo + 1) * m > persist.MAX_WINDOW:
        raise BudgetExceededError(
            f"rectify window [{lo}, {end}] holds {end - lo + 1} integers, which at "
            f"block {m} is more than the limit of {persist.MAX_WINDOW}")
    return end


def reindex(x: PersistentObject, fn, lo: int | None = None,
            hi: int | None = None) -> PersistentObject:
    """Precompose a Z-indexed object with a monotone map fn: Z -> Z with
    fn(n) <= n, presented on the window [lo, hi] (default: the window of x),
    evaluated with the boundary semantics."""
    xlo, xhi = _window(x)
    return _sample(x, fn, xlo if lo is None else lo, xhi if hi is None else hi)


def even_odd_restrict(x: PersistentObject, m: int = 1
                      ) -> tuple[PersistentObject, PersistentObject, InterleavingCert]:
    """(e_m^*(X), o_m^*(X)) together with the m-interleaving between them
    given by structure maps of X."""
    return _even_odd(x, m, *_window(x))


def _even_odd(x: PersistentObject, m: int, lo: int, hi: int
              ) -> tuple[PersistentObject, PersistentObject, InterleavingCert]:
    """``even_odd_restrict`` for the window [lo, hi], which may be narrower
    than the window of x."""
    even, odd = partial(even_reindex, m=m), partial(odd_reindex, m=m)
    ex = reindex(x, even, lo, _block_end(lo, hi, m, 0))
    ox = reindex(x, odd, lo, _block_end(lo, hi, m, 1))
    shift = Grade([m])
    f = _structure_morphism(x, ex, ox, shift, even, lambda v: odd(v + m))
    g = _structure_morphism(x, ox, ex, shift, odd, lambda v: even(v + m))
    return ex, ox, InterleavingCert(f, g)


def _outer_cert(x: PersistentObject, rx: PersistentObject, fn, m: int
                ) -> InterleavingCert:
    """X ~(2m-1, 0)~ fn^*(X) via structure maps, where fn is the even or odd
    block reindexing (fn(n) <= n <= fn(n + 2m - 1))."""
    s = 2 * m - 1
    f = _structure_morphism(x, x, rx, Grade([s]), lambda v: v, lambda v: fn(v + s))
    g = _structure_morphism(x, rx, x, Grade([0]), fn, lambda v: v)
    return InterleavingCert(f, g)


class ZigzagResult(NamedTuple):
    c: PersistentObject
    even_equal: bool   # e_m^*(C) == e_m^*(A) literally on the window
    odd_equal: bool    # o_m^*(C) == o_m^*(B)
    piece_a: InterleavingCert      # A ~ e_m^*(A)
    piece_mid: InterleavingCert    # e_m^*(C) ~ o_m^*(C)
    piece_b: InterleavingCert      # o_m^*(B) ~ B
    composite: InterleavingCert    # A ~ B
    total_shifts: tuple[Grade, Grade]


def zigzag(a: PersistentObject, b: PersistentObject, cert: InterleavingCert,
           m: int = 1) -> ZigzagResult:
    """Diagonal object of an m-interleaving (f, g): C alternates between the
    even blocks of A and the odd blocks of B, connected by structure maps and
    the interleaving legs."""
    if m < 1:
        raise InvalidScaleError("block size must be >= 1")
    _require_valid(cert)
    if cert.epsilon != Grade([m]) or cert.delta != Grade([m]):
        raise ValidationError("certificate shifts must equal the block size m")
    lo, hi = _window(a)
    if _window(b) != (lo, hi):
        raise ValidationError("objects must share the same window")

    f, g = cert.f, cert.g
    he, ho = _block_end(lo, hi, m, 0), _block_end(lo, hi, m, 1)
    hi_c = max(he, ho) + m

    # C(n) is A (block index n // m even) or B (odd) at the start of n's
    # block; inside a block C's maps are identities, and the step out of a
    # block is the f leg (even) or the g leg (odd) at the block start
    starts = [n // m * m for n in range(lo, hi_c + 1)]
    sides = [(z, leg, _positions(z.grid, starts), _positions(leg.grid, starts))
             for z, leg in ((a, f), (b, g))]
    side = [sides[s // m % 2] for s in starts]
    values = [z.at(at_z[s]) for s, (z, _, at_z, _) in zip(starts, side)]
    maps = [z.map_between(at_z[s], at_z[s]) if s == s2 else leg.at(at_leg[s])
            for s, s2, (z, leg, at_z, at_leg) in zip(starts, starts[1:], side)]
    c = _integer_of(a.category_name, values, maps, lo)

    even, odd = partial(even_reindex, m=m), partial(odd_reindex, m=m)
    ec, oc, piece_mid = _even_odd(c, m, lo, hi)
    ea = reindex(a, even, lo, he)
    ob = reindex(b, odd, lo, ho)
    even_equal = ec == ea
    odd_equal = oc == ob

    piece_a = _outer_cert(a, ea, even, m)

    # orient the b-piece as o_m^*(B) ~(0, 2m-1)~ B
    raw_b = _outer_cert(b, ob, odd, m)
    piece_b = InterleavingCert(raw_b.g, raw_b.f)

    composite = compose_interleavings(
        compose_interleavings(piece_a, piece_mid), piece_b
    )
    return ZigzagResult(
        c, even_equal, odd_equal, piece_a, piece_mid, piece_b, composite,
        (composite.epsilon, composite.delta),
    )


def three_halves_check(x: PersistentObject, y: PersistentObject,
                       r, cert: InterleavingCert) -> InterleavingCert:
    """From an r-interleaving of floor-extensions with 0 <= r < 3/2, extract
    a 1-interleaving of the underlying Z-indexed objects."""
    r = rat(r)
    if not 0 <= r < rat("3/2"):
        raise ValidationError(f"requires 0 <= r < 3/2, got {r}")
    _require_valid(cert)
    if cert.epsilon != Grade([r]) or cert.delta != Grade([r]):
        raise ValidationError("certificate shifts must equal r")
    if cert.f.source != extend_floor(x) or cert.f.target != extend_floor(y):
        raise ValidationError("certificate is not between the floor-extensions of x and y")
    # cert's legs at an integer n land at floor(n + r), which is <= n + 1
    # because r < 3/2; a structure map of the target carries them on to n + 1
    one = Grade([1])
    lands, up = (lambda n: floor_int(n + r)), (lambda n: n + 1)
    f = _structure_morphism(y, x, y, one, lands, up, first=cert.f)
    g = _structure_morphism(x, y, x, one, lands, up, first=cert.g)
    return InterleavingCert(f, g)
