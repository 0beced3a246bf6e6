"""The exhaustive searches behind interleaving certificates, in one
enumeration order under one budget: the partner g of a given leg f
(``find_partner``) and the least candidate delta with a certificate, above
the bottleneck floor (``interleaving_distance_search``)."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .distances import INFINITY, bottleneck
from .errors import BudgetExceededError, CategoryError, DimensionError, ValidationError
from .grades import Grade
from . import persist
from .invariants import barcode, linearize, pi0_induced
from .persist import DeltaMorphism, InterleavingCert, PersistentObject, _Leg, _check, _triangles

DEFAULT_BUDGET = 200_000  # candidate components one search may visit
_DONE = object()  # what next() gives for an exhausted candidate generator


# -- partner search -----------------------------------------------------------


class _Budget:
    """A limit on the candidate components one search may visit; a negative
    limit is refused before the search starts."""

    def __init__(self, limit: int):
        if limit < 0:
            raise ValidationError(f"search budget must be >= 0, got {limit}")
        self.limit = limit
        self.used = 0

    def spend(self):
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceededError(f"search budget of {self.limit} exhausted")


def _enumerate_natural(leg: _Leg, budget: _Budget, equations: Optional[dict] = None):
    """Yield the components, by merged index, of every natural delta-morphism
    along leg that meets equations: one walk of its merged grid in index
    order on a stack of candidate generators, one per point. equations maps
    each merged index to (pre, post), lists of pairs (a, b) that a candidate
    c at that index must meet as c . a = b and as a . c = b. Each candidate
    is checked first for naturality, c . a = b along every unit step into
    its point (a the source's step, b the target's step after the component
    chosen earlier), then against pre, then against post."""
    x, y, at_x, at_y = leg.source, leg.target, leg.at_source, leg.at_target
    points, x_steps, y_steps = leg.points, leg.source_steps, leg.target_steps
    cat, chosen = x.category, {}

    def candidates(p):
        steps = [(p[:a] + (c - 1,) + p[a + 1:], a) for a, c in enumerate(p) if c]
        pre, post = ([], []) if equations is None else equations[p]
        pre = [(x_steps[s], cat.compose(y_steps[s], chosen[s[0]])) for s in steps] + pre
        for cand in cat.enumerate_maps(x.at(at_x[p]), y.at(at_y[p])):
            budget.spend()
            for a, b in pre:
                if cat.compose(cand, a) != b:
                    break
            else:
                for a, b in post:
                    if cat.compose(a, cand) != b:
                        break
                else:
                    yield cand

    stack = [candidates(points[0])]
    while stack:
        cand = next(stack[-1], _DONE)
        if cand is _DONE:
            stack.pop()
            continue
        chosen[points[len(stack) - 1]] = cand
        if len(stack) == len(points):
            yield dict(chosen)
        else:
            stack.append(candidates(points[len(stack)]))


def _partner(f: DeltaMorphism, g_leg: _Leg, triangles: list, budget: _Budget
             ) -> Optional[InterleavingCert]:
    """The first natural g on g_leg, in enumeration order, making (f, g) an
    interleaving, for a natural f. Each row of triangles, the ``_triangles``
    table of f's leg and g_leg, is filed under its g index as an equation on
    g's component there: X's triangle as pre, Y's as post. A row below g's
    grid (g index None) compares two maps out of the initial object,
    whatever f is: p + eps below g's grid puts p + eps + delta below X's
    grid, and p below it makes Y(p) initial; it is dropped. A g that
    survives the walk is re-checked by ``persist._check`` on the same
    table."""
    equations = {j: ([], []) for j in g_leg.points}
    for side, _, _, fi, gj, direct in triangles:
        if gj is not None:
            equations[gj][side].append((f.at(fi), direct))
    for g_components in _enumerate_natural(g_leg, budget, equations):
        g = DeltaMorphism._on(g_leg, g_components)
        if _check(f, g, triangles).valid:
            return InterleavingCert(f, g)
    return None


def find_partner(f: DeltaMorphism, delta: Grade, budget: int = DEFAULT_BUDGET
                 ) -> Optional[InterleavingCert]:
    """Exhaustively search a partner g making (f, g) a valid
    (f.shift, delta)-interleaving, at any m; None before any g is tried
    when f is not natural."""
    limit, g_leg = _Budget(budget), _Leg(f.target, f.source, delta)
    if not f.is_natural():
        return None
    return _partner(f, g_leg, list(_triangles(f._leg, g_leg)), limit)


def induces_interleaving_in_pi0(f: DeltaMorphism, delta: Grade,
                                budget: int = DEFAULT_BUDGET
                                ) -> tuple[bool, Optional[InterleavingCert]]:
    """Whether pi0(f), with its own shift as epsilon, is one leg of an
    (epsilon, delta)-interleaving of persistent sets; found by exhausting
    partner maps."""
    cert = find_partner(pi0_induced(f), delta, budget=budget)
    return (cert is not None), cert


# -- interleaving-distance search ---------------------------------------------


def _search_at_delta(x: PersistentObject, y: PersistentObject, delta: Grade,
                     budget: _Budget) -> Optional[InterleavingCert]:
    f_leg, g_leg, triangles = _Leg(x, y, delta), None, None
    for f_components in _enumerate_natural(f_leg, budget):
        if triangles is None:  # once a natural f needs a partner, not before
            g_leg = _Leg(y, x, delta)
            triangles = list(_triangles(f_leg, g_leg))
        cert = _partner(DeltaMorphism._on(f_leg, f_components), g_leg, triangles, budget)
        if cert is not None:
            return cert
    return None


# the widest span of the scaled critical grades, per grade, whose
# differences are found as bits: n shifts of a span-wide integer cost less
# than the n(n+1)/2 pairs up to about this ratio
_SPAN_PER_GRADE = 64


def interleaving_candidates(x: PersistentObject, y: PersistentObject) -> list[Fraction]:
    """D = {0} union {b - a, (b - a)/2 : a <= b critical grades}, sorted. The
    critical grades are scaled to integers over one common denominator d, so
    every candidate is a whole number of 1/(2d) steps. With bit v - lo of B
    set for each scaled grade v (lo the least), the differences b - a >= 0
    are the set bits of the OR over grades a of B >> (a - lo); a span wider
    than _SPAN_PER_GRADE per grade (a rational axis) takes the pairs."""
    d, ints = x.grid.merge(y.grid)._scaled[0]
    lo = ints[0]
    if ints[-1] - lo <= _SPAN_PER_GRADE * len(ints):
        grades = sum(1 << (v - lo) for v in ints)
        bits = 0
        for a in ints:
            bits |= grades >> (a - lo)
        diffs = {k for k, bit in enumerate(bin(bits)[:1:-1]) if bit == "1"}
    else:
        diffs = {b - a for i, a in enumerate(ints) for b in ints[i:]}
    steps = diffs | {2 * k for k in diffs}
    return [Fraction(k, 2 * d) for k in sorted(steps)]


class SearchResult(NamedTuple):
    distance: Optional[Fraction]  # None means +infinity
    certificate: Optional[InterleavingCert]
    candidates: list
    reason: str = ""


def interleaving_distance_search(x: PersistentObject, y: PersistentObject,
                                 budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Least candidate delta admitting a valid delta-interleaving, found by
    exhaustive enumeration of component maps (m = 1, FinSet or F2Vec).

    No candidate below d_B(F2 X, F2 Y), the bottleneck distance between the
    barcodes of the two linearizations, is searched. Linearization sends a
    delta-interleaving of persistent sets to one of persistence modules (on
    modules it is the identity), and by algebraic stability (Chazal et al.,
    Proximity of Persistence Modules and Their Diagrams, 2009; Bauer &
    Lesnick, Induced Matchings and the Algebraic Stability of Persistence
    Barcodes, 2015) delta-interleaved modules have barcodes within d_B <=
    delta. So every skipped candidate is provably refuted, and when d_B is
    infinite the answer is infinite without a search.

    For each natural f, candidates for g are pruned inside the walk by
    equations on one component c at a time: its naturality squares and,
    given f, X's triangle as c . a = b and Y's as a . c = b, each row of
    the triangle table filed under g's index. The budget counts every
    candidate component visited, for f and g alike, so pruned branches cost
    nothing further. A g that survives is re-checked, by the checker of
    ``check_interleaving`` on the triangle table it was pruned with, before
    its certificate is returned.

    The candidate set is complete, so the answer is the interleaving
    distance itself, attained at a candidate. Whether a delta-interleaving
    exists is constant on each gap [c_i, c_{i+1}) between consecutive
    candidates, and on [c_last, inf):

    - Evaluation is constant on the half-open steps [g_k, g_{k+1}) between
      critical grades. A leg's merged grid changes order type only when
      delta crosses a difference b - a of critical grades, and the grids of
      the triangle identities (shift 2 delta) only when delta crosses a half
      difference (b - a)/2. Both are candidates, so the order type is the
      same throughout the inside of a gap.
    - The steps are closed on the left, so an interleaving (f, g) at delta
      inside the gap gives one at its left end c. Take f at r from the least
      r' with r' in the step of r, r' + delta in the step of r + c and
      r' + 2 delta in the step of r + 2c (and g likewise). Such r' exists
      because no difference or half difference lies in (c, delta], and it
      grows with r, so naturality and both triangles carry over.
    - Interleavability is up-closed in delta: composing both legs with
      structure maps turns a delta-interleaving into a delta'-interleaving
      for every delta' >= delta (Bubenik & Scott, Categorification of
      Persistent Homology, 2014).

    ``tests/test_distances.py`` checks constancy on the gaps and
    monotonicity on seeded FinSet and F2Vec pairs.
    """
    if x.m != 1 or y.m != 1:
        raise DimensionError("distance search supports m = 1 only")
    if x.category_name not in ("FinSet", "F2Vec"):
        raise CategoryError("distance search supports FinSet and F2Vec only")
    if x.category_name != y.category_name:
        raise CategoryError("source and target live in different categories")
    floor, _ = bottleneck(barcode(linearize(x)), barcode(linearize(y)))
    return _least_certified(x, y, floor, budget)


def _least_certified(x: PersistentObject, y: PersistentObject,
                     floor: Optional[Fraction], budget: int) -> SearchResult:
    """The least candidate delta >= floor with a certificate, searching the
    candidates in increasing order; a floor of INFINITY admits none."""
    candidates = interleaving_candidates(x, y)
    shared = _Budget(budget)
    if floor is not INFINITY:
        for delta in candidates:
            if delta < floor:
                continue
            try:
                cert = _search_at_delta(x, y, Grade([delta]), shared)
            except BudgetExceededError:
                raise BudgetExceededError(
                    f"search budget of {budget} exhausted before settling all candidates"
                ) from None
            if cert is not None:
                return SearchResult(delta, cert, candidates, "least valid candidate")
    return SearchResult(None, None, candidates, "no candidate delta admits a certificate")


class CrosscheckReport(NamedTuple):
    holds: bool
    bottleneck_distance: Optional[Fraction]
    certified_delta: Optional[Fraction]
    certificate: Optional[InterleavingCert] = None


def module_distance_crosscheck(f, g, budget: int = DEFAULT_BUDGET) -> CrosscheckReport:
    """d_B of the barcodes against the least certified interleaving delta of
    two persistent modules; stability demands d_B <= delta. The search starts
    from 0, not from d_B, so the two sides are computed independently."""
    d, _ = bottleneck(barcode(f), barcode(g))
    result = _least_certified(f, g, Fraction(0), budget)
    if result.distance is None:
        holds = True  # d_B <= infinity always
    elif d is INFINITY:
        holds = False
    else:
        holds = d <= result.distance
    return CrosscheckReport(holds, d, result.distance, result.certificate)


# Kept reachable on persist, where perfbench/tracer.py looks them up.
persist._Budget, persist._search_at_delta = _Budget, _search_at_delta
