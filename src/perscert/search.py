"""The exhaustive searches behind interleaving certificates, in one
enumeration order under one budget: the partner g of a given leg f
(``find_partner``) and the least candidate delta with a certificate, above
the bottleneck floor (``interleaving_distance_search``)."""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .distances import INFINITY, bottleneck
from .errors import BudgetExceededError, CategoryError, DimensionError, ValidationError
from .grades import Grade
from . import persist
from .invariants import barcode, linearize, pi0_induced
from .persist import (DeltaMorphism, InterleavingCert, PersistentObject, _Leg, _triangles,
                      check_interleaving)

DEFAULT_BUDGET = 200_000  # candidate components one search may visit


# -- partner search -----------------------------------------------------------


class _Budget:
    """A limit on the candidate components one search may visit; a negative
    limit is refused before the search starts."""

    def __init__(self, limit: int):
        if limit < 0:
            raise ValidationError(f"search budget must be >= 0, got {limit}")
        self.limit = limit
        self.used = 0

    def spend(self, amount: int = 1):
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceededError(f"search budget of {self.limit} exhausted")


class _Frame:
    """The geometry of an (eps, delta) partner search, built once around the
    leg f: x ->_eps y that every f searched shares: g's leg y ->_delta x and
    the table of the two triangle identities that ``check_interleaving``
    reads (``persist._triangles``). Given f, the triangles constrain g one
    merged-grid component at a time (``triangle_filter``). g's leg and the
    table are built when the first f looks for a partner, so a candidate
    delta that admits no natural f never builds them; the table is kept on
    f's leg, where ``check_interleaving`` finds it."""

    def __init__(self, f: _Leg, delta: Grade):
        self.f, self.delta = f, delta

    @functools.cached_property
    def g(self) -> _Leg:
        return _Leg(self.f.target, self.f.source, self.delta)

    @functools.cached_property
    def triangles(self) -> list:
        table = self.f.triangle_tables[self.g] = list(_triangles(self.f, self.g))
        return table

    def triangle_filter(self, f: DeltaMorphism) -> Optional[Callable[[tuple, object], bool]]:
        """accept(j, cand): whether cand, as g's component at merged index j,
        meets every triangle identity at the points whose g component is
        the one at j, given f. The points below g's grid involve f alone and
        are checked here, once; None when one of them fails, so no g will
        do."""
        cat = f.category
        below = cat.initial_map(cat.initial())
        before = {j: [] for j in self.g.points}  # (a, b) with g . a = b
        after = {j: [] for j in self.g.points}   # (a, b) with a . g = b
        for side, _, _, fi, gj, direct in self.triangles:
            fm = f.at(fi)
            if gj is not None:
                (before, after)[side][gj].append((fm, direct))
            elif (cat.compose(below, fm) if side == 0 else cat.compose(fm, below)) != direct:
                return None

        def accept(j, cand) -> bool:
            return (all(cat.compose(cand, a) == b for a, b in before[j])
                    and all(cat.compose(a, cand) == b for a, b in after[j]))

        return accept


def _enumerate_natural(leg: _Leg, budget: _Budget,
                       accept: Optional[Callable[[tuple, object], bool]] = None):
    """Yield the components, by merged index, of every natural delta-morphism
    along leg by backtracking over its merged grid (m = 1), pruning with the
    edge naturality condition and then with accept(index, candidate)."""
    x, y, at_x, at_y = leg.source, leg.target, leg.at_source, leg.at_target
    points, x_steps, y_steps = leg.points, leg.source_steps, leg.target_steps
    cat = x.category

    def backtrack(i: int, chosen: dict):
        if i == len(points):
            yield dict(chosen)
            return
        p = points[i]
        if i > 0:
            step = (points[i - 1], 0)
            upper = cat.compose(y_steps[step], chosen[points[i - 1]])
        for cand in cat.enumerate_maps(x.at(at_x[p]), y.at(at_y[p])):
            budget.spend()
            if i > 0 and upper != cat.compose(cand, x_steps[step]):
                continue
            if accept is not None and not accept(p, cand):
                continue
            chosen[p] = cand
            yield from backtrack(i + 1, chosen)
            del chosen[p]

    yield from backtrack(0, {})


def _partner(f: DeltaMorphism, frame: _Frame, budget: _Budget
             ) -> Optional[InterleavingCert]:
    """The first natural g, in enumeration order, making (f, g) an
    interleaving: candidates the triangles rule out are dropped inside the
    backtracking, and a g that survives is re-checked by check_interleaving."""
    accept = frame.triangle_filter(f)
    if accept is None:
        return None
    for g_components in _enumerate_natural(frame.g, budget, accept):
        cert = InterleavingCert(f, DeltaMorphism._on(frame.g, g_components))
        if check_interleaving(cert).valid:
            return cert
    return None


def find_partner(f: DeltaMorphism, delta: Grade, budget: int = DEFAULT_BUDGET
                 ) -> Optional[InterleavingCert]:
    """Exhaustively search a partner g making (f, g) a valid
    (f.shift, delta)-interleaving. m = 1 only."""
    if f.source.m != 1:
        raise DimensionError("partner search supports m = 1 only")
    return _partner(f, _Frame(f._leg, delta), _Budget(budget))


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
    frame = _Frame(_Leg(x, y, delta), delta)
    for f_components in _enumerate_natural(frame.f, budget):
        cert = _partner(DeltaMorphism._on(frame.f, f_components), frame, budget)
        if cert is not None:
            return cert
    return None


def interleaving_candidates(x: PersistentObject, y: PersistentObject) -> list[Fraction]:
    """D = {0} union {b - a, (b - a)/2 : a <= b critical grades}, sorted. The
    critical grades are scaled to integers over one common denominator d, so
    every candidate is a whole number of 1/(2d) steps."""
    d, ints = x.grid.merge(y.grid)._scaled[0]
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

    For each natural f, candidates for g are pruned inside the backtracking
    by naturality and by the two triangle identities, which given f
    constrain g one component at a time. The budget counts every candidate
    component visited, for f and g alike, so pruned branches cost nothing
    further. A g that survives is re-checked by ``check_interleaving``
    before its certificate is returned.

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
