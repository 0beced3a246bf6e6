"""Exact bottleneck distance between barcodes, and the stability audit tying
barcodes to interleaving certificates.

Every candidate optimum lies in the finite set of pairwise endpoint
differences and half-lengths, so a bisection over those thresholds is exact;
no floating point is involved anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import BudgetExceededError
from .invariants import Barcode, barcode, homology_cert
from .persist import InterleavingCert, _require_valid, check_interleaving


INFINITY = None  # sentinel for infinite distances / deaths

# the most bars two barcodes may hold together: each matching test runs
# Kuhn's search on a dense graph over their bars, in time cubic in that count
MAX_BARS = 400


class Matching(NamedTuple):
    """A partial bijection between two barcodes; unmatched bars are deleted
    to the diagonal at half their length."""

    pairs: list[tuple[int, int]]
    deleted_left: list[int]
    deleted_right: list[int]


def _cost(birth1, death1, birth2, death2):
    """L-infinity distance of two bars' endpoints, exact numbers of any one
    type (None is an infinite death); infinite-death bars only match each
    other, at the birth difference."""
    if (death1 is None) != (death2 is None):
        return INFINITY
    if death1 is None:
        return abs(birth1 - birth2)
    return max(abs(birth1 - birth2), abs(death1 - death2))


def _max_bipartite_matching(n_left: int, n_right: int, adj: list[list[int]]) -> list[int]:
    """Augmenting-path matching, each left node in turn trying its adjacency
    in order (Kuhn's depth-first search, with an explicit stack so that a
    path may be longer than the interpreter's recursion limit); returns
    match_left (-1 when free)."""
    match_right = [-1] * n_right
    match_left = [-1] * n_left
    for root in range(n_left):
        seen = [False] * n_right
        # the path so far: each left node on it with an iterator over the
        # rest of its adjacency, and the right nodes joining them
        stack, joins = [(root, iter(adj[root]))], []
        while stack:
            for v in stack[-1][1]:
                if not seen[v]:
                    seen[v] = True
                    break
            else:  # no augmenting path through this left node
                stack.pop()
                if joins:
                    joins.pop()
                continue
            joins.append(v)
            u = match_right[v]
            if u == -1:  # v is free: flip the path
                for (u, _), w in zip(stack, joins):
                    match_right[w] = u
                    match_left[u] = w
                break
            stack.append((u, iter(adj[u])))
    return match_left


def _feasible(cost: list[list[int]], half1: list[int], half2: list[int],
              k: int) -> Optional[Matching]:
    """Perfect matching test at the k-th threshold, with one diagonal slot
    per bar. ``cost`` holds the pair costs and ``half1``/``half2`` the
    half-lengths as threshold indices, an infinite one past the last."""
    n1, n2 = len(half1), len(half2)
    # left nodes: bars of b1, then n2 diagonal slots (one per right bar);
    # right nodes: bars of b2, then n1 diagonal slots. Diagonal-to-diagonal
    # is always allowed at zero cost.
    diagonal = range(n2, n2 + n1)
    adj: list[list[int]] = []
    for i, row_cost in enumerate(cost):
        row = [j for j, c in enumerate(row_cost) if c <= k]
        if half1[i] <= k:
            row.extend(diagonal)
        adj.append(row)
    for j, h in enumerate(half2):
        row = [j] if h <= k else []
        row.extend(diagonal)
        adj.append(row)

    match_left = _max_bipartite_matching(n1 + n2, n2 + n1, adj)
    if any(v == -1 for v in match_left):
        return None
    pairs = [(i, match_left[i]) for i in range(n1) if match_left[i] < n2]
    deleted_left = [i for i in range(n1) if match_left[i] >= n2]
    matched_right = {j for _, j in pairs}
    deleted_right = [j for j in range(n2) if j not in matched_right]
    return Matching(pairs, deleted_left, deleted_right)


def bottleneck(b1: Barcode, b2: Barcode) -> tuple[Optional[Fraction], Optional[Matching]]:
    """Exact bottleneck distance with an optimal matching; None means
    infinity (mismatched counts of infinite bars).

    The answer is the least threshold, among 0, the finite pair costs and the
    half-lengths, at which a perfect matching exists. Feasibility is
    monotone in the threshold and holds at the largest one, so the sorted
    thresholds are bisected; the matching is the one found at the answer.
    Barcodes of more than MAX_BARS bars together are refused before any
    cost is computed, once their counts of infinite bars agree."""
    inf1 = sum(1 for b in b1.bars if b.death is None)
    inf2 = sum(1 for b in b2.bars if b.death is None)
    if inf1 != inf2:
        return INFINITY, None
    count = len(b1.bars) + len(b2.bars)
    if count > MAX_BARS:
        raise BudgetExceededError(
            f"the two barcodes hold {count} bars, more than the limit of {MAX_BARS}")
    # endpoints as integers over twice their least common denominator, so
    # that every cost and half-length is an integer too
    scale = 2 * math.lcm(*(v.denominator for bar in b1.bars + b2.bars
                           for v in (bar.birth, bar.death) if v is not None))

    def scaled(v):
        return None if v is None else v.numerator * (scale // v.denominator)

    ends1 = [(scaled(bar.birth), scaled(bar.death)) for bar in b1.bars]
    ends2 = [(scaled(bar.birth), scaled(bar.death)) for bar in b2.bars]
    costs = [[_cost(*e1, *e2) for e2 in ends2] for e1 in ends1]
    half1 = [None if death is None else (death - birth) // 2 for birth, death in ends1]
    half2 = [None if death is None else (death - birth) // 2 for birth, death in ends2]
    thresholds = sorted({0, *(c for row in costs for c in row if c is not INFINITY),
                         *(h for h in half1 + half2 if h is not None)})
    # each value as its position in thresholds, an infinite one past the end
    index = {t: k for k, t in enumerate(thresholds)}
    index[INFINITY] = len(thresholds)
    cost = [[index[c] for c in row] for row in costs]
    half1 = [index[h] for h in half1]
    half2 = [index[h] for h in half2]

    lo, hi, matching = 0, len(thresholds) - 1, None
    while lo < hi:
        mid = (lo + hi) // 2
        found = _feasible(cost, half1, half2, mid)
        if found is None:
            lo = mid + 1
        else:
            hi, matching = mid, found
    if matching is None:  # hi was never tested
        matching = _feasible(cost, half1, half2, hi)
    return Fraction(thresholds[hi], scale), matching


# -- stability cross-checks ---------------------------------------------------


class StabilityReport(NamedTuple):
    holds: bool
    bound: Optional[Fraction]      # the interleaving bound (max of the shifts)
    distance: Optional[Fraction]   # d_B of the degree-n barcodes
    barcode_x: Barcode = None
    barcode_y: Barcode = None
    matching: Optional[Matching] = None
    module_cert_valid: bool = False


def stability_audit(cert: InterleavingCert, n: int) -> StabilityReport:
    """Push a complex-level interleaving through degree-n homology and check
    the algebraic stability inequality d_B <= delta on the barcodes."""
    _require_valid(cert)
    mod_cert = homology_cert(cert, n)
    mod_report = check_interleaving(mod_cert)
    bx = barcode(mod_cert.f.source)
    by = barcode(mod_cert.f.target)
    d, matching = bottleneck(bx, by)
    bound = max(cert.epsilon.coords[0], cert.delta.coords[0])
    holds = mod_report.valid and d is not INFINITY and d <= bound
    return StabilityReport(holds, bound, d, bx, by, matching, mod_report.valid)
