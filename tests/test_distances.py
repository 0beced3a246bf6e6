"""Exact bottleneck distance against the brute-force and threshold-scan
oracles, and the stability cross-checks."""

import random
import re
import sys
from fractions import Fraction

import pytest

from perscert import (
    Bar,
    Barcode,
    BudgetExceededError,
    Grade,
    ValidationError,
    bottleneck,
    grade,
    module_distance_crosscheck,
    self_interleaving,
    stability_audit,
)
from perscert import distances
from perscert.distances import MAX_BARS, _max_bipartite_matching
from perscert.gf2 import GF2Matrix
from perscert.persist import Grid, PersistentObject, check_interleaving
from perscert.search import (_Budget, _least_certified, _search_at_delta,
                             interleaving_candidates)
from perscert.invariants import barcode
from perscert.randgen import (
    interleaved_pair,
    rand_barcode,
    rand_complex_interleaving,
    rand_f2vec_object,
    rand_persistent_complex,
    rand_real_object,
)

from oracles import (
    bottleneck_bruteforce,
    bottleneck_by_scan,
    matching_by_recursion,
    matching_cost,
)


def interval_module(birth, death, axis):
    """GF(2) interval module [birth, death) on the given integer axis."""
    dims = [1 if birth <= v and (death is None or v < death) else 0 for v in axis]
    maps = [
        GF2Matrix([[1]], 1, 1) if a and b else GF2Matrix.zeros(b, a)
        for a, b in zip(dims, dims[1:])
    ]
    return PersistentObject(
        Grid([list(axis)]), "F2Vec",
        {(i,): d for i, d in enumerate(dims)},
        {((i,), 0): f for i, f in enumerate(maps)},
    )


def test_bottleneck_worked_examples():
    assert bottleneck(Barcode([Bar(0, 2)]), Barcode([]))[0] == 1
    assert bottleneck(Barcode([Bar(0, 2)]), Barcode([Bar(0, 3)]))[0] == 1
    assert bottleneck(Barcode([Bar(0, 2)]), Barcode([Bar(0, 2)]))[0] == 0


def test_bottleneck_infinite_bars_match_only_each_other():
    assert bottleneck(Barcode([Bar(0, None)]), Barcode([]))[0] is None
    d, _ = bottleneck(Barcode([Bar(0, None)]), Barcode([Bar(3, None)]))
    assert d == 3


def test_bottleneck_agrees_with_bruteforce():
    for seed in range(40):
        rng = random.Random(seed)
        b1, b2 = rand_barcode(rng), rand_barcode(rng)
        d, matching = bottleneck(b1, b2)
        assert d == bottleneck_bruteforce(b1, b2)
        if matching is not None:
            assert matching_cost(matching, b1, b2) == d


def test_bottleneck_matching_is_the_threshold_scan_one():
    # the least feasible threshold and the matching found there, pair for pair
    cases = [(Barcode([]), Barcode([])), (Barcode([Bar(0, None)]), Barcode([Bar(1, None)])),
             (Barcode([Bar(0, None)]), Barcode([]))]
    for seed in range(300):
        rng = random.Random(seed)
        a = rand_barcode(rng, max_bars=rng.choice((2, 5, 9)))
        b = a if seed % 10 == 0 else rand_barcode(rng, max_bars=rng.choice((2, 5, 9)))
        cases.append((a, b))
    for a, b in cases:
        d, matching = bottleneck(a, b)
        d_scan, matching_scan = bottleneck_by_scan(a, b)
        assert d == d_scan and matching == matching_scan
    assert any(not a.bars and not b.bars for a, b in cases)
    assert any(a is b and a.bars for a, b in cases)
    assert any(d is None for d in (bottleneck(a, b)[0] for a, b in cases))
    assert any(any(bar.death is None for bar in a.bars) and bottleneck(a, b)[0] is not None
               for a, b in cases)


def test_matching_is_the_recursive_search_one():
    """Where the recursive search matches every left node, the matching is
    its matching; where it leaves one free, no matching covers every left
    node and the search reports None."""
    for seed in range(200):
        rng = random.Random(seed)
        n_left, n_right = rng.randint(0, 12), rng.randint(0, 12)
        neighbours = [sorted(rng.sample(range(n_right), rng.randint(0, n_right)))
                      for _ in range(n_left)]
        oracle = matching_by_recursion(n_left, n_right, neighbours)
        expected = None if -1 in oracle else oracle
        adj = [sum(1 << v for v in vs) for vs in neighbours]
        assert _max_bipartite_matching(n_left, adj) == expected


def test_matching_follows_augmenting_paths_past_the_recursion_limit():
    # left i < n takes right i; left n then needs the path that shifts every
    # left i to right i + 1, one step per left node
    n = 3 * sys.getrecursionlimit()
    adj = [1 << i | 1 << i + 1 for i in range(n)] + [1]
    assert _max_bipartite_matching(n + 1, adj) == list(range(1, n + 1)) + [0]


def test_bottleneck_bounds_its_bars_before_building_costs(monkeypatch):
    """Two barcodes of MAX_BARS bars together are matched; one bar more is
    refused before any pair cost is computed, naming the count and the
    limit. Unequal counts of infinite bars answer infinity at any size."""
    half = MAX_BARS // 2
    left = Barcode([Bar(0, 2)] * half)
    assert bottleneck(left, Barcode([Bar(1, 3)] * (MAX_BARS - half)))[0] == 1
    wider = Barcode([Bar(1, 3)] * (MAX_BARS - half + 1))
    monkeypatch.setattr(distances, "_cost", None)  # a cost matrix would call it
    message = f"the two barcodes hold {MAX_BARS + 1} bars, more than the limit of {MAX_BARS}"
    with pytest.raises(BudgetExceededError, match=re.escape(message)):
        bottleneck(left, wider)
    assert bottleneck(Barcode([Bar(0, None)] * (MAX_BARS + 1)), Barcode([])) == (None, None)


def test_bottleneck_is_a_pseudometric():
    def dist(a, b):
        return bottleneck(a, b)[0]

    for seed in range(15):
        rng = random.Random(seed)
        a, b, c = (rand_barcode(rng) for _ in range(3))
        assert dist(a, a) == 0
        assert dist(a, b) == dist(b, a)
        ab, bc, ac = dist(a, b), dist(b, c), dist(a, c)
        if ab is not None and bc is not None:
            assert ac is not None and ac <= ab + bc


def test_stability_audit_identity_certificate():
    x = rand_persistent_complex(random.Random(0))
    rep = stability_audit(self_interleaving(x, grade(0)), 0)
    assert rep.holds and rep.bound == 0 and rep.distance == 0


def test_stability_audit_on_random_interleavings():
    for seed in range(8):
        x, y, cert = rand_complex_interleaving(random.Random(seed))
        for n in (0, 1):
            rep = stability_audit(cert, n)
            assert rep.module_cert_valid
            assert rep.holds
            assert rep.distance <= rep.bound


def test_stability_audit_rejects_invalid_certificates():
    x = rand_persistent_complex(random.Random(1))
    cert = self_interleaving(x, grade(1))
    cert.g.components[next(iter(cert.g.components))] = {}
    if not check_interleaving(cert).valid:
        with pytest.raises(ValidationError):
            stability_audit(cert, 0)


def test_module_crosscheck_interval_examples():
    axis = list(range(0, 5))
    f = interval_module(0, 2, axis)
    g = interval_module(0, 3, axis)
    rep = module_distance_crosscheck(f, g)
    assert rep.holds
    assert rep.bottleneck_distance == 1
    assert rep.certified_delta == 1
    assert check_interleaving(rep.certificate).valid


def test_module_crosscheck_against_the_zero_module():
    axis = list(range(0, 4))
    f = interval_module(0, 2, axis)
    zero = interval_module(10, 11, axis)  # identically zero on this axis
    rep = module_distance_crosscheck(f, zero)
    assert rep.holds
    assert rep.bottleneck_distance == 1
    assert rep.certified_delta == 1


def test_module_crosscheck_identical_modules():
    f = interval_module(1, 3, list(range(0, 4)))
    rep = module_distance_crosscheck(f, f)
    assert rep.holds and rep.bottleneck_distance == 0 and rep.certified_delta == 0


def test_least_certified_delta_of_modules_is_their_bottleneck_distance():
    # the isometry theorem, on the module pairs of criterion 11, with the
    # search started from 0 rather than from d_B
    for seed in range(50):
        rng = random.Random(seed)
        f = rand_f2vec_object(rng, lo=0, hi=2, max_dim=2)
        if seed % 2 == 0:
            g, _ = interleaved_pair(rng, f, 1)
        else:
            g = rand_f2vec_object(rng, lo=0, hi=2, max_dim=2)
        d, _ = bottleneck(barcode(f), barcode(g))
        assert _least_certified(f, g, Fraction(0), 2_000_000).distance == d


def test_verdicts_are_constant_on_each_gap_between_candidates_and_monotone():
    # the completeness argument of interleaving_distance_search: at a seeded
    # point inside each gap [c_i, c_{i+1}) and above the last candidate, the
    # search agrees with the gap's left candidate, and the verdicts at the
    # candidates never go from True back to False
    for seed in range(30):
        rng = random.Random(seed)
        category = ("FinSet", "F2Vec")[seed % 2]
        x = rand_real_object(rng, category, n_grades=3, max_size=2)
        y = rand_real_object(rng, category, n_grades=3, max_size=2)

        def interleaved(delta) -> bool:
            return _search_at_delta(x, y, Grade([delta]), _Budget(1_000_000)) is not None

        candidates = interleaving_candidates(x, y)
        verdicts = [interleaved(c) for c in candidates]
        for c, end, verdict in zip(candidates, candidates[1:] + [candidates[-1] + 2], verdicts):
            inside = c + (end - c) * Fraction(rng.randint(1, 99), 100)
            assert interleaved(inside) == verdict, (seed, c, inside)
        assert verdicts == sorted(verdicts), seed
