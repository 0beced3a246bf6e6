#!/usr/bin/env python3
"""Settle the seeded pairs of ROADMAP "Search tails" with
``interleaving_distance_search`` under one budget.

F2Vec pairs: x = ``rand_f2vec_object(rng, lo=0, hi=w, max_dim=d)`` and its
``interleaved_pair`` partner at shift 1, with ``rng = random.Random(1000d +
10w + s)`` for (d, w) in (2, 3), (3, 3), (3, 4), (4, 3) and s = 0..9.
FinSet pairs: x = ``rand_finset_object(rng, lo=0, hi=5, max_size=5)``, with
its ``interleaved_pair`` partner for odd s and another such object for even
s, ``rng = random.Random(7550 + s)`` for s = 0..11.

One line per pair: its name, the distance (``budget`` when the search runs
out of it), and the first 12 hex digits of the sha256 of the certificate as
``encode_cert(cert, include_objects=False)`` gives it, as sorted JSON (``-``
when there is none). The last line, and only it, holds timings.

    PYTHONPATH=src python scripts/search_tails.py [BUDGET]

BUDGET defaults to ``search.DEFAULT_BUDGET``.
"""

import argparse
import hashlib
import json
import random
import statistics
import time

from perscert.errors import BudgetExceededError
from perscert.randgen import interleaved_pair, rand_f2vec_object, rand_finset_object
from perscert.search import DEFAULT_BUDGET, interleaving_distance_search
from perscert.serialize import encode_cert, encode_rational

F2VEC_SIZES = ((2, 3), (3, 3), (3, 4), (4, 3))  # (max_dim d, window w)
FINSET_SIZE, FINSET_WINDOW = 5, 5


def tail_pairs():
    """(name, x, y) for each seeded pair, F2Vec first."""
    for d, w in F2VEC_SIZES:
        for s in range(10):
            rng = random.Random(1000 * d + 10 * w + s)
            x = rand_f2vec_object(rng, lo=0, hi=w, max_dim=d)
            y, _ = interleaved_pair(rng, x, 1)
            yield f"F2Vec d{d} w{w} s{s}", x, y
    k, w = FINSET_SIZE, FINSET_WINDOW
    for s in range(12):
        rng = random.Random(7000 + 100 * k + 10 * w + s)
        x = rand_finset_object(rng, lo=0, hi=w, max_size=k)
        y = (interleaved_pair(rng, x, 1)[0] if s % 2
             else rand_finset_object(rng, lo=0, hi=w, max_size=k))
        yield f"FinSet k{k} w{w} s{s}", x, y


def cert_digest(cert) -> str:
    if cert is None:
        return "-"
    text = json.dumps(encode_cert(cert, include_objects=False), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("budget", type=int, nargs="?", default=DEFAULT_BUDGET,
                        help=f"candidate components one search may visit (default {DEFAULT_BUDGET})")
    budget = parser.parse_args().budget
    times, exhausted = [], 0
    for name, x, y in tail_pairs():
        start = time.perf_counter()
        try:
            result = interleaving_distance_search(x, y, budget=budget)
            line = f"{name}  {encode_rational(result.distance)}  {cert_digest(result.certificate)}"
        except BudgetExceededError:
            exhausted += 1
            line = f"{name}  budget  -"
        times.append(time.perf_counter() - start)
        print(line, flush=True)
    print(f"timing: {len(times)} pairs at budget {budget}, {exhausted} out of budget; "
          f"total {sum(times):.2f} s, median {1000 * statistics.median(times):.1f} ms, "
          f"max {1000 * max(times):.1f} ms")


if __name__ == "__main__":
    main()
