#!/usr/bin/env python3
"""Time ``barcode`` and ``bottleneck`` as their inputs grow.

For each size n, ``barcode`` runs on a seeded persistence module with n
grades and random GF(2) structure maps (so zero maps and zero-dimensional
spaces occur), and ``bottleneck`` on two seeded barcodes of n bars each, two
of them infinite. Each line gives a deterministic checksum (the number of
bars, the distance d_B) and the best time over repeated runs, so the same
command run on two versions of the code gives their before and after
numbers. The inputs are seeded from SEED and n, so the checksums are fixed.

    PYTHONPATH=src python scripts/persistence_scaling.py
"""

import random
import time
from fractions import Fraction

from perscert import Bar, Barcode, barcode, bottleneck
from perscert.grades import rat_to_str
from perscert.randgen import rand_f2vec_object

SIZES = (8, 16, 32, 64, 128)
SEED = 1


def best_ms(fn, budget_s: float = 0.5, max_runs: int = 50) -> float:
    """The least wall time of fn() in ms, over runs repeated until budget_s
    has passed (at least one run)."""
    best, spent, runs = float("inf"), 0.0, 0
    while runs < max_runs and (runs == 0 or spent < budget_s):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        best, spent, runs = min(best, elapsed), spent + elapsed, runs + 1
    return best * 1000


def seeded_bars(rng: random.Random, n: int) -> Barcode:
    """n bars born in [0, n/2], two of them infinite and born in [0, 2]."""
    bars = [Bar(Fraction(rng.randint(0, 4), 2), None) for _ in range(2)]
    for _ in range(n - 2):
        birth = Fraction(rng.randint(0, n), 2)
        bars.append(Bar(birth, birth + Fraction(rng.randint(1, 8), 2)))
    return Barcode(bars)


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


if __name__ == "__main__":
    main()
