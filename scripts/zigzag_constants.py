#!/usr/bin/env python3
"""Measure the zig-zag rectification constants per block size.

For each m, run the construction over seeded random m-interleavings of
Z-indexed FinSet objects and record the composite shifts it certifies, the
per-piece shifts, and whether a smaller uniform composite shift would also
validate (by shrinking the composite and re-running the checker). The
documented guarantee is (2, 2) at m = 1 and at most (3m - 1, 3m - 1) in
general; this script reports what is actually achieved.
"""

import argparse
import random

from perscert import check_interleaving, grade, zigzag
from perscert.persist import DeltaMorphism, InterleavingCert
from perscert.randgen import interleaved_pair, rand_finset_object


def minimal_uniform_shift(cert):
    """Smallest integer s <= the certified shift such that post-truncating
    both legs to shift s still validates (legs here are built from structure
    maps, so smaller shifts are testable by rebuilding components)."""
    target = int(cert.epsilon.coords[0])
    best = target
    for s in range(target - 1, -1, -1):
        g = grade(s)
        try:
            f = DeltaMorphism.from_fn(
                cert.f.source, cert.f.target, g,
                lambda p: cert.f.component_at(p),
            )
            gg = DeltaMorphism.from_fn(
                cert.g.source, cert.g.target, g,
                lambda p: cert.g.component_at(p),
            )
        except Exception:
            break
        if not check_interleaving(InterleavingCert(f, gg)).valid:
            break
        best = s
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--blocks", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()

    for m in args.blocks:
        composites = set()
        minima = set()
        for seed in range(args.seeds):
            rng = random.Random(seed)
            x = rand_finset_object(rng, lo=-4, hi=4, max_size=4)
            y, cert = interleaved_pair(rng, x, m)
            result = zigzag(cert, m)
            assert result.even_equal and result.odd_equal
            assert check_interleaving(result.composite).valid
            shifts = tuple(int(s.coords[0]) for s in result.total_shifts)
            composites.add(shifts)
            minima.add(minimal_uniform_shift(result.composite))
        bound = 3 * m - 1
        print(f"m = {m}: composite shifts {sorted(composites)} "
              f"(guaranteed bound ({bound}, {bound})); "
              f"smallest uniform shift still valid per instance: {sorted(minima)}")


if __name__ == "__main__":
    main()
