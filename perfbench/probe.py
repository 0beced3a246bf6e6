"""Machine-speed probe.

A shared virtual machine can change speed by up to 2x for seconds to
minutes at a time (other tenants), which moves every timing more than the
bounds allow. The probe times a fixed pure-stdlib loop of the kind the
program spends its time in (Fraction arithmetic, tuples, dicts, bisect)
every quarter second between requests. Each timing is multiplied by
``REFERENCE_S`` over the mean probe time around it, so timings read as
seconds at one fixed machine speed; the raw figures are reported beside
them. No perscert code runs in the probe, so no change to the program can
move it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

# Timings are reported at the machine speed at which probe() takes this long
# (about the fast phase of a 2-vCPU x86-64 VM with Python 3.11).
REFERENCE_S = 0.01
# probe at most this often, and scale each request by the mean of the
# WINDOW probes around it, half taken before it and half after. The rule was
# fixed before the baseline runs; baseline.json gives the raw and scaled
# spreads of the same runs (raw up to 0.33 of the median, scaled up to 0.14).
EVERY_S = 0.25
WINDOW = 8


def _loop() -> int:
    axis = [Fraction(k, 4) for k in range(40)]
    table = {}
    total = Fraction(0)
    for i in range(300):
        r = Fraction(i % 37, 3)
        j = bisect.bisect_right(axis, r) - 1
        key = (j, i % 5)
        table[key] = table.get(key, 0) + 1
        total += r / (j + 2)
    return len(table) + total.denominator % 7


def probe() -> float:
    """Seconds for four rounds of the fixed loop. The collector is off while
    it runs, so the heap the program has built up is never scanned in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(4):
            _loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedLog:
    """Probes taken between requests, at most every EVERY_S seconds."""

    def __init__(self):
        self.marks: list[tuple[int, float]] = []  # (requests before it, probe seconds)
        self._last = float("-inf")

    def maybe_probe(self, requests_so_far: int, force: bool = False) -> None:
        if force or time.perf_counter() - self._last >= EVERY_S:
            self.marks.append((requests_so_far, probe()))
            self._last = time.perf_counter()

    def factors(self, n_requests: int) -> list[float]:
        """Per request, the factor turning its measured seconds into
        reference seconds."""
        half = WINDOW // 2
        values = [p for _, p in self.marks]
        out, k = [], 0
        for r in range(n_requests):
            while k + 1 < len(self.marks) and self.marks[k + 1][0] <= r:
                k += 1  # probe k is the last one taken before request r
            around = values[max(0, k - half + 1): k + half + 1]
            out.append(REFERENCE_S / statistics.fmean(around))
        return out
