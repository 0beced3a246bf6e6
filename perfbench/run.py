"""The perscert benchmark: seeded documents through the CLI, every answer
checked, end-to-end metrics from an untraced run and per-layer metrics from
a traced one.

    python3 perfbench/run.py --workload rips-barcode --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports perscert from ``src/`` there
and writes only under ``.perfbench_work/``. The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it carries context (request count, tail percentile, failure
share, absent trace targets). The exit code is 0 when every answer passed
the gate, 1 when one did not, and 2 when the benchmark cannot run at all.

A run does a fixed amount of work: ``--seconds`` sets a number of whole
cycles of units (a cycle is the workload's full mix of input sizes and
kinds), as many as take about that long at the commit that defined the
benchmark. The same seed and seconds give the same requests on every
commit. Untraced (``--trace 0``): one client in a fresh interpreter runs
them; set-up time is measured by separate interpreter launches, each
paired with a stdlib-only reference launch. Traced (``--trace 1``): half as
many cycles run once untraced and once traced, each in a fresh interpreter,
so counts repeat exactly for a seed and the ratio of the two request times
is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

DEFAULT_SEED = 1
SETUP_LAUNCHES = 9
# the reference launch for setup_s: stdlib only, and counted as
# REFERENCE_LAUNCH_S seconds (about its median on a 2-vCPU x86-64 VM)
REFERENCE_IMPORTS = ("import fractions, json, argparse, decimal, typing, dataclasses, "
                     "itertools, functools, pathlib, enum, inspect, textwrap")
REFERENCE_LAUNCH_S = 0.1
DEADLINE_S = 170
# seconds one cycle took at the reference speed of probe.py when the
# benchmark was defined
CYCLE_SECONDS = {"rips-barcode": 3.6, "cert-replay": 4.9, "distance-search": 11.5}


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONHOME", None)
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        fail("time limit reached", 1)
    return left


def setup_seconds(deadline: float) -> tuple[float, dict]:
    """Time for a fresh interpreter to import perscert.cli, in seconds at the
    reference launch speed. Each perscert launch is followed at once by a
    launch of REFERENCE_IMPORTS, which no change to perscert can move; the
    median ratio of the two, times REFERENCE_LAUNCH_S, cancels the drift of
    machine speed that moves raw launch times by 15-30% between runs."""
    ratios, raw, ref = [], [], []
    for _ in range(SETUP_LAUNCHES):
        t = launch("import perscert.cli", deadline)
        r = launch(REFERENCE_IMPORTS, deadline)
        ratios.append(t / r)
        raw.append(t)
        ref.append(r)
    info = {"setup_raw_s": statistics.median(raw), "reference_launch_s": statistics.median(ref)}
    return statistics.median(ratios) * REFERENCE_LAUNCH_S, info


def launch(code: str, deadline: float) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                          capture_output=True, timeout=remaining(deadline))
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"cannot run {code!r}: {proc.stderr.decode()[-500:]}")
    return elapsed


def cycles(args) -> int:
    return max(1, round(args.seconds / CYCLE_SECONDS[args.workload]))


def units(n_cycles: int, args) -> list[str]:
    return ["--units", str(n_cycles * gen.CYCLE[args.workload])]


def worker(workdir: Path, args, deadline: float, extra: list[str]) -> dict:
    out = workdir / "result.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out), *extra]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        fail("worker exceeded the time limit", 1)
    if proc.returncode != 0 or not out.exists():
        fail(f"worker exited with code {proc.returncode}")
    return json.loads(out.read_text())


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """Latency at the highest whole percentile with at least ten requests
    beyond it (nearest rank), with that percentile and the count beyond."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100, 0
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return lat[rank - 1], pct, n - rank


def report(correct: bool, attempted: int, failed: int, metrics: dict, info: dict) -> None:
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def scaled(res: dict) -> list[float]:
    """Request times in reference seconds (see probe.py)."""
    return [t * f for t, f in zip(res["latencies_s"], res["speed_factors"])]


def latency_metrics(res: dict, lat: list[float]) -> dict:
    tail_s, pct, beyond = tail(lat)
    return {
        "ops_per_s": sum(res["ok"]) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "op_tail_pct": pct,
        "op_tail_beyond": beyond,
    }


def run_untraced(workdir: Path, args, deadline: float) -> int:
    setup_s, setup_info = setup_seconds(deadline)
    res = worker(workdir, args, deadline, units(cycles(args), args))
    attempted, failed = res["attempted"], res["failed"]
    ref = latency_metrics(res, scaled(res))
    raw = latency_metrics(res, res["latencies_s"])
    metrics = {
        "ops_per_s": {"value": ref["ops_per_s"], "unit": "req/s"},
        "op_p50_ms": {"value": ref["op_p50_ms"], "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    # the tail is reported beside the metrics: on one client its run-to-run
    # spread across seeds is close to the largest bound the metrics may have
    info = {"workload": args.workload, "seed": args.seed, "requests": attempted,
            "units": res["units"], "wall_s": res["wall_s"],
            "op_tail_ms": ref["op_tail_ms"], "op_tail_pct": ref["op_tail_pct"],
            "op_tail_beyond": ref["op_tail_beyond"],
            "failed_frac": failed / attempted, "failures": res["failures"],
            "raw": {"ops_per_s": raw["ops_per_s"], "op_p50_ms": raw["op_p50_ms"],
                    "op_tail_ms": raw["op_tail_ms"]},
            "speed": statistics.fmean(res["speed_factors"]), **setup_info}
    for line in res["failures"]:
        print(line, file=sys.stderr)
    report(failed == 0, attempted, failed, metrics, info)
    return 0 if failed == 0 else 1


def run_traced(workdir: Path, args, deadline: float) -> int:
    batch = units(max(1, cycles(args) // 2), args)
    plain = worker(workdir, args, deadline, batch)
    traced = worker(workdir, args, deadline, batch + ["--trace"])
    overhead = sum(scaled(traced)) / sum(scaled(plain)) - 1
    metrics = traced["layer_metrics"]
    metrics["trace.overhead_frac"]["value"] = overhead
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    self_ms = traced["layer_self_ms"]
    info = {"workload": args.workload, "seed": args.seed, "units": traced["units"],
            "requests": traced["attempted"], "absent": traced["absent"],
            "layers_by_self_ms": sorted(self_ms, key=self_ms.get, reverse=True),
            "layer_self_ms": self_ms, "boundaries": traced["boundaries"],
            "failures": plain["failures"] + traced["failures"]}
    for line in info["failures"]:
        print(line, file=sys.stderr)
    report(failed == 0, attempted, failed, metrics, info)
    return 0 if failed == 0 else 1


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "perscert" / "cli.py").is_file():
        fail(f"no perscert sources under {ROOT / 'src'}")

    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = run_traced if args.trace else run_untraced
        code = run(workdir, args, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
