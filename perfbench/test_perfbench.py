"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import gen  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
# units per workload in the in-process tests: every request kind appears
FEW_UNITS = {"rips-barcode": 4, "cert-replay": 4, "distance-search": 12}


def documents(workload: str, seed: int, units: int = 4) -> bytes:
    out = []
    for i in range(units):
        for req in gate.requests_for(workload, gen.unit(workload, seed, i), {}):
            out.extend(json.dumps(doc, sort_keys=True) for doc in req.inputs.values())
    return "\n".join(out).encode()


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_seed_determines_documents(workload):
    assert documents(workload, 5) == documents(workload, 5)
    assert documents(workload, 5) != documents(workload, 6)


def outputs(workload: str, workdir: Path, traced: bool) -> tuple[list, int]:
    """Stdout and output file bytes of the first few units, and the failures."""
    import perscert.cli

    t = tracer.Tracer() if traced else None
    if t is not None:
        t.install()
    try:
        client = worker.Client(perscert.cli, workdir, t)
        state = {"replay": worker.make_replay()}
        seen = []
        original = client.call

        def call(argv):
            code, out, elapsed = original(argv)
            files = [Path(a).read_bytes() for a in argv[argv.index("-o") + 1:]] \
                if "-o" in argv else []
            seen.append((argv[0], code, out, files))
            return code, out, elapsed

        client.call = call
        for i in range(FEW_UNITS[workload]):
            for req in gate.requests_for(workload, gen.unit(workload, 3, i), state):
                client.run(req, None)
        return seen, client.failed
    finally:
        if t is not None:
            t.uninstall()


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_traced_outputs_match_untraced(workload, tmp_path):
    plain, plain_failed = outputs(workload, tmp_path, traced=False)
    traced, traced_failed = outputs(workload, tmp_path, traced=True)
    assert plain_failed == traced_failed == 0
    assert plain == traced


def first_result(workload: str, name: str, tmp_path: Path):
    import perscert.cli

    client = worker.Client(perscert.cli, tmp_path)
    state = {"replay": worker.make_replay()}
    for req in gate.requests_for(workload, gen.unit(workload, 3, 0), state):
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in req.argv]
        for file, doc in req.inputs.items():
            (tmp_path / file).write_text(json.dumps(doc))
        code, out, _ = client.call(argv)
        doc = json.loads((tmp_path / req.output).read_text()) if req.output else json.loads(out)
        if req.name == name:
            return req, gate.Result(code, doc)
    raise AssertionError(f"no request {name}")


def test_gate_catches_altered_barcode(tmp_path):
    req, res = first_result("rips-barcode", "barcode0", tmp_path)
    req.check(res)
    res.doc["intervals"][-1]["death"] = "1000"
    with pytest.raises(gate.Mismatch):
        req.check(res)


def test_gate_catches_altered_verdict(tmp_path):
    req, res = first_result("cert-replay", "check-corrupted", tmp_path)
    req.check(res)
    res.doc["ok"] = True
    with pytest.raises(gate.Mismatch):
        req.check(res)


def test_gate_catches_altered_distance(tmp_path):
    req, res = first_result("distance-search", "interleave-dist", tmp_path)
    req.check(res)
    res.doc["distance"] = "inf"
    with pytest.raises(gate.Mismatch):
        req.check(res)


def test_worker_counts_recorded_mismatch(tmp_path):
    import perscert.cli

    client = worker.Client(perscert.cli, tmp_path)
    req = gate.requests_for("rips-barcode", gen.unit("rips-barcode", 3, 0), {})[0]
    assert client.run(req, "not the recorded answer") is None
    assert client.failed == 1


def test_worker_counts_check_that_raises(tmp_path):
    import perscert.cli

    def broken(res):
        return [][0]  # a check tripping over a malformed answer

    client = worker.Client(perscert.cli, tmp_path)
    req = gate.requests_for("rips-barcode", gen.unit("rips-barcode", 3, 0), {})[0]
    req.check = broken
    assert client.run(req, None) is None
    assert client.failed == 1 and "IndexError" in client.failures[0]


def test_probe_ignores_live_heap():
    """The collector never runs inside the probe, so a large live heap in the
    worker (say, a module-level cache of the program) cannot slow it."""
    import gc

    runs = []

    def seen(phase, info):
        if phase == "start":
            runs.append(info["generation"])

    cache = [(i, [i]) for i in range(50_000)]
    thresholds = gc.get_threshold()
    gc.set_threshold(1, 1, 1)  # any allocation would start a full collection
    gc.callbacks.append(seen)
    try:
        probe.probe()
    finally:
        gc.callbacks.remove(seen)
        gc.set_threshold(*thresholds)
    del cache
    assert runs == []
    assert gc.isenabled()


def test_metric_names():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    names += [name for name, _, _ in tracer.METRICS]
    assert all(NAME.fullmatch(n) for n in names)
    assert [m["name"] for m in bench["per_layer"]] == [name for name, _, _ in tracer.METRICS]
    assert {w["name"] for w in bench["workloads"]} == set(gen.WORKLOADS)


def test_tail_percentile():
    lat = [i / 1000 for i in range(1, 145)]
    value, pct, beyond = run.tail(lat)
    assert pct == 93 and beyond >= 10
    assert value == sorted(lat)[len(lat) - beyond - 1]


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cert-replay",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_removed_target_is_absent(monkeypatch, tmp_path):
    import perscert.cli
    import perscert.persist

    monkeypatch.delattr(perscert.persist, "_search_at_delta")
    t = tracer.Tracer()
    t.install()
    try:
        client = worker.Client(perscert.cli, tmp_path, t)
        req = gate.requests_for("rips-barcode", gen.unit("rips-barcode", 3, 0), {})[0]
        assert client.run(req, None) is not None
    finally:
        t.uninstall()
    metrics, absent = t.metrics(client.bytes_in, client.bytes_out, 0.0)
    assert "perscert.persist._search_at_delta" in t.absent
    assert "persist.search.candidates_refuted" in absent
    assert "persist.check_interleaving.calls" not in absent
    assert set(metrics) == {name for name, _, _ in tracer.METRICS}
