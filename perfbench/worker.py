"""One closed-loop client in a fresh interpreter.

It sends the workload's requests through the perscert CLI in-process, one at
a time (the next goes out only when the previous one returns), checks every
answer, and writes a JSON summary to ``--out``. A request is timed from
argument parsing to the report written; writing its input documents and
checking its answer happen outside the timed region.

    python3 perfbench/worker.py --workload W --seed S --units N --out FILE
        [--trace] [--record]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

import gate
import gen
from probe import SpeedLog

HERE = Path(__file__).resolve().parent
ANSWERS = HERE / "answers.json"


def load_perscert(root: Path):
    """Import the CLI from the checkout's own sources, nowhere else."""
    import perscert.cli

    where = Path(perscert.cli.__file__).resolve()
    if root / "src" not in where.parents:
        raise SystemExit(f"perscert imported from {where}, not from {root / 'src'}")
    return perscert.cli


def make_replay():
    """Check a certificate returned by interleave-dist with perscert's own
    checker; runs outside the timed region and outside any trace."""
    from perscert import serialize as ser
    from perscert.persist import check_interleaving

    def replay(x_doc, y_doc, cert_doc) -> bool:
        x, y = ser.decode_object(x_doc), ser.decode_object(y_doc)
        return check_interleaving(ser.decode_cert(cert_doc, x, y)).valid

    return replay


class Client:
    def __init__(self, cli, workdir: Path, tracer=None):
        self.cli, self.workdir, self.tracer = cli, workdir, tracer
        self.latencies: list[float] = []
        self.ok: list[bool] = []
        self.attempted = self.failed = 0
        self.bytes_in = self.bytes_out = 0
        self.failures: list[str] = []

    def call(self, argv: list[str]) -> tuple[int, str, float]:
        buf = io.StringIO()

        def invoke():
            with redirect_stdout(buf):
                self.cli.main.main(args=argv, prog_name="perscert", standalone_mode=False)

        t0 = time.perf_counter()
        try:
            if self.tracer is not None:
                self.tracer.request(invoke)
            else:
                invoke()
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # a traceback is a failed request, never a crash of the run
            code = -1
            buf.write(traceback.format_exc())
        return code, buf.getvalue(), time.perf_counter() - t0

    def run(self, req: gate.Request, expected) -> object:
        """Send one request and gate it; returns the answer or None."""
        for name, doc in req.inputs.items():
            (self.workdir / name).write_text(json.dumps(doc, sort_keys=True))
        if req.output is not None:
            (self.workdir / req.output).unlink(missing_ok=True)
        argv = [str(self.workdir / a) if a.endswith(".json") else a for a in req.argv]
        self.bytes_in += sum(os.path.getsize(self.workdir / a) for a in req.argv
                             if a.endswith(".json") and a != req.output)
        code, out, elapsed = self.call(argv)
        self.attempted += 1
        self.latencies.append(elapsed)
        self.ok.append(False)
        self.bytes_out += len(out.encode())
        doc = None
        try:
            if req.output is not None and code in (0, 1):
                raw = (self.workdir / req.output).read_text()
                self.bytes_out += len(raw.encode())
                doc = json.loads(raw)
            elif out.strip():
                doc = json.loads(out)
            answer = gate.normalize(req.check(gate.Result(code, doc)))
            if expected is not None and answer != expected:
                raise gate.Mismatch(f"answer {answer!r} differs from the recorded {expected!r}")
            self.ok[-1] = True
            return answer
        except Exception as exc:  # any error in checking a wrong answer is a failed request
            self.failed += 1
            self.failures.append(f"{req.name} {req.argv}: exit {code}: "
                                 f"{type(exc).__name__}: {exc} {out[-300:]}")
            return None


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--units", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="write the answers of --units units to answers.json")
    args = ap.parse_args()

    root = HERE.parent
    cli = load_perscert(root)
    workdir = Path(args.out).parent / "unit"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    state = {"replay": make_replay()}

    recorded = {}
    if not args.record and ANSWERS.exists():
        book = json.loads(ANSWERS.read_text())
        if book["seed"] == args.seed:
            recorded = book["answers"].get(args.workload, {})
    answers = {}

    client = Client(cli, workdir, tracer)
    speed = SpeedLog()
    t_start = time.perf_counter()
    for i in range(args.units):
        speed.maybe_probe(client.attempted, force=i == 0)
        u = gen.unit(args.workload, args.seed, i)
        for req in gate.requests_for(args.workload, u, state):
            key = f"{i}.{req.name}"
            answers[key] = client.run(req, recorded.get(key))
    speed.maybe_probe(client.attempted, force=True)
    wall = time.perf_counter() - t_start

    if args.record:
        if client.failed:
            raise SystemExit(f"not recording: {client.failed} answers failed the gate")
        book = json.loads(ANSWERS.read_text()) if ANSWERS.exists() else {"answers": {}}
        if book.get("seed") != args.seed:
            book = {"seed": args.seed, "answers": {}}
        book["answers"][args.workload] = answers
        ANSWERS.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")

    summary = {
        "units": args.units,
        "wall_s": wall,
        "attempted": client.attempted,
        "failed": client.failed,
        "failures": client.failures[:20],
        "latencies_s": client.latencies,
        "speed_factors": speed.factors(client.attempted),
        "ok": client.ok,
        "bytes_in": client.bytes_in,
        "bytes_out": client.bytes_out,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        metrics, absent = tracer.metrics(client.bytes_in, client.bytes_out, 0.0)
        summary.update(layer_metrics=metrics, absent=absent + tracer.absent,
                       boundaries=tracer.boundaries(), layer_self_ms=tracer.layer_self_ms())
    Path(args.out).write_text(json.dumps(summary))


if __name__ == "__main__":
    main()
