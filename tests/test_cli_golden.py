"""Golden CLI outputs: the whole stdout and the exit code of the README
commands and of the certificate-level subcommands, on fixed documents and on
seeded ``randgen`` inputs, compared byte for byte with ``tests/golden/``.
Each case whose command takes ``-o`` runs again with ``-o FILE``: FILE
must hold the golden's stdout, and stdout stay empty. The ``scripts/`` programs
are compared the same way, each run in a fresh interpreter
(``script-<name>.txt``).

Each golden file is ``exit: <code>`` on its first line followed by the exact
stdout. After a deliberate output change, regenerate them with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from perscert import serialize as ser
from perscert.cli import main
from perscert.complexes import degree_rips, to_persistent, vietoris_rips
from perscert.gf2 import GF2Matrix
from perscert.grades import grade
from perscert.invariants import barcode, homology, pi0
from perscert.persist import (
    DeltaMorphism,
    InterleavingCert,
    extend_floor,
    integer_object,
    rescale,
    self_interleaving,
)
from perscert.randgen import (
    corrupt_certificate,
    interleaved_pair,
    rand_barcode,
    rand_complex_interleaving,
    rand_f2vec_object,
    rand_filtered_complex,
    rand_metric,
    rand_persistent_complex,
    rand_real_object,
)

from oracles import encode_metric

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).parent.parent
SCRIPTS = ["worked_example", "zigzag_constants"]

COLLINEAR = {
    "format": ser.FORMAT_METRIC,
    "points": [0, 1, 3],
    "matrix": [["0", "1", "3"], ["1", "0", "2"], ["3", "2", "0"]],
}

POINT = [["*"]]
EDGE = [["a"], ["a", "b"], ["b"]]
SQUARE = {
    "corners": {"0,0": [["a"], ["b"]], "1,0": EDGE, "0,1": POINT, "1,1": POINT},
    "maps": {
        "0,0|0": [["a", "a"], ["b", "b"]],
        "0,0|1": [["a", "*"], ["b", "*"]],
        "1,0|1": [["a", "*"], ["b", "*"]],
        "0,1|0": [["*", "*"]],
    },
}


def zero_leg(source, target, shift):
    """The natural delta-morphism of F2Vec objects with all components 0."""
    return DeltaMorphism.from_fn(source, target, shift, lambda r: GF2Matrix.zeros(
        target.evaluate(r + shift), source.evaluate(r)))


def finset_object(seed: int, n_vertices: int = 6):
    """A Z-indexed FinSet object: the component sets of a seeded complex."""
    return pi0(rand_persistent_complex(random.Random(seed), n_vertices))


def build_inputs() -> dict:
    """File name -> JSON document, all deterministic."""
    docs = {"metric.json": COLLINEAR, "square.json": SQUARE}
    vr = vietoris_rips(ser.decode_metric(COLLINEAR), 2)
    docs["vr.json"] = ser.encode_filtered_complex(vr)
    docs["dr.json"] = ser.encode_object(degree_rips(ser.decode_metric(COLLINEAR), 2))
    docs["b1.json"] = ser.encode_barcode(barcode(homology(to_persistent(vr), 0)))
    docs["b2.json"] = ser.encode_barcode(rand_barcode(random.Random(6)))

    # FinSet objects are the component sets of seeded complexes: randgen's
    # own FinSet maps depend on the string hash seed of the process
    x = finset_object(0)
    docs["self_cert.json"] = ser.encode_cert(self_interleaving(x, grade(1)))
    _, cert = interleaved_pair(random.Random(1), x, 1)
    docs["cert.json"] = ser.encode_cert(cert)

    # natural legs made of zero maps break a triangle identity
    x = rand_f2vec_object(random.Random(15), lo=-2, hi=2)
    zero = integer_object("F2Vec", [0] * 5, [GF2Matrix.zeros(0, 0)] * 4, -2)
    one = grade(1)
    docs["triangle_x.json"] = ser.encode_cert(
        InterleavingCert(zero_leg(x, x, one), zero_leg(x, x, one)))
    docs["triangle_y.json"] = ser.encode_cert(
        InterleavingCert(zero_leg(zero, x, one), zero_leg(x, zero, one)))

    x = finset_object(2, 3)
    y, _ = interleaved_pair(random.Random(2), x, 1)
    docs["x.json"] = ser.encode_object(x)
    docs["y.json"] = ser.encode_object(y)
    rng = random.Random(8)
    x = rand_f2vec_object(rng, lo=-1, hi=1, max_dim=1)
    y, _ = interleaved_pair(rng, x, 1)
    docs["vx.json"] = ser.encode_object(x)
    docs["vy.json"] = ser.encode_object(y)

    for m, seed in ((1, 3), (2, 9)):
        _, cert = interleaved_pair(random.Random(seed), finset_object(seed), m)
        docs[f"block{m}.json"] = ser.encode_cert(cert)
        if m == 1:
            bad = corrupt_certificate(random.Random(0), cert)
            docs["bad_cert.json"] = ser.encode_cert(bad)
    rng = random.Random(10)
    x = rand_f2vec_object(rng, lo=-3, hi=3)
    _, cert = interleaved_pair(rng, x, 2)
    docs["vblock2.json"] = ser.encode_cert(cert)

    real = rescale(extend_floor(finset_object(4)), "3/2")
    docs["real_finset.json"] = ser.encode_object(real)
    docs["real_f2vec.json"] = ser.encode_object(rand_real_object(random.Random(11), "F2Vec"))

    for seed, n_vertices in ((5, 4), (14, 5)):
        _, _, cert = rand_complex_interleaving(random.Random(seed), n_vertices)
        docs[f"complex_cert{seed}.json"] = ser.encode_cert(cert)

    docs["fc.json"] = ser.encode_filtered_complex(rand_filtered_complex(random.Random(14), 5))
    docs["rand_metric.json"] = encode_metric(rand_metric(random.Random(14), 5))
    return docs


CASES = {
    # the README commands
    "readme-rips": ["rips", "metric.json"],
    "readme-barcode": ["barcode", "vr.json", "--dim", "0"],
    "readme-pi0": ["pi0", "vr.json"],
    "readme-is-filtered-rips": ["is-filtered", "vr.json"],
    "readme-degree-rips": ["degree-rips", "metric.json"],
    "readme-is-filtered-degree-rips": ["is-filtered", "dr.json"],
    "readme-bottleneck": ["bottleneck", "b1.json", "b2.json"],
    "readme-interleave-check": ["interleave-check", "cert.json"],
    "readme-interleave-dist": ["interleave-dist", "x.json", "y.json", "--max-enum", "200000"],
    "readme-rectify": ["rectify", "block1.json", "--block", "1"],
    "readme-roundtrip-floor": ["roundtrip-floor", "real_finset.json"],
    "readme-stability-audit": ["stability-audit", "complex_cert5.json", "--dim", "0"],
    # seeded inputs
    "interleave-check-self": ["interleave-check", "self_cert.json"],
    "interleave-check-corrupted": ["interleave-check", "bad_cert.json"],
    "interleave-check-triangle-x": ["interleave-check", "triangle_x.json"],
    "interleave-check-triangle-y": ["interleave-check", "triangle_y.json"],
    "interleave-dist-f2vec": ["interleave-dist", "vx.json", "vy.json"],
    "rectify-block2-finset": ["rectify", "block2.json", "--block", "2"],
    "rectify-block2-f2vec": ["rectify", "vblock2.json", "--block", "2"],
    "roundtrip-floor-f2vec": ["roundtrip-floor", "real_f2vec.json"],
    "stability-audit-dim0": ["stability-audit", "complex_cert14.json", "--dim", "0"],
    "stability-audit-dim1": ["stability-audit", "complex_cert14.json", "--dim", "1"],
    "sq-gadget": ["sq-gadget", "square.json"],
    "skeleton-0": ["skeleton", "fc.json", "-n", "0"],
    "skeleton-1": ["skeleton", "fc.json", "-n", "1"],
    "validate": ["validate", "fc.json"],
    "homology-dim1": ["homology", "fc.json", "--dim", "1"],
    "homology-degree-rips": ["homology", "dr.json", "--dim", "0"],
    "is-filtered-degree-rips": ["is-filtered", "rand_dr.json"],
}


def run_case(directory: Path, args: list[str]) -> str:
    """Exit code line plus the whole stdout of one CLI invocation."""
    args = [str(directory / a) if a.endswith(".json") else a for a in args]
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    return f"exit: {result.exit_code}\n{result.stdout}"


def write_inputs(directory: Path) -> None:
    for name, doc in build_inputs().items():
        (directory / name).write_text(json.dumps(doc))
    # degree-Rips of a seeded metric, produced by the CLI itself
    text = run_case(directory, ["degree-rips", "rand_metric.json"])
    (directory / "rand_dr.json").write_text(text.split("\n", 1)[1])


def run_script(name: str) -> str:
    """Exit code line plus the whole stdout of ``scripts/<name>.py``, run in a
    fresh interpreter with a fixed string hash seed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / f"{name}.py")],
                            capture_output=True, text=True, env=env, check=False)
    return f"exit: {result.returncode}\n{result.stdout}"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden_inputs")
    write_inputs(directory)
    return directory


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(inputs, name):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert run_case(inputs, CASES[name]) == expected


# the commands without -o: each writes its verdict report to stdout
NO_OUTPUT_OPTION = {"validate", "is-filtered", "interleave-check"}


@pytest.mark.parametrize("name", sorted(n for n, args in CASES.items()
                                        if args[0] not in NO_OUTPUT_OPTION))
def test_output_option_writes_the_golden_document(inputs, tmp_path, name):
    """With ``-o FILE`` the document goes to FILE, byte for byte as the
    golden's stdout, stdout stays empty and the exit code is the golden's."""
    code, document = (GOLDEN / f"{name}.txt").read_text().split("\n", 1)
    out = tmp_path / "out.json"
    args = [str(inputs / a) if a.endswith(".json") else a for a in CASES[name]]
    result = CliRunner().invoke(main, [*args, "-o", str(out)], catch_exceptions=False)
    assert result.stdout == ""
    assert out.read_text() == document
    assert f"exit: {result.exit_code}" == code


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_output_matches_golden(name):
    expected = (GOLDEN / f"script-{name}.txt").read_text()
    assert run_script(name) == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        for name, args in sorted(CASES.items()):
            (GOLDEN / f"{name}.txt").write_text(run_case(Path(tmp), args))
    for name in SCRIPTS:
        (GOLDEN / f"script-{name}.txt").write_text(run_script(name))
