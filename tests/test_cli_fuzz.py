"""Hostile input through the CLI: seeded mutations of the golden cases'
documents. Each mutation replaces, deletes, duplicates or wraps one node of
one input document; the command must still exit 0, 1, 2 or 3 with no
exception escaping the runner, and finish within ``ALARM_SECONDS``."""

import copy
import json
import random
import signal

import pytest
from click.testing import CliRunner

from perscert.cli import main

from test_cli_golden import CASES, write_inputs

MUTATIONS_PER_CASE = 40
ALARM_SECONDS = 5

# values a node is replaced by: wrong types, out-of-range numbers, malformed
# rationals and a very long digit string
HOSTILE = [None, True, -1, 0, 10**6, 1.5, "", "x", "1/0", "-1", "9" * 5000, [], {}, [[[]]]]


class RanPastAlarm(BaseException):
    """Raised by the alarm; not an ``Exception``, so no handler of the CLI
    can take it for an input error."""


def paths(node, path=()):
    """The path of every node of a JSON document, the root's first."""
    yield path
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from paths(child, path + (key,))


def mutated(rng: random.Random, doc):
    """A copy of doc with one node replaced, deleted, duplicated or wrapped."""
    doc = copy.deepcopy(doc)
    path = rng.choice(list(paths(doc)))
    kind = rng.choice(["replace", "delete", "duplicate", "wrap"])
    if not path:
        return [doc] if kind == "wrap" else copy.deepcopy(rng.choice(HOSTILE))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    node = parent[key]
    if kind == "replace":
        parent[key] = copy.deepcopy(rng.choice(HOSTILE))
    elif kind == "delete":
        del parent[key]
    elif kind == "wrap":
        parent[key] = [node]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(node))
    else:  # a dict: the node also under a sibling's key, or a new one
        parent[rng.choice([k for k in parent if k != key] or [key * 2])] = copy.deepcopy(node)
    return doc


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz_inputs")
    write_inputs(directory)
    return directory


@pytest.fixture
def alarm():
    def ring(signum, frame):
        raise RanPastAlarm(f"ran past {ALARM_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, ring)
    yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("name", sorted(CASES))
def test_mutated_inputs_exit_with_a_documented_code(inputs, tmp_path, alarm, name):
    rng = random.Random(name)
    args = CASES[name]
    documents = [i for i, a in enumerate(args) if a.endswith(".json")]
    for _ in range(MUTATIONS_PER_CASE):
        target = rng.choice(documents)
        doc = json.loads((inputs / args[target]).read_text())
        (tmp_path / "mutated.json").write_text(json.dumps(mutated(rng, doc)))
        run = [str(tmp_path / "mutated.json") if i == target
               else str(inputs / a) if a.endswith(".json") else a
               for i, a in enumerate(args)]
        alarm(ALARM_SECONDS)
        result = CliRunner().invoke(main, run, catch_exceptions=False)
        alarm(0)
        assert result.exit_code in (0, 1, 2, 3), (run, result.output)
