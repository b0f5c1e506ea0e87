"""Stress corpus: inputs the document schema may receive must get an
answer or a documented exit code (0-4), never a Python traceback."""

from __future__ import annotations

import json
import random
from pathlib import Path

from symwcet import cli
from symwcet.cfg import is_identifier

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

# A value of every JSON type, each of the wrong type or out of range for
# some field of the schema.
MUTANTS = (0, -1, 2**40, "", "x", "TOP", None, True, 1.5, [], {})


def _paths(node, path=()):
    """Every object member under node, list items searched through."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield path + (key,)
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


def _leaves(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from _leaves(child)
    else:
        yield node


def mutate(doc: dict, rng: random.Random) -> dict:
    """doc with one to three fields replaced by values from MUTANTS."""
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.randint(1, 3)):
        *parents, last = rng.choice(list(_paths(doc)))
        node = doc
        for key in parents:
            node = node[key]
        node[last] = rng.choice(MUTANTS)
    return doc


def test_schema_mutations_exit_cleanly(capsys, tmp_path):
    rng = random.Random(7)
    docs = [json.loads(p.read_text()) for p in sorted(SAMPLES.glob("*.json"))]
    path = tmp_path / "mutant.json"
    seen = set()
    for _ in range(400):
        doc = mutate(rng.choice(docs), rng)
        path.write_text(json.dumps(doc))
        # Every identifier in the document, bound to one value.
        binds = [arg for name in sorted({v for v in _leaves(doc)
                                         if is_identifier(v)})
                 for arg in ("--bind", f"{name}=3")]
        for command in (["check"], ["tree"], ["formula", "--stats"],
                        ["wcet"], ["wcet", *binds],
                        ["wcet", "--self-check", *binds]):
            code = cli.main([command[0], "--input", str(path), *command[1:]])
            out = capsys.readouterr()
            assert 0 <= code <= 4, (command, doc)
            if code:
                assert out.err.count("\n") == 1, (command, doc, out.err)
            seen.add(code)
    # The corpus reaches both answers and refusals.
    assert 0 in seen and 1 in seen
