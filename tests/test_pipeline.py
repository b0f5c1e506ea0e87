"""Whole-pipeline properties: what a run leaves behind, and that its
results do not depend on the process's string hash seed."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import generators as gen
from symwcet import symbolic
from symwcet.awcet import abstract, const_seq
from symwcet.cfg import TOP
from symwcet.pipeline import analyze_text

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = sorted((ROOT / "samples").glob("*.json"))


def _run_pipeline(text: str):
    a = analyze_text(text)
    raw = symbolic.gamma_symbolic(a.tree, a.forest)
    simplified = symbolic.simplify(raw, a.forest)
    costs, counts = symbolic.identifiers(raw)
    bindings = {c: abstract(TOP, const_seq(3)) for c in costs}
    bindings.update({c: 2 for c in counts})
    symbolic.evaluate(simplified, bindings, a.forest)
    assert symbolic.parse(symbolic.render(simplified)) == simplified


def test_pipeline_leaves_no_reference_cycles():
    # Nothing a run builds (forest, tree, formulas, memo tables, the
    # formula parsed back from its text) waits for the cycle collector:
    # reference counting frees it all.
    texts = [json.dumps(gen.scaling_doc(500))]
    texts += [p.read_text() for p in SAMPLES]
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for text in texts:
            _run_pipeline(text)
            assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


# Prints, as one JSON line, everything the pipeline derives from a small
# frozen corpus, in the order the analyzer's own containers iterate.
_DUMP = r"""
import json, random
import generators as gen
from symwcet import cft, symbolic
from symwcet.awcet import abstract, const_seq
from symwcet.cfg import TOP
from symwcet.errors import IrreducibleLoop
from symwcet.pipeline import analyze_text

rng = random.Random(71)
docs = [gen.running_example_doc(), gen.persistence_doc(),
        gen.triangular_doc(), gen.loop_nest_doc(4), gen.dowhile_nest_doc(3),
        gen.scaling_doc(30), gen.irreducible_doc()]
for i in range(120):
    doc = gen.random_doc(rng, depth=2 + i % 3, noise=i % 5)
    docs.append(gen.annotate_doc(rng, doc) if i % 2 else doc)
out = []
for doc in docs:
    try:
        a = analyze_text(json.dumps(doc))
    except IrreducibleLoop as exc:
        out.append(str(exc))
        continue
    raw = symbolic.gamma_symbolic(a.tree, a.forest)
    simplified = symbolic.simplify(raw, a.forest)
    costs, counts = symbolic.identifiers(raw)
    bindings = {c: abstract(TOP, const_seq(3)) for c in costs}
    bindings.update({c: 2 for c in counts})
    out.append([a.forest.block_loop, list(a.forest.inner_pre.items()),
                list(a.forest.loops),
                cft.to_sexpr(a.tree), cft.to_sexpr(a.tree, lambda s: s),
                list(a.rename_map.items()), list(a.variant_map.items()),
                symbolic.render(raw), symbolic.render(simplified),
                str(symbolic.evaluate(simplified, bindings, a.forest))])
print(json.dumps(out))
"""


def _dump(hash_seed: str) -> list:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    proc = subprocess.run([sys.executable, "-c", _DUMP], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_results_do_not_depend_on_the_hash_seed():
    first, second = _dump("1"), _dump("2")
    assert len(first) == 127
    assert first == second
