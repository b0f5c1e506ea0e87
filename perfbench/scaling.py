#!/usr/bin/env python3
"""Regenerate the chain scaling table (ROADMAP's baseline) from traced runs.

    python3 perfbench/scaling.py

Each row builds the simplified formula of a chain_symbolic document (every
other loop bound symbolic, seed 0) REPEATS times under the tracer and
reports median inclusive stage times in ms: loop forest, restructuring,
simplify, and everything else (parse, gamma, ...), plus the formula size
as operands raw -> simplified.  The rows are the ROADMAP's sizes: 250, 500
and 1000 sections give about 500, 1000 and 2000 blocks.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import docs, spans, workloads  # noqa: E402

COLUMNS = ("cfg.forest", "restructure.build_cft", "symbolic.simplify")
SECTIONS = (250, 500, 1000)
REPEATS = 3
SEED = 0


def row(sections: int) -> tuple:
    from symwcet import symbolic

    doc, _ = docs.chain_doc(random.Random(SEED), sections)
    text = json.dumps(doc)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for r in range(REPEATS):
            tracer.begin_request(r)
            a, w = workloads.build_formula(text)
            tracer.end_request()
    finally:
        tracer.uninstall()
    per: dict = {}
    for name, start, end, _, request in tracer.spans:
        if request is not None and (name in COLUMNS or name == spans.REQUEST):
            per.setdefault(name, [0.0] * REPEATS)[request] += end - start
    totals = per[spans.REQUEST]
    stages = [per.get(c, [0.0] * REPEATS) for c in COLUMNS]
    other = [totals[r] - sum(s[r] for s in stages) for r in range(REPEATS)]
    raw = symbolic.operand_count(
        symbolic.gamma_symbolic(a.tree, a.forest, fold_concrete=False))
    return (len(doc["blocks"]),
            *(statistics.median(s) * 1e3 for s in stages + [other]),
            raw, symbolic.operand_count(w))


def main() -> int:
    print("| blocks | forest | restructure | simplify | other stages | formula size |")
    print("|-------:|-------:|------------:|---------:|-------------:|-------------:|")
    for sections in SECTIONS:
        blocks, forest, restr, simp, other, raw, final = row(sections)
        print(f"| {blocks} | {forest:.0f} | {restr:.0f} | {simp:.0f} | "
              f"{other:.0f} | {raw} → {final} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
