#!/usr/bin/env python3
"""Walk one program document through the whole pipeline and print every
intermediate product: loops, tree, formula, concrete WCET, oracle verdicts.

    python3 scripts/run_example.py samples/fig2_symbolic.json

To tabulate a symbolic WCET over a parameter range, use `symwcet sweep`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from symwcet import cft, symbolic
from symwcet.awcet import gamma, ms_index
from symwcet.oracle import check_path_inclusion, check_soundness
from symwcet.pipeline import analyze_text


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("document", nargs="?",
                    default=str(Path(__file__).resolve().parent.parent
                                / "samples" / "fig2.json"))
    args = ap.parse_args()

    a = analyze_text(Path(args.document).read_text())
    print(f"document: {a.cfg.name} "
          f"({len(a.cfg.blocks)} blocks, {len(a.cfg.edges)} edges)")
    for header, info in sorted(a.forest.loops.items()):
        print(f"loop {header}: bound {info.bound}, "
              f"body {sorted(info.body)}")

    print("\ntree:")
    print(" ", cft.to_sexpr(a.tree))

    raw = symbolic.gamma_symbolic(a.tree, a.forest)
    w = symbolic.simplify(raw, a.forest)
    print("\nformula:")
    print(" ", symbolic.render(w))
    print(f"  operands: {symbolic.operand_count(w)}")

    free = sorted(symbolic.free_identifiers(w, a.forest))
    if free:
        print(f"  parameters: {' '.join(free)}")
        return 0

    value = gamma(a.tree, a.forest)
    print(f"\nWCET: {ms_index(value.seq, 0)}")

    inc = check_path_inclusion(a.cfg, a.forest, a.tree, a.variant_map)
    snd = check_soundness(a.tree, a.forest)
    print(f"oracle: inclusion {'ok' if inc.ok else 'FAILED'} "
          f"({inc.program_paths} paths), "
          f"soundness {'ok' if snd.ok else 'FAILED'} "
          f"(worst path {snd.worst_path})")
    return 0 if inc.ok and snd.ok else 1


if __name__ == "__main__":
    sys.exit(main())
