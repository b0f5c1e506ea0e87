"""Document to analysis pipeline.

Runs the full front half on a parsed program document: loop discovery,
restructuring into a control-flow tree, then the document's leaf splits
followed by its annotations.  Parsing already built the annotation
records the tree takes; here each is placed at the leaf it names.  Splits
run first so annotations can target the variant leaves they introduce.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cft
from .cfg import Cfg, LoopForest, Program, build_loop_forest, parse_program
from .errors import DocumentError
from .restructure import build_cft


@dataclass
class Analysis:
    cfg: Cfg
    forest: LoopForest
    tree: cft.Cft
    rename_map: dict[str, str]
    variant_map: dict[str, str]


def analyze(program: Program) -> Analysis:
    g = program.cfg
    forest = build_loop_forest(g, program.loop_bounds)
    tree, rename_map = build_cft(g, forest)

    variant_map: dict[str, str] = {}
    for block, variants in program.splits:
        tree = cft.split_leaf(tree, block, variants)
        for vid, _, _ in variants:
            variant_map[vid] = block

    seen: set[str] = set()
    for target, _ in program.annotations:
        if target in seen:
            raise DocumentError(f"duplicate annotation target {target!r}")
        seen.add(target)
    for target, ann in program.annotations:
        tree = cft.attach_annotation(tree, target, ann)

    return Analysis(cfg=g, forest=forest, tree=tree, rename_map=rename_map,
                    variant_map=variant_map)


def analyze_text(text: str) -> Analysis:
    return analyze(parse_program(text))
