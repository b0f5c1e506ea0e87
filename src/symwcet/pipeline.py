"""Document to analysis pipeline.

Runs the full front half on a parsed program document: loop discovery,
restructuring into a control-flow tree, then the document's leaf splits
followed by its annotations.  Splits run first so annotations can target
the variant leaves they introduce.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cft
from .cfg import Cfg, LoopForest, Program, build_loop_forest, parse_loop_ref, parse_program
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
    for split in program.splits:
        variants = []
        for v in split.variants:
            ann = None
            if v.annotation is not None:
                loop_txt, cap = v.annotation
                ann = cft.Annotation(parse_loop_ref(loop_txt), cap)
            variants.append((v.id, v.wcet, ann))
        tree = cft.split_leaf(tree, split.block, variants)
        for v in split.variants:
            variant_map[v.id] = split.block

    seen: set[str] = set()
    for spec in program.annotations:
        if spec.target in seen:
            raise DocumentError(f"duplicate annotation target {spec.target!r}")
        seen.add(spec.target)
    for spec in program.annotations:
        ann = cft.Annotation(parse_loop_ref(spec.loop), spec.max)
        tree = cft.attach_annotation(tree, spec.target, ann)

    return Analysis(cfg=g, forest=forest, tree=tree, rename_map=rename_map,
                    variant_map=variant_map)


def analyze_text(text: str) -> Analysis:
    return analyze(parse_program(text))
