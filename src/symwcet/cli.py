"""Command line interface.

Exit codes: 0 success, 1 usage or document errors, 2 irreducible control
flow, 3 exhausted enumeration, rewrite or nesting budgets (a document
nested deeper than the recursion limit, or out of memory), 4 a bound
check failed (oracle violation or self-check mismatch).

`main(argv)` runs one command in-process and returns its exit code; the
argument parser is built once at import, so repeated calls pay only for
their analysis.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import cft, oracle, symbolic
from .awcet import abstract, const_seq, ms_index
from .cfg import TOP, LoopForest
from .errors import (
    FuelExhausted,
    IrreducibleLoop,
    PathBudgetExceeded,
    SymwcetError,
)
from .pipeline import Analysis, analyze_text
from .symbolic import DEFAULT_FUEL, Formula

_INT_RE = re.compile(r"\d+\Z")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; we reserve 2 for irreducible
    control flow, so usage problems exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    p = _Parser(prog="symwcet",
                description="Parametric WCET analysis on program documents.")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(sp):
        sp.add_argument("--input", required=True, help="program document (JSON)")
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("check", help="validate a document and its loops")
    common(sp)

    sp = sub.add_parser("tree", help="print the control-flow tree")
    common(sp)

    sp = sub.add_parser("formula", help="print the simplified WCET formula")
    common(sp)
    sp.add_argument("--stats", action="store_true",
                    help="report operand counts before and after rewriting")
    sp.add_argument("--fuel", type=int, default=DEFAULT_FUEL,
                    help="rewrite step budget (default %d)" % DEFAULT_FUEL)

    sp = sub.add_parser("wcet", help="evaluate the WCET for given bindings")
    common(sp)
    sp.add_argument("--bind", action="append", default=[], metavar="ID=VALUE",
                    help="bind an identifier (repeatable)")
    sp.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    sp.add_argument("--self-check", action="store_true",
                    help="also evaluate the unsimplified formula and compare")

    sp = sub.add_parser("sweep", help="evaluate the WCET over a range")
    common(sp)
    sp.add_argument("--bind", action="append", default=[], metavar="ID=VALUE")
    sp.add_argument("--sweep", required=True, metavar="ID=LO..HI")
    sp.add_argument("--fuel", type=int, default=DEFAULT_FUEL)

    sp = sub.add_parser("oracle", help="cross-check against path enumeration")
    common(sp)
    sp.add_argument("--max-paths", type=int, default=oracle.MAX_PATHS)

    return p


_PARSER = _build_parser()


def _budget(value: int, what: str) -> int:
    """A step or path budget; a negative one is a usage error."""
    if value < 0:
        raise SymwcetError(f"{what} must be a non-negative integer, "
                           f"got {value}")
    return value


def _load(args) -> Analysis:
    with open(args.input, "r", encoding="utf-8") as fh:
        return analyze_text(fh.read())


def _emit(args, text_lines: list[str], payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _parse_bindings(pairs: list[str]) -> dict[str, int | str]:
    out: dict[str, int | str] = {}
    for pair in pairs:
        name, eq, value = pair.partition("=")
        if not eq or not name:
            raise SymwcetError(f"binding {pair!r} is not of the form ID=VALUE")
        out[name] = int(value) if _INT_RE.match(value) else value
    return out


def _classify_identifiers(w: Formula):
    """Identifier names by position; a name in two positions is an error."""
    wcet_ids, int_ids = symbolic.identifiers(w)
    clash = wcet_ids & int_ids
    if clash:
        raise SymwcetError(f"identifiers used in conflicting positions: "
                           f"{sorted(clash)}")
    return wcet_ids, int_ids


def _typed_bindings(raw: dict[str, int | str], wcet_ids: set[str],
                    int_ids: set[str]) -> dict:
    """The bindings as `evaluate` takes them, given the formula's
    identifiers by position."""
    typed: dict[str, object] = {}
    for name, value in raw.items():
        if name in wcet_ids:
            if not isinstance(value, int):
                raise SymwcetError(f"{name!r} is a cost identifier and needs "
                                   f"an integer value, got {value!r}")
            typed[name] = abstract(TOP, const_seq(value))
        elif name in int_ids:
            if not isinstance(value, int):
                raise SymwcetError(f"{name!r} is a count identifier and needs "
                                   f"an integer value, got {value!r}")
            typed[name] = value
        # Bindings for identifiers the formula does not use are ignored.
    return typed


def _formula_of(a: Analysis, fuel: int):
    raw = symbolic.gamma_symbolic(a.tree, a.forest)
    return raw, symbolic.simplify(raw, a.forest, fuel=fuel)


def _annotation_rows(t: cft.Cft) -> list[dict]:
    rows = []
    for node in cft.subtrees(t):
        ann = node.annotation
        if ann is not None:
            rows.append({"node": cft.to_sexpr(node), "loop": str(ann.loop),
                         "max": ann.max})
    return rows


def cmd_check(args) -> int:
    a = _load(args)
    g = a.cfg
    entry, exit_ = g.blocks[g.entry], g.blocks[g.exit]
    loops = {h: info.bound for h, info in sorted(a.forest.loops.items())}
    lines = [
        f"name: {g.name}",
        f"blocks: {len(g.blocks)}",
        f"edges: {len(g.edges)}",
        f"entry: {entry}",
        f"exit: {exit_}",
        "loops: " + (" ".join(f"{h}(bound={b})" for h, b in loops.items())
                     or "none"),
        "ok",
    ]
    _emit(args, lines, {"name": g.name, "blocks": len(g.blocks),
                        "edges": len(g.edges), "entry": entry,
                        "exit": exit_, "loops": loops, "ok": True})
    return 0


def cmd_tree(args) -> int:
    a = _load(args)
    stripped = cft.to_sexpr(a.tree)
    payload = {
        "tree": stripped,
        "renamed": cft.to_sexpr(a.tree, display=lambda s: s),
        "rename_map": a.rename_map,
        "variant_map": a.variant_map,
        "annotations": _annotation_rows(a.tree),
    }
    _emit(args, [stripped], payload)
    return 0


def cmd_formula(args) -> int:
    fuel = _budget(args.fuel, "--fuel")
    a = _load(args)
    raw, simplified = _formula_of(a, fuel)
    text = symbolic.render(simplified)
    lines = [text]
    payload: dict = {"formula": text}
    if args.stats:
        initial = symbolic.structural_operand_count(a.tree)
        final = symbolic.operand_count(simplified)
        lines.append(f"operands: {initial} -> {final}")
        payload["initial_operands"] = initial
        payload["final_operands"] = final
    _emit(args, lines, payload)
    return 0


def cmd_wcet(args) -> int:
    fuel = _budget(args.fuel, "--fuel")
    a = _load(args)
    raw, simplified = _formula_of(a, fuel)
    bindings = _typed_bindings(_parse_bindings(args.bind),
                               *_classify_identifiers(raw))
    value = symbolic.evaluate(simplified, bindings, a.forest)
    result = ms_index(value.seq, 0)
    if args.self_check:
        direct = symbolic.evaluate(raw, bindings, a.forest)
        if direct != value:
            print(f"self-check failed: simplified {value} vs direct {direct}",
                  file=sys.stderr)
            return 4
    _emit(args, [str(result)], {"wcet": result})
    return 0


def _residual(w: Formula, base: dict, name: str, f: LoopForest,
              fuel: int) -> Formula:
    """w with every binding but `name`'s folded in and simplified again, so
    that each point of a sweep evaluates only what depends on `name`.

    The sweep's first point has evaluated w with all of `base` bound, so
    substitution finds no wrong binding.  Where the rewrite budget or the
    recursion limit cannot build the residual, w itself is returned.
    """
    try:
        return symbolic.simplify(symbolic.substitute(
            w, {k: v for k, v in base.items() if k != name}), f, fuel=fuel)
    except (FuelExhausted, RecursionError):
        return w


_SWEEP_RE = re.compile(r"(?P<id>[^=]+)=(?P<lo>\d+)\.\.(?P<hi>\d+)\Z")


def cmd_sweep(args) -> int:
    fuel = _budget(args.fuel, "--fuel")
    a = _load(args)
    m = _SWEEP_RE.match(args.sweep)
    if not m:
        raise SymwcetError(f"--sweep must look like ID=LO..HI, got "
                           f"{args.sweep!r}")
    name, lo, hi = m.group("id"), int(m.group("lo")), int(m.group("hi"))
    if hi < lo:
        raise SymwcetError(f"empty sweep range {lo}..{hi}")
    raw, simplified = _formula_of(a, fuel)
    wcet_ids, int_ids = _classify_identifiers(raw)
    base = _typed_bindings(_parse_bindings(args.bind), wcet_ids, int_ids)
    rows = []
    # The first point evaluates the whole formula, so a wrong or missing
    # binding fails there, with the error a single evaluation gives; the
    # later points evaluate the residual.
    formula = simplified
    for v in range(lo, hi + 1):
        point = dict(base)
        point[name] = abstract(TOP, const_seq(v)) if name in wcet_ids else v
        value = symbolic.evaluate(formula, point, a.forest)
        rows.append((v, ms_index(value.seq, 0)))
        if v == lo and lo < hi:
            formula = _residual(simplified, base, name, a.forest, fuel)
    lines = [f"{name},wcet"] + [f"{v},{w}" for v, w in rows]
    _emit(args, lines, {"identifier": name,
                        "rows": [[v, w] for v, w in rows]})
    return 0


def cmd_oracle(args) -> int:
    max_paths = _budget(args.max_paths, "--max-paths")
    a = _load(args)
    inc = oracle.check_path_inclusion(a.cfg, a.forest, a.tree,
                                      a.variant_map, max_paths=max_paths)
    snd = oracle.check_soundness(a.tree, a.forest, max_paths=max_paths)
    lines = [
        f"inclusion: {'ok' if inc.ok else 'FAILED'} "
        f"({inc.program_paths} program paths, {inc.tree_paths} tree paths)",
        f"soundness: {'ok' if snd.ok else 'FAILED'} "
        f"(bound {snd.bound}, worst path "
        f"{snd.worst_path if snd.worst_path is not None else 'n/a'})",
    ]
    if snd.gap_percent is not None:
        lines.append(f"pessimism: {snd.gap_percent:.1f}%")
    for v in inc.missing:
        lines.append("missing tree path: " + " ".join(v))
    for v in snd.violations:
        lines.append("violation: " + v)
    payload = {
        "inclusion": {"ok": inc.ok, "program_paths": inc.program_paths,
                      "tree_paths": inc.tree_paths,
                      "missing": [list(p) for p in inc.missing]},
        "soundness": {"ok": snd.ok, "bound": snd.bound,
                      "worst_path": snd.worst_path,
                      "gap_percent": snd.gap_percent,
                      "violations": snd.violations},
    }
    _emit(args, lines, payload)
    return 0 if inc.ok and snd.ok else 4


_COMMANDS = {
    "check": cmd_check,
    "tree": cmd_tree,
    "formula": cmd_formula,
    "wcet": cmd_wcet,
    "sweep": cmd_sweep,
    "oracle": cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except IrreducibleLoop as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PathBudgetExceeded, FuelExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print(f"error: document nested too deeply (recursion limit "
              f"{sys.getrecursionlimit()})", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except SymwcetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # A cache hit compares equal formulas by recursive __eq__, which can
        # exceed the recursion limit where building them did not; the next
        # call starts from an empty cache, as a fresh process does.
        symbolic.sort_key.cache_clear()


if __name__ == "__main__":
    sys.exit(main())
