"""Exhaustive path oracles.

Desk-scale reference semantics used to cross-check the analysis: enumerate
the bounded executions of a program graph, enumerate the paths a
control-flow tree admits, and compare both against the abstract WCET.
Everything here is exponential by design and guarded by explicit budgets.
Annotations and the loops entered above them are read off `cft.walk`;
`tpaths` builds path sets per node and recurses, as the tree's folds do.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import cft
from .awcet import eval_seq, gamma, ms_index
from .cfg import TOP, Cfg, LoopForest, loop_ref
from .errors import PathBudgetExceeded, SymbolicValuePresent

MAX_PATHS = 10 ** 6
MAX_NODES = 10 ** 7

LeafPath = tuple[cft.Leaf, ...]


def _require_int(value, what: str) -> int:
    if isinstance(value, str):
        raise SymbolicValuePresent(f"{what} {value!r} must be concrete for "
                                   f"path enumeration")
    return value


# ---------------------------------------------------------------------------
# Program paths
# ---------------------------------------------------------------------------


def gpaths_bounded(g: Cfg, f: LoopForest, end: str | None = None,
                   max_paths: int = MAX_PATHS,
                   max_nodes: int = MAX_NODES) -> list[tuple[str, ...]]:
    """All entry-to-end paths taking each loop's back edges at most `bound`
    times per entry of the loop."""
    end_at = g.exit if end is None else g.block_index[end]
    # Back and entry edges lead to their loop's header, so the edge's
    # target keys its loop's counter.
    backs: set[tuple[int, int]] = set()
    entries: set[tuple[int, int]] = set()
    bounds: dict[int, int] = {}
    for info in f.loops.values():
        bounds[g.block_index[info.header]] = _require_int(
            info.bound, f"bound of loop {info.header!r}")
        backs.update(info.back_edges)
        entries.update(info.entry_edges)

    # A partial path is a linked cell (block, previous cell), so a step
    # costs the same at any depth; a path is spelled out when it reaches end.
    ids, succs = g.blocks, g.succs
    paths: list[tuple[str, ...]] = []
    visited = 0
    stack: list[tuple[int, tuple, dict[int, int]]] = [
        (g.entry, (g.entry, None), {})
    ]
    while stack:
        block, cell, counters = stack.pop()
        visited += 1
        if visited > max_nodes:
            raise PathBudgetExceeded(f"more than {max_nodes} path nodes")
        if block == end_at:
            path: list[str] = []
            link = cell
            while link is not None:
                path.append(ids[link[0]])
                link = link[1]
            paths.append(tuple(reversed(path)))
            if len(paths) > max_paths:
                raise PathBudgetExceeded(f"more than {max_paths} program paths")
        for succ in succs[block]:
            c = counters
            if (block, succ) in backs:
                taken = c.get(succ, 0) + 1
                if taken > bounds[succ]:
                    continue
                c = {**c, succ: taken}
            elif (block, succ) in entries:
                if c.get(succ, 0):
                    c = {**c, succ: 0}
            stack.append((succ, (succ, cell), c))
    return paths


# ---------------------------------------------------------------------------
# Tree paths
# ---------------------------------------------------------------------------


def patterns_of(t: cft.Cft, max_paths: int = MAX_PATHS) -> tuple[tuple[str, ...], ...]:
    """Deduplicated label words an annotated subtree can contribute; the
    empty word is dropped (it never constrains anything)."""
    words = {tuple(leaf.label for leaf in p) for p in tpaths(t, max_paths)}
    words.discard(())
    return tuple(sorted(words))


def occ(patterns, word: tuple[str, ...]) -> int:
    """Occurrence count: per pattern, non-overlapping left-to-right matches;
    summed over the (deduplicated) patterns."""
    total = 0
    for pat in set(patterns):
        k = len(pat)
        if k == 0:
            continue
        i = 0
        while i + k <= len(word):
            if word[i:i + k] == pat:
                total += 1
                i += k
            else:
                i += 1
    return total


def tpaths(t: cft.Cft, max_paths: int = MAX_PATHS) -> list[LeafPath]:
    """Paths the tree admits: alternatives branch, sequences concatenate,
    a loop runs its body 0..bound times and its exit once.  Annotations
    tied to a loop filter that loop's per-entry paths; annotations whose
    loop is not entered inside t (including per-run ones) do not filter
    here - see prep()."""

    def guard(paths: list[LeafPath]) -> list[LeafPath]:
        if len(paths) > max_paths:
            raise PathBudgetExceeded(f"more than {max_paths} tree paths")
        return paths

    if isinstance(t, cft.Leaf):
        return [(t,)]
    if isinstance(t, cft.Alt):
        out: list[LeafPath] = []
        for c in t.children:
            out.extend(tpaths(c, max_paths))
        return guard(out)
    if isinstance(t, cft.Seq):
        out = [()]
        for c in t.children:
            child = tpaths(c, max_paths)
            out = guard([p + q for p in out for q in child])
        return out
    # Loop
    bound = _require_int(t.bound, f"bound of loop {t.header!r}")
    ref = loop_ref(t.header)
    filters: list[tuple[tuple[tuple[str, ...], ...], int]] = []
    for node in cft.subtrees(t.body):
        ann = node.annotation
        if ann is not None and ann.loop == ref:
            cap = _require_int(ann.max, f"cap for loop {t.header!r}")
            filters.append((patterns_of(node, max_paths), cap))
    body = tpaths(t.body, max_paths)
    exits = tpaths(t.exit, max_paths)
    out = []
    stays: list[LeafPath] = [()]
    for i in range(bound + 1):
        for stay in stays:
            for e in exits:
                full = stay + e
                if all(occ(pats, tuple(l.label for l in full)) <= cap
                       for pats, cap in filters):
                    out.append(full)
        guard(out)
        if i < bound:
            stays = guard([s + b for s in stays for b in body])
    return out


def _external_filters(t: cft.Cft, max_paths: int = MAX_PATHS):
    """Annotations not resolved by any loop inside t: per-run ones and those
    naming a loop t does not enter."""
    out: list[tuple[tuple[tuple[str, ...], ...], int]] = []
    for node, _, entered in cft.walk(t):
        ann = node.annotation
        if ann is not None and (ann.loop == TOP or ann.loop.header
                                not in cft.spell_out(entered)):
            cap = _require_int(ann.max, "annotation cap")
            out.append((patterns_of(node, max_paths), cap))
    return out


def _entry_feasible(combo: tuple[LeafPath, ...], filters,
                    entries: int) -> bool:
    """Can the runs in combo be dealt out to `entries` entries so that each
    entry's concatenation respects every cap?  Caps are per entry of the
    annotation's loop, never pooled across entries."""
    if not filters:
        return True
    for assign in product(range(entries), repeat=len(combo)):
        ok = True
        for ent in range(entries):
            word: LeafPath = sum((combo[i] for i in range(len(combo))
                                  if assign[i] == ent), ())
            labels = tuple(l.label for l in word)
            if not all(occ(pats, labels) <= cap for pats, cap in filters):
                ok = False
                break
        if ok:
            return True
    return False


def prep(t: cft.Cft, entries: int, n: int,
         max_paths: int = MAX_PATHS) -> list[LeafPath]:
    """Candidate words for `entries` entries of a context running t `n`
    times: n-fold concatenations of t's paths, kept when the runs can be
    distributed over the entries with every entry respecting each external
    annotation cap on its own."""
    base = tpaths(t, max_paths)
    filters = _external_filters(t, max_paths)
    out: list[LeafPath] = []
    count = 0
    for combo in product(base, repeat=n):
        count += 1
        if count > max_paths:
            raise PathBudgetExceeded(f"more than {max_paths} candidate words")
        if _entry_feasible(combo, filters, entries):
            out.append(sum(combo, ()))
    return out


def leaf_path_wcet(path: LeafPath) -> int:
    total = 0
    for leaf in path:
        total += _require_int(leaf.wcet, f"cost of leaf {leaf.label!r}")
    return total


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


@dataclass
class InclusionReport:
    ok: bool
    program_paths: int
    tree_paths: int
    missing: list[tuple[str, ...]]


def check_path_inclusion(g: Cfg, f: LoopForest, t: cft.Cft,
                         variant_map: dict[str, str] | None = None,
                         max_paths: int = MAX_PATHS) -> InclusionReport:
    """Every bounded program path must be a path of the tree (Leaf labels
    stripped of rename suffixes, split variants mapped back).

    Annotations are removed first: they encode infeasibility knowledge the
    graph cannot express, so they may exclude graph paths on purpose.  The
    inclusion claim is about the restructured shape alone."""
    variant_map = variant_map or {}

    def original(label: str) -> str:
        base = cft.strip_suffix(label)
        return variant_map.get(base, base)

    bare = cft.strip_annotations(t)
    gp = set(gpaths_bounded(g, f, max_paths=max_paths))
    tp = {tuple(original(l.label) for l in p) for p in tpaths(bare, max_paths)}
    missing = sorted(p for p in gp if p not in tp)
    return InclusionReport(ok=not missing, program_paths=len(gp),
                           tree_paths=len(tp), missing=missing[:10])


def _entry_maxima(t: cft.Cft, n: int,
                  max_paths: int = MAX_PATHS) -> list[int | None]:
    """g[k] = largest cost of k runs of t within a single entry of every
    external cap loop, for k = 0..n; None where no k-run word is feasible.

    When every external pattern is a single leaf, occurrence counts are
    order independent, so the k slots are filled by dynamic programming
    over remaining caps instead of enumerating orderings.
    """
    filters = _external_filters(t, max_paths)
    base = tpaths(t, max_paths)
    single_leaf = all(all(len(p) == 1 for p in pats) for pats, _ in filters)
    g: list[int | None] = [0]
    if not single_leaf:
        for k in range(1, n + 1):
            if len(base) ** k > max_paths:
                raise PathBudgetExceeded("too many word orderings to enumerate")
            best: int | None = None
            for word in prep(t, 1, k, max_paths):
                w = leaf_path_wcet(word)
                best = w if best is None or w > best else best
            g.append(best)
        return g

    caps = [cap for _, cap in filters]
    profiled = []
    for p in base:
        labels = tuple(l.label for l in p)
        profile = tuple(occ(pats, labels) for pats, _ in filters)
        profiled.append((leaf_path_wcet(p), profile))
    states: dict[tuple[int, ...], int] = {tuple(caps): 0}
    for _ in range(n):
        nxt: dict[tuple[int, ...], int] = {}
        for remaining, total in states.items():
            for w, profile in profiled:
                if all(profile[i] <= remaining[i] for i in range(len(caps))):
                    key = tuple(remaining[i] - profile[i]
                                for i in range(len(caps)))
                    if key not in nxt or nxt[key] < total + w:
                        nxt[key] = total + w
        states = nxt
        if not states:
            # Nothing fits k runs in one entry; more runs cannot fit either.
            g.extend([None] * (n + 1 - len(g)))
            break
        g.append(max(states.values()))
    return g


def _compositions(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def _spread_maximum(g: list[int | None], entries: int,
                    n: int) -> int | None:
    """Largest cost of n runs spread over `entries` entries, from a table g
    of single-entry maxima (see _entry_maxima) holding at least n + 1
    entries; None when no distribution is feasible."""
    best: int | None = None
    for combo in _compositions(n, entries):
        pieces = [g[k] for k in combo]
        if any(p is None for p in pieces):
            continue
        total = sum(pieces)
        if best is None or total > best:
            best = total
    return best


@dataclass
class SoundnessReport:
    ok: bool
    bound: int
    worst_path: int | None
    gap_percent: float | None
    violations: list[str]


def check_soundness(t: cft.Cft, f: LoopForest,
                    max_paths: int = MAX_PATHS) -> SoundnessReport:
    """The abstract WCET must dominate every admitted word, and dominate
    rank-wise for repeated entries of every subtree."""
    violations: list[str] = []
    bound = worst = None
    for sub in cft.subtrees(t):
        g_sub = gamma(sub, f)
        # g[k] does not depend on the table's length, so one table for the
        # most runs checked below serves every smaller run count too.
        table = _entry_maxima(sub, 4, max_paths)
        if sub is t:  # preorder: the root comes first
            bound = ms_index(g_sub.seq, 0)
            worst = _spread_maximum(table, 1, 1)
            if worst is not None and worst > bound:
                violations.append(f"worst admitted word costs {worst}, "
                                  f"abstract bound is {bound}")
        for e in (1, 2):
            for n in (e, 2 * e):
                cap = eval_seq(g_sub.seq, e, n)
                w = _spread_maximum(table, e, n)
                if w is not None and w > cap:
                    violations.append(
                        f"subtree {cft.to_sexpr(sub)}: {n} runs over {e} "
                        f"entries cost {w}, ranking allows {cap}")

    gap = None
    if worst is not None and worst > 0:
        gap = 100.0 * (bound - worst) / worst
    return SoundnessReport(ok=not violations, bound=bound, worst_path=worst,
                           gap_percent=gap, violations=violations)
