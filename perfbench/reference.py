"""Reference answers the analyzer does not compute.

Closed forms for the chain and the big-value shapes are written out by hand
from the path structure of each document; the oracle references enumerate
paths with `symwcet.oracle`.  All closed forms are checked against the
oracle at small values, on every run (`check_shapes`, `check_chain`) and
in test_perfbench.py.
"""

from __future__ import annotations

import json
import time

from symwcet import cft
from symwcet.oracle import leaf_path_wcet, prep, tpaths
from symwcet.pipeline import analyze_text

from perfbench import docs

# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def chain_wcet(parts: list[tuple], binding: dict[str, int]) -> int:
    """Worst path of a chain: every section's worst contribution added up."""
    total = 0
    for part in parts:
        if part[0] == "block":
            total += part[1]
        elif part[0] == "diamond":
            _, d, a, j = part
            total += d + a + j
        else:
            _, h, c, bound = part
            b = binding[bound] if isinstance(bound, str) else bound
            total += (b + 1) * h + b * c
    return total


def triangular_wcet(n: int, m: int, cap: int) -> int:
    """Bound of triangular_doc(n, m, cap) under the cost-ranking algebra.

    Per inner iteration the body costs i + c = 10 while c is within its cap
    and i = 3 after; the inner loop sums those in groups of m per outer
    iteration, and a group cut by the cap counts its capped part at 10 and
    the rest at 3 (the algebra's sound rounding).  The outer loop adds o and
    the inner exit test, 2 + 3, per iteration, plus s, x and the final o.
    """
    full, rest = divmod(cap, m) if m else (0, 0)
    partial = 10 * rest + 3 * (m - rest)
    return 4 + 5 * n + min(n, full) * 10 * m + max(0, n - full) * partial


def persistence_wcet(bound: int) -> int:
    """One miss (9) and bound - 1 hits (2), bound + 1 header runs, exit 1."""
    return (bound + 1) + 9 + 2 * (bound - 1) + 1


def running_wcet(outer: int, inner: int) -> int:
    """b1 + max(b6, inner loop) + b3 per outer iteration, then b1 and b5."""
    return outer * (1 + max(6, 6 * inner + 2) + 3) + 1 + 5


SHAPE_WCET = {
    "triangular": triangular_wcet,
    "persistence": persistence_wcet,
    "running": running_wcet,
}


# ---------------------------------------------------------------------------
# Oracle references
# ---------------------------------------------------------------------------


def bind_bounds(doc: dict, binding: dict[str, int]) -> dict:
    """The document with its symbolic loop bounds replaced by values."""
    out = json.loads(json.dumps(doc))
    out["loop_bounds"] = {h: binding.get(b, b) if isinstance(b, str) else b
                          for h, b in doc.get("loop_bounds", {}).items()}
    return out


class Oracle:
    """Path-enumeration references, with the time and paths they cost."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.paths = 0

    def worst(self, doc: dict, strip: bool = False) -> int:
        """Cost of the worst path of a fully concrete document's tree that
        respects every annotation; with `strip`, ignoring the annotations."""
        start = time.perf_counter()
        tree = analyze_text(json.dumps(doc)).tree
        if strip:
            paths = tpaths(cft.strip_annotations(tree))
        else:
            paths = prep(tree, 1, 1)
        self.seconds += time.perf_counter() - start
        self.paths += len(paths)
        return max(leaf_path_wcet(p) for p in paths)

    def window(self, doc: dict) -> tuple[int, int]:
        """(low, high): the worst admitted word, and the exact worst path of
        the same tree with its annotations removed.  An unannotated document
        has low == high, its exact worst path."""
        return self.worst(doc), self.worst(doc, strip=True)


def check_shapes(oracle: Oracle) -> list[str]:
    """Check the big-value closed forms against the oracle at small values;
    returns a description of every disagreement.  The triangular closed
    form is exact when the cap does not bind and otherwise must lie within
    the oracle's window."""
    bad = []
    for n, m, cap in [(1, 1, 1), (2, 2, 4), (3, 2, 3), (2, 3, 2), (3, 3, 9)]:
        low, high = oracle.window(docs.triangular_doc(n, m, cap))
        want = triangular_wcet(n, m, cap)
        if want < low or want > high or (cap >= n * m and want != low):
            bad.append(f"triangular{(n, m, cap)}: closed form {want}, "
                       f"oracle {low}..{high}")
    for b in (1, 2, 3, 4):
        got = oracle.worst(docs.persistence_doc(b))
        if got != persistence_wcet(b):
            bad.append(f"persistence({b}): closed form {persistence_wcet(b)}, "
                       f"oracle {got}")
    for o, i in [(1, 1), (2, 1), (1, 2), (2, 3)]:
        got = oracle.worst(docs.running_example_doc(o, i))
        if got != running_wcet(o, i):
            bad.append(f"running({o}, {i}): closed form {running_wcet(o, i)}, "
                       f"oracle {got}")
    return bad


def check_chain(oracle: Oracle, doc: dict, parts: list[tuple]) -> list[str]:
    """Check the chain closed form against the oracle on a small chain from
    `docs.chain_doc`, its symbolic bounds bound to 2."""
    binding = {p[3]: 2 for p in parts if p[0] == "loop" and isinstance(p[3], str)}
    got = oracle.worst(bind_bounds(doc, binding))
    want = chain_wcet(parts, binding)
    return [] if got == want else [f"chain: closed form {want}, oracle {got}"]
