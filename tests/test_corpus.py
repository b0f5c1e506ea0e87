"""The committed output corpus: every command on every document prints what
it printed when the digests were written (see tests/corpus.py)."""

from __future__ import annotations

import json
from collections import Counter

import corpus
from symwcet import symbolic
from symwcet.pipeline import analyze_text


def test_corpus_outputs_match_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    want = json.loads(corpus.DIGESTS.read_text())
    got: dict[str, dict[str, str]] = {}
    codes: Counter[int] = Counter()
    moved = []
    for doc_id, command, result in corpus.outputs():
        d = got.setdefault(doc_id, {})[command] = corpus.digest(result)
        codes[result[0]] += 1
        if want.get(doc_id, {}).get(command) != d:
            moved.append(f"{doc_id}: symwcet {command} -> exit {result[0]}")
    assert not moved, (f"{len(moved)} outputs differ from "
                       f"golden/corpus_digests.json:\n" + "\n".join(moved[:40]))
    assert got == want, "the corpus and its digests list different commands"
    # Every exit code but 4 (no check fails on these documents).
    assert set(codes) == {0, 1, 2, 3}, codes


def test_corpus_reaches_restrict_merge(monkeypatch):
    # Two annotations in one sequence sharing one symbolic cap are the only
    # documents that make a sum of restricts the rule merges.
    rule = symbolic._rule_restrict_merge
    fired = []

    def traced(w, f):
        new = rule(w, f)
        fired.append(new is not None)
        return new

    monkeypatch.setitem(symbolic._RULES, symbolic.Plus, tuple(
        traced if r is rule else r for r in symbolic._RULES[symbolic.Plus]))
    merged = 0
    for entry in corpus.entries():
        if entry["id"].startswith("restrict-merge-"):
            a = analyze_text(json.dumps(entry["doc"]))
            symbolic.simplify(symbolic.gamma_symbolic(a.tree, a.forest),
                              a.forest)
            merged += any(fired)
            fired.clear()
    assert merged >= 15
