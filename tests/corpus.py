"""The committed output corpus: documents, the commands run on each, and
their outputs.

`golden/corpus.json` holds 1,000 documents: the five samples, the
irreducible triangle, schema mutants, documents whose sums carry two
restricts on one symbolic cap, loop nests (one too deep for the recursion
limit, so every command exits 3), and random documents with symbolic
bounds, costs and caps, half of them drawn with annotations and splits.
Each entry has an `id`, a `doc` (or, for text that is not JSON, a
`text`), its `bind` list and any `extra` commands.
`golden/corpus_digests.json` holds, per document and command, the first
16 hex digits of the SHA-256 of (exit code, stdout, stderr);
`tests/test_corpus.py` checks them.

    python tests/corpus.py outputs DIR   # every full output, one file per document
    python tests/corpus.py digests       # rewrite golden/corpus_digests.json

Run `outputs` at two commits and diff the directories to see what a change
moves.  Rewriting the digests carries the duty that editing
`golden/samples.json` does: CHANGES.md lists each changed entry and why.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Iterator

GOLDEN = Path(__file__).resolve().parent / "golden"
DOCUMENTS = GOLDEN / "corpus.json"
DIGESTS = GOLDEN / "corpus_digests.json"
INPUT = "doc.json"  # every command reads this file in the working directory


def entries() -> list[dict]:
    return json.loads(DOCUMENTS.read_text())["documents"]


def commands(entry: dict) -> list[list[str]]:
    """The seven commands every document gets, then its extra ones; each
    without `--input`."""
    bind = [arg for b in entry.get("bind", ()) for arg in ("--bind", b)]
    return [
        ["check"],
        ["tree", "--format", "json"],
        ["formula", "--stats", "--format", "json"],
        ["wcet", "--self-check", "--format", "json", *bind],
        ["wcet", *bind[2:]],  # the first binding left out
        ["formula", "--fuel", "1"],
        ["oracle", "--max-paths", "300"],
    ] + entry.get("extra", [])


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call on INPUT."""
    from symwcet import cli  # here, so that `_main` can put src/ on the path

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([argv[0], "--input", INPUT, *argv[1:]])
    return code, out.getvalue(), err.getvalue()


def digest(result: tuple[int, str, str]) -> str:
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()[:16]


def outputs() -> Iterator[tuple[str, str, tuple[int, str, str]]]:
    """(document id, command text, result) for every document and command,
    in corpus order.  Writes INPUT in the working directory."""
    for entry in entries():
        text = entry["text"] if "text" in entry else json.dumps(entry["doc"])
        Path(INPUT).write_text(text, encoding="utf-8")
        for argv in commands(entry):
            yield entry["id"], " ".join(argv), run(argv)


def _main(argv: list[str]) -> int:
    if argv == ["digests"]:
        out_dir = None
    elif len(argv) == 2 and argv[0] == "outputs":
        out_dir = Path(argv[1]).resolve()
    else:
        print(__doc__, file=sys.stderr)
        return 1
    sys.path.insert(0, str(GOLDEN.parent.parent / "src"))
    digests: dict[str, dict[str, str]] = {}
    files: dict[str, list[str]] = {}
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for doc_id, command, result in outputs():
            digests.setdefault(doc_id, {})[command] = digest(result)
            code, out, err = result
            files.setdefault(doc_id, []).append(
                f"$ symwcet {command}\n[exit {code}]\n{out}[stderr]\n{err}\n")
    if out_dir is None:
        DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    else:
        out_dir.mkdir(parents=True, exist_ok=True)
        for doc_id, chunks in files.items():
            (out_dir / f"{doc_id}.txt").write_text("".join(chunks))
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
