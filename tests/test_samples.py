"""Pinned CLI outputs for the documents under samples/.

Every command (text and json form) runs in-process on every sample, and
its exit code, stdout and stderr must equal the record in
tests/golden/samples.json.  After a deliberate output change, rewrite the
record with

    python3 tests/test_samples.py

and review the diff of the golden file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "samples.json"

COMMANDS = (
    ["check"],
    ["tree"],
    ["formula"],
    ["formula", "--stats"],
    ["wcet"],
    ["wcet", "--self-check"],
    ["oracle"],
)
EXTRA = {
    "fig2_symbolic.json": (["sweep", "--sweep", "x_b2=1..6"],),
    "triangular.json": (["wcet", "--bind", "n=1000000000"],),
}


def samples() -> list[str]:
    return sorted(p.name for p in (ROOT / "samples").glob("*.json"))


def cases(sample: str) -> list[list[str]]:
    out = []
    for command in (*COMMANDS, *EXTRA.get(sample, ())):
        for fmt in ("text", "json"):
            out.append([command[0], "--input", f"samples/{sample}",
                        *command[1:], "--format", fmt])
    return out


def record(sample: str) -> dict[str, dict]:
    """Exit code, stdout and stderr of every case; paths are relative to
    the repository root, which must be the working directory."""
    from symwcet import cli

    runs = {}
    for argv in cases(sample):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        runs[" ".join(argv)] = {"exit": code, "stdout": out.getvalue(),
                                "stderr": err.getvalue()}
    return runs


def test_golden_covers_every_sample():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == samples()


@pytest.mark.parametrize("sample", samples())
def test_sample_outputs_unchanged(sample, monkeypatch):
    monkeypatch.chdir(ROOT)
    want = json.loads(GOLDEN.read_text())[sample]
    got = record(sample)
    assert sorted(got) == sorted(want)
    for cmd, run in got.items():
        assert run == want[cmd], cmd


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {s: record(s) for s in samples()}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, data.values()))} runs to "
          f"{GOLDEN.relative_to(ROOT)}")
