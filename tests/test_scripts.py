"""Smoke tests for the runnable scripts under scripts/."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120, cwd=ROOT)


def _run_example(document: str) -> subprocess.CompletedProcess:
    return _run(str(ROOT / "scripts" / "run_example.py"),
                str(ROOT / "samples" / document))


def test_run_example_concrete():
    proc = _run_example("fig2.json")
    assert proc.returncode == 0, proc.stderr
    assert "WCET: 60" in proc.stdout.splitlines()


def test_run_example_symbolic():
    proc = _run_example("fig2_symbolic.json")
    assert proc.returncode == 0, proc.stderr
    assert "  parameters: x_b2" in proc.stdout.splitlines()


def test_module_entry_point():
    proc = _run("-m", "symwcet", "wcet", "--input", "samples/fig2.json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "60\n"
