#!/usr/bin/env python3
"""symwcet benchmark: one workload, one client, closed loop.

    python3 perfbench/run.py --workload chain_symbolic --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout (the analyzer is imported from
src/).  The workload runs in its own process, launched SETUP_SAMPLES times:
all but the last launch stop after set-up, and setup_s is the median time
from launch to the first timed request.  Every time reported is scaled to
a reference machine speed (see worker.py).  With --trace 0 it reports the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run
(spans are written to .perfbench-out/).  `--workload all` runs every
workload in turn.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.worker import UNITS  # noqa: E402

WORKLOADS = ("chain_symbolic", "big_values", "corpus_cli")
END_TO_END = ("request_ms", "request_tail_ms", "instantiate_us",
              "formula_operands", "formula_bytes", "peak_rss_mib", "setup_s")
SETUP_SAMPLES = 9
TIME_LIMIT_S = 170  # per workload, set-up launches included


def launch(args, workdir: Path, deadline: float, setup_only: bool) -> dict:
    """Run one worker process to completion; returns its report."""
    cmd = [sys.executable, "-m", "perfbench.worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{args.workload}: worker exceeded the time limit")
    finally:
        if proc.poll() is None:  # timed out or interrupted: stop the worker
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"{args.workload}: worker exited with "
                           f"{proc.returncode}:\n{err[-2000:]}")
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = report["first_request_at"] - started
    return report


def run_workload(args) -> dict:
    """Set-up samples plus the measured run, as {correct, attempted, ...}."""
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_SAMPLES - 1):
                setups.append(launch(args, workdir / f"s{k}", deadline,
                                     True)["setup_s"])
        report = launch(args, workdir / "run", deadline, False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()
    metrics = report["metrics"]
    if not args.trace:
        # Set-up launches run just before the measured one, so the measured
        # run's speed scale applies to them too.
        metrics["setup_s"] = statistics.median(
            setups + [report["setup_s"]]) * report["scale"]
    for problem in report["problems"][:10]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    return {"correct": report["failed"] == 0 and not report["problems"],
            "attempted": report["attempted"], "failed": report["failed"],
            "metrics": metrics, "info": report.get("info", {}),
            "calibration_ms": report["calibration_ms"]}


def print_rows(name: str, result: dict, trace: bool) -> None:
    m = result["metrics"]
    error_rate = result["failed"] / result["attempted"]
    if trace:
        print(f"== {name} (traced; calibration "
              f"{result['calibration_ms']:.3f} ms) ==")
        for k, v in m.items():
            print(f"  {k:32s} {v:14.4f} {UNITS[k]}")
        print(f"  {'error_rate':32s} {error_rate:14.4f} ratio")
        return
    info = result["info"]
    cells = [f"{m[k]:.4g} {UNITS[k]}" for k in END_TO_END]
    cells[1] += f" (p{info['tail_percentile']:g} of {info['tail_samples']})"
    cells.append(f"{error_rate:.4g} ratio")
    cells.append(f"calibration {result['calibration_ms']:.3f} ms")
    print(f"{name:15s} " + " | ".join(cells), flush=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "symwcet" / "__init__.py").is_file():
        print(f"error: no symwcet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if not args.trace:
        print(f"{'workload':15s} " + " | ".join(END_TO_END + ("error_rate",)))
    results = {}
    for name in names:
        try:
            results[name] = run_workload(argparse.Namespace(**{**vars(args),
                                                               "workload": name}))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_rows(name, results[name], args.trace)

    metrics = {(k if len(names) == 1 else f"{n}.{k}"): {"value": v, "unit": UNITS[k]}
               for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
