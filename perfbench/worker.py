"""One workload process: set up, run the timed loop, check, report.

    python3 -m perfbench.worker --workload NAME --seed N --seconds S
        --trace 0|1 --workdir DIR [--setup-only]

Runs from the checkout root with src/ and the root on PYTHONPATH (run.py
launches it so).  Prints one JSON object as its last line; a traced run
also writes its spans to .perfbench-out/.  `first_request_at` is the
CLOCK_MONOTONIC reading when set-up (imports, inputs, temp files, warm-up)
ended, so the launching process can compute the set-up time.  With
--setup-only it stops there.  Times in `metrics` are already scaled to the
reference machine speed; `scale` is the factor, for the set-up times.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import time
import traceback

TAIL_PERCENTILES = (99, 95, 90, 50)
SPANS_DIR = ".perfbench-out"  # relative to the checkout root

# Machine-speed calibration.  The processor's speed drifts by tens of
# percent over minutes on a shared machine, and the analyzer slows down
# with it.  Every run times a fixed pure-Python task, spread over the run,
# and scales each time it reports by REFERENCE_CALIBRATION_S over the
# (trimmed) mean time of that task: times read as on a machine where the
# task takes REFERENCE_CALIBRATION_S (roughly a 2-vCPU cloud VM under
# CPython 3.11).
REFERENCE_CALIBRATION_S = 0.0025
CALIBRATION_SHARE = 0.05  # of the timed loop's wall time
TIME_UNITS = ("s", "ms", "us")
TRIM = 0.1  # share of samples left out at each end of a trimmed mean

# Every metric the benchmark reports, with its unit.  The first seven are
# the end-to-end metrics of an untraced run, the rest the per-layer ones.
UNITS = {
    "request_ms": "ms", "request_tail_ms": "ms", "instantiate_us": "us",
    "formula_operands": "count", "formula_bytes": "bytes",
    "peak_rss_mib": "MiB", "setup_s": "s",
    "cfg.parse_ms": "ms", "cfg.forest_ms": "ms", "cfg.blocks": "count",
    "cfg.loops": "count", "restructure.build_cft_ms": "ms",
    "restructure.tree_leaves": "count", "restructure.dup_ratio": "ratio",
    "cft.annotate_ms": "ms", "cft.annotations_applied": "count",
    "pipeline.analyze_self_ms": "ms", "symbolic.gamma_ms": "ms",
    "symbolic.gamma_calls": "count", "symbolic.simplify_ms": "ms",
    "symbolic.evaluate_us": "us", "symbolic.render_ms": "ms",
    "symbolic.operands_structural": "count",
    "symbolic.operands_folded": "count",
    "symbolic.operands_simplified": "count", "awcet.op_calls": "count",
    "awcet.op_ms": "ms", "awcet.max_prefix_len": "count",
    "cli.main_self_ms": "ms", "cli.invocations": "count",
    "oracle.check_ms": "ms", "oracle.paths": "count",
    "trace.untraced_request_ms": "ms", "trace.request_ms": "ms",
    "trace.overhead_pct": "%", "trace.coverage": "ratio",
}


def tail(values: list[float]) -> tuple[float, float]:
    """The highest of TAIL_PERCENTILES with at least ten samples beyond it
    (nearest rank), as (percentile, value); the maximum if none has."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = -(-p * n // 100)  # ceil
        if n - rank >= 10:
            return p, ordered[int(rank) - 1]
    return 100.0, ordered[-1]


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python task that does the analyzer's
    kind of work (dicts, tuples, sorting, recursion); about 2-3 ms."""
    start = time.perf_counter()
    groups: dict = {}
    for i in range(4000):
        k = (i * 7919) % 613
        groups[k] = groups.get(k, ()) + (i & 15,)
    items = sorted(groups.items(), key=lambda kv: (sum(kv[1]), kv[0]))

    def depth(t: tuple, n: int) -> int:
        return n if not t else depth(t[1:], n + t[0] % 3)

    sum(depth(v[:40], 0) for _, v in items)
    return time.perf_counter() - start


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and highest TRIM share of the values.

    The machine alternates between a fast and a slow state at the scale of
    milliseconds, so the median of short timings jumps with the share of
    time spent slow; a mean follows that share smoothly, as the mean
    calibration time does, and trimming keeps rare pauses out."""
    ordered = sorted(values)
    k = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[k:len(ordered) - k])


def is_traced(i: int, cycle: int, period: int) -> bool:
    """Whether request i of a traced run is traced.  Whole request cycles
    alternate; where a pass over the keys holds an even number of cycles,
    the alternation flips on every pass, so each key is served both ways."""
    flip = i // period if (period // cycle) % 2 == 0 else 0
    return (i // cycle + flip) % 2 == 1


def timed_loop(wl, seconds: float, tracer=None) -> tuple[list[tuple], list[float]]:
    """Serve requests back to back until `seconds` have passed and every
    key has been served equally often.  With a tracer, traced and untraced
    requests alternate (see is_traced) and the run ends after whole pairs
    of passes over the keys, so both halves see the same requests and the
    same machine conditions.  The analyzer's memo tables are emptied before each
    request.  Between requests, calibrate() runs for CALIBRATION_SHARE of
    the elapsed time.  Returns (key, answer, error, seconds, eval_times,
    traced) per request, and the calibration times."""
    from perfbench import workloads

    records, calibrations, calibrated = [], [], 0.0
    distinct: dict = {}  # one copy of each answer, so records stay small
    period = wl.period if tracer is None else 2 * wl.period
    started = time.perf_counter()
    deadline = started + seconds
    i = 0
    while True:
        evals: list[float] = []
        traced = tracer is not None and is_traced(i, wl.cycle, wl.period)
        workloads.clear_memos()
        if traced:
            tracer.install()
            tracer.begin_request(i)
        start = time.perf_counter()
        try:
            answer, error = wl.request(i, evals), None
        except Exception:  # a failed request is counted, not fatal
            answer, error = None, traceback.format_exc(limit=3)
        end = time.perf_counter()
        if traced:
            tracer.end_request()
            tracer.uninstall()
        else:
            wl.between(i, evals)
        answer = distinct.setdefault(answer, answer)
        records.append((wl.key(i), answer, error, end - start, evals, traced))
        while calibrated < CALIBRATION_SHARE * (time.perf_counter() - started):
            calibrations.append(calibrate())
            calibrated += calibrations[-1]
        i += 1
        if end >= deadline and i % period == 0:
            return records, calibrations


def check(wl, records: list[tuple], oracle) -> tuple[int, list[str]]:
    """Failed request count and the problems behind it."""
    answers: dict = {}
    for key, answer, error, *_ in records:
        if error is None:
            answers.setdefault(key, set()).add(answer)
    wrong, problems = wl.check(answers, oracle)
    errors = [r[2] for r in records if r[2] is not None]
    failed = len(errors) + sum((r[0], r[1]) in wrong for r in records
                               if r[2] is None)
    return failed, problems + errors[:3]


def formula_sizes(wl, traced: bool) -> dict:
    """Formula and structure counts, summed over the workload's documents."""
    from symwcet import cft, restructure, symbolic

    out = {"formula_operands": 0, "formula_bytes": 0}
    if traced:
        out.update({k: 0 for k in (
            "cfg.blocks", "cfg.loops", "restructure.tree_leaves",
            "symbolic.operands_structural", "symbolic.operands_folded",
            "symbolic.operands_simplified")})
    for a, w in wl.formulas():
        out["formula_operands"] += symbolic.operand_count(w)
        out["formula_bytes"] += len(symbolic.render(w))
        if traced:
            tree, _ = restructure.build_cft(a.cfg, a.forest)
            out["cfg.blocks"] += len(a.cfg.blocks)
            out["cfg.loops"] += len(a.forest.loops)
            out["restructure.tree_leaves"] += len(cft.leaves(tree))
            out["symbolic.operands_structural"] += symbolic.operand_count(
                symbolic.gamma_symbolic(a.tree, a.forest, fold_concrete=False))
            out["symbolic.operands_folded"] += symbolic.operand_count(
                symbolic.gamma_symbolic(a.tree, a.forest))
            out["symbolic.operands_simplified"] += symbolic.operand_count(w)
    return out


def untraced_metrics(wl, records, peak_rss_kib: int) -> tuple[dict, dict]:
    """End-to-end metrics (all but setup_s) and the tail's percentile."""
    # The tail is taken over the request mix: each request counts at the
    # median time of its key (same document and command) over the run, so
    # it picks out slow requests, not moments when the machine was slow.
    by_key: dict = {}
    for r in records:
        by_key.setdefault(r[0], []).append(r[3])
    settled = [statistics.median(by_key[r[0]]) for r in records]
    # Mean request and evaluate time per request cycle: every cycle serves
    # the same mix, so statistics over cycles are steady even when the mix
    # spans orders of magnitude.  Evaluate calls are short: see trimmed_mean.
    cycles = [records[k:k + wl.cycle] for k in range(0, len(records), wl.cycle)]
    requests = [statistics.fmean(r[3] for r in c) for c in cycles]
    evals = [statistics.fmean(e) for c in cycles
             if (e := [t for r in c for t in r[4]])]
    percentile, tail_value = tail(settled)
    sizes = formula_sizes(wl, traced=False)
    return {
        "request_ms": statistics.median(requests) * 1e3,
        "request_tail_ms": tail_value * 1e3,
        "instantiate_us": trimmed_mean(evals) * 1e6,
        "formula_operands": sizes["formula_operands"],
        "formula_bytes": sizes["formula_bytes"],
        "peak_rss_mib": peak_rss_kib / 1024,
    }, {"tail_percentile": percentile, "tail_samples": len(records)}


def layer_metrics(tracer, untraced: list[float], sizes: dict, oracle) -> dict:
    """Per-layer metrics from the spans of the traced requests."""
    from perfbench.spans import REQUEST

    agg = tracer.per_request()
    requests = tracer.request_times()
    n = len(requests)

    def per_request_ms(*names: str) -> float:
        return sum(agg[k]["self"] for k in names) / n * 1e3

    def calls(name: str) -> float:
        return agg[name]["calls"] / n

    stages = [k for k in agg if k != REQUEST]
    evaluate = tracer.call_self_times("symbolic.evaluate")
    render = tracer.call_self_times("symbolic.render")
    traced_ms = statistics.median(requests) * 1e3
    untraced_ms = statistics.median(untraced) * 1e3
    return {
        "cfg.parse_ms": per_request_ms("cfg.parse"),
        "cfg.forest_ms": per_request_ms("cfg.forest"),
        "cfg.blocks": sizes["cfg.blocks"],
        "cfg.loops": sizes["cfg.loops"],
        "restructure.build_cft_ms": per_request_ms("restructure.build_cft"),
        "restructure.tree_leaves": sizes["restructure.tree_leaves"],
        "restructure.dup_ratio": sizes["restructure.tree_leaves"] / sizes["cfg.blocks"],
        "cft.annotate_ms": per_request_ms("cft.annotate"),
        "cft.annotations_applied": calls("cft.annotate"),
        "pipeline.analyze_self_ms": per_request_ms("pipeline.analyze"),
        "symbolic.gamma_ms": per_request_ms("symbolic.gamma"),
        "symbolic.gamma_calls": calls("symbolic.gamma"),
        "symbolic.simplify_ms": per_request_ms("symbolic.simplify"),
        "symbolic.evaluate_us": statistics.fmean(evaluate) * 1e6 if evaluate else 0.0,
        "symbolic.render_ms": statistics.fmean(render) * 1e3 if render else 0.0,
        "symbolic.operands_structural": sizes["symbolic.operands_structural"],
        "symbolic.operands_folded": sizes["symbolic.operands_folded"],
        "symbolic.operands_simplified": sizes["symbolic.operands_simplified"],
        "awcet.op_calls": calls("awcet.op"),
        "awcet.op_ms": per_request_ms("awcet.op"),
        "awcet.max_prefix_len": tracer.max_prefix_len,
        "cli.main_self_ms": per_request_ms("cli.main"),
        "cli.invocations": calls("cli.main"),
        "oracle.check_ms": oracle.seconds * 1e3,
        "oracle.paths": oracle.paths,
        "trace.untraced_request_ms": untraced_ms,
        "trace.request_ms": traced_ms,
        "trace.overhead_pct": (traced_ms / untraced_ms - 1) * 100,
        "trace.coverage": per_request_ms(*stages) / (sum(requests) / n * 1e3),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import symwcet  # noqa: F401  (imports are part of set-up)

    from perfbench import reference, spans, workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    wl.warm_up()
    result: dict = {"first_request_at": time.monotonic()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    oracle = reference.Oracle()
    tracer = spans.Tracer() if args.trace else None
    records, calibrations = timed_loop(wl, args.seconds, tracer)
    # Peak memory of set-up and requests, before the size metrics below
    # build formulas of their own.
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is None:
        result["metrics"], result["info"] = untraced_metrics(wl, records,
                                                             peak_rss_kib)
    else:
        tracer.install()
        try:
            sizes = formula_sizes(wl, traced=True)
        finally:
            tracer.uninstall()
    result["failed"], result["problems"] = check(wl, records, oracle)
    result["attempted"] = len(records)
    if tracer is not None:
        untraced = [r[3] for r in records if not r[5]]
        result["metrics"] = layer_metrics(tracer, untraced, sizes, oracle)
        os.makedirs(SPANS_DIR, exist_ok=True)
        tracer.write(os.path.join(
            SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.csv"))
    result["scale"] = REFERENCE_CALIBRATION_S / trimmed_mean(calibrations)
    for name, value in result["metrics"].items():
        if UNITS[name] in TIME_UNITS:
            result["metrics"][name] = value * result["scale"]
    result["calibration_ms"] = trimmed_mean(calibrations) * 1e3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
