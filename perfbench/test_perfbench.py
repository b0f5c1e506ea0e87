"""The benchmark's own checks: references, repeatability, report schema.

Each workload runs as a tiny instance (a short chain, small bounds, a
handful of documents) through the same code paths the timed runs use.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from perfbench import docs, reference, spans, worker, workloads

TINY = {
    "chain_symbolic": {"sections": 12},
    "big_values": {"scale": 0.0005},
    "corpus_cli": {"size": 8},
}


def _gamma(doc: dict) -> int:
    from symwcet.awcet import gamma, ms_index
    from symwcet.pipeline import analyze_text

    a = analyze_text(json.dumps(doc))
    return ms_index(gamma(a.tree, a.forest).seq, 0)


def test_closed_forms_match_oracle_at_small_values():
    oracle = reference.Oracle()
    assert reference.check_shapes(oracle) == []
    assert reference.check_chain(oracle, *docs.chain_doc(random.Random(5), 9)) == []
    for n in range(1, 4):
        for m in range(1, 4):
            for cap in range(0, n * m + 2):
                doc = docs.triangular_doc(n, m, cap)
                low, high = oracle.window(doc)
                want = reference.triangular_wcet(n, m, cap)
                assert low <= want <= high
                if cap >= n * m:
                    assert want == low
                assert want == _gamma(doc)
    for b in range(1, 6):
        assert reference.persistence_wcet(b) == oracle.worst(docs.persistence_doc(b))
    for o in range(1, 4):
        for i in range(1, 4):
            assert reference.running_wcet(o, i) == oracle.worst(
                docs.running_example_doc(o, i))


def test_tail_takes_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 101)]
    assert worker.tail(values) == (90, 90.0)
    assert worker.tail(values[:25]) == (50, 13.0)
    assert worker.tail(values[:5]) == (100.0, 5.0)


def test_trimmed_mean_leaves_out_a_tenth_at_each_end():
    assert worker.trimmed_mean([0.0] + [1.0] * 8 + [100.0]) == 1.0
    assert worker.trimmed_mean([2.0, 4.0]) == 3.0


def test_clear_memos_empties_the_analyzer_caches():
    from symwcet import symbolic

    symbolic.sort_key(symbolic.CONST_ZERO)
    assert symbolic.sort_key.cache_info().currsize > 0
    workloads.clear_memos()
    assert symbolic.sort_key.cache_info().currsize == 0


def _run(name: str, seed: int, tmp_path: Path, trace: bool = False):
    wl = workloads.WORKLOADS[name](seed, str(tmp_path), **TINY[name])
    wl.warm_up()
    tracer = spans.Tracer() if trace else None
    records, calibrations = worker.timed_loop(wl, 0.0, tracer)
    assert calibrations
    oracle = reference.Oracle()
    failed, problems = worker.check(wl, records, oracle)
    assert (failed, problems) == (0, [])
    return wl, records, tracer, oracle


@pytest.mark.parametrize("name", sorted(TINY))
def test_sizes_repeat_for_a_seed(name, tmp_path):
    first = worker.formula_sizes(_run(name, 3, tmp_path / "a")[0], traced=True)
    second = worker.formula_sizes(_run(name, 3, tmp_path / "b")[0], traced=True)
    for key in ("formula_operands", "formula_bytes", "restructure.tree_leaves"):
        assert first[key] == second[key] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    wl, records, tracer, oracle = _run(name, 4, tmp_path, trace=True)
    traced = sorted(r[0] for r in records if r[5])
    assert traced and traced == sorted(r[0] for r in records if not r[5])
    tracer.install()
    try:
        sizes = worker.formula_sizes(wl, traced=True)
    finally:
        tracer.uninstall()
    untraced = [r[3] for r in records if not r[5]]
    metrics = worker.layer_metrics(tracer, untraced, sizes, oracle)
    bench = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in bench["per_layer"]}
    assert metrics["oracle.paths"] > 0
    assert 0.5 < metrics["trace.coverage"] <= 1.0


def test_benchmark_file_matches_reported_metrics():
    bench = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert worker.UNITS[m["name"]] == m["unit"]
    assert len(bench["end_to_end"]) + len(bench["per_layer"]) == len(worker.UNITS)
