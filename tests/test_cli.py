"""CLI subcommands, exit codes, and output schemas (in-process, except the
`python -m symwcet` entry point)."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import generators as gen
from symwcet import cli, symbolic
from symwcet.awcet import abstract, const_seq, ms_index
from symwcet.cfg import TOP
from symwcet.errors import SymwcetError
from symwcet.oracle import SoundnessReport
from symwcet.pipeline import analyze_text

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"


@pytest.fixture()
def fig2_path(tmp_path):
    p = tmp_path / "fig2.json"
    p.write_text(json.dumps(gen.running_example_doc()))
    return str(p)


@pytest.fixture()
def sym_path(tmp_path):
    p = tmp_path / "fig2_sym.json"
    p.write_text(json.dumps(gen.running_example_doc(inner_bound=None)))
    return str(p)


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv + ["--format", "json"])
    return code, (json.loads(out) if out else None), err


# ---------------------------------------------------------------------------
# Happy paths
# ---------------------------------------------------------------------------


def test_check(capsys, fig2_path):
    code, payload, _ = _run_json(capsys, ["check", "--input", fig2_path])
    assert code == 0
    assert set(payload) == {"name", "blocks", "edges", "entry", "exit",
                            "loops", "ok"}
    assert payload["ok"] is True
    assert payload["loops"] == {"b1": 3, "b2": 2}
    assert payload["blocks"] == 6 and payload["edges"] == 8


def test_check_text(capsys, fig2_path):
    code, out, _ = _run(capsys, ["check", "--input", fig2_path])
    assert code == 0
    assert out.splitlines()[-1] == "ok"


def test_tree(capsys, fig2_path):
    code, payload, _ = _run_json(capsys, ["tree", "--input", fig2_path])
    assert code == 0
    assert set(payload) == {"tree", "renamed", "rename_map", "variant_map",
                            "annotations"}
    assert payload["tree"] == ("(seq (loop b1 (seq b1 (alt b6 (loop b2 "
                               "(seq b2 b4) 2 b2)) b3) 3 b1) b5)")
    assert payload["rename_map"] == {"b2#1": "b2", "b1#1": "b1"}


def test_formula_stats(capsys, sym_path):
    code, payload, _ = _run_json(capsys, ["formula", "--input", sym_path,
                                          "--stats"])
    assert code == 0
    assert set(payload) == {"formula", "initial_operands", "final_operands"}
    assert payload["final_operands"] == 7
    assert payload["final_operands"] <= payload["initial_operands"]
    assert "x_b2" in payload["formula"]


def test_formula_builds_one_folded_formula(capsys, monkeypatch, sym_path):
    # --stats counts the unfolded formula's operands on the tree.
    folds = []
    build = cli.symbolic.gamma_symbolic
    monkeypatch.setattr(cli.symbolic, "gamma_symbolic",
                        lambda t, f, fold_concrete=True:
                        folds.append(fold_concrete) or build(t, f, fold_concrete))
    _run(capsys, ["formula", "--input", sym_path])
    assert folds == [True]
    folds.clear()
    _run(capsys, ["formula", "--input", sym_path, "--stats"])
    assert folds == [True]


def test_wcet_concrete(capsys, fig2_path):
    code, out, _ = _run(capsys, ["wcet", "--input", fig2_path])
    assert code == 0 and out.strip() == "60"


def test_wcet_with_binding(capsys, sym_path):
    code, payload, _ = _run_json(capsys, ["wcet", "--input", sym_path,
                                          "--bind", "x_b2=2"])
    assert code == 0 and payload == {"wcet": 60}


def test_wcet_self_check_passes(capsys, sym_path):
    code, out, _ = _run(capsys, ["wcet", "--input", sym_path,
                                 "--bind", "x_b2=3", "--self-check"])
    assert code == 0 and out.strip().isdigit()


# A random document (loop n4 with bound it0 inside loop n0, a cap m1 per
# entry of n4, a split on n5) on which a loop run zero times used to
# evaluate relative to its body's loop in the direct formula but not in
# the simplified one, so the self-check failed with exit 4.
COUNT_ZERO_DOC = {
    "name": "random-839578",
    "blocks": [{"id": "n0", "wcet": 5}, {"id": "n1", "wcet": 8},
               {"id": "n2", "wcet": 4}, {"id": "n3", "wcet": "c1"},
               {"id": "n4", "wcet": 1}, {"id": "n5", "wcet": 9},
               {"id": "n6", "wcet": 8}],
    "edges": [["n1", "n3"], ["n3", "n2"], ["n4", "n5"], ["n5", "n4"],
              ["n1", "n4"], ["n4", "n2"], ["n0", "n1"], ["n2", "n0"],
              ["n2", "n6"]],
    "entry": "n0", "exit": "n6",
    "loop_bounds": {"n4": "it0", "n0": "it1"},
    "annotations": [{"target": "n5#1", "loop": "n4", "max": "m1"},
                    {"target": "n0", "loop": "TOP", "max": 1}],
    "splits": [{"block": "n5", "variants": [
        {"id": "n5_first", "wcet": 12, "annotation": {"loop": "n0", "max": 1}},
        {"id": "n5_rest", "wcet": 9, "annotation": None}]}],
}


def test_self_check_passes_on_a_loop_run_zero_times(capsys, tmp_path):
    path = tmp_path / "count0.json"
    path.write_text(json.dumps(COUNT_ZERO_DOC))
    code, out, err = _run(capsys, ["wcet", "--self-check", "--input",
                                   str(path), "--bind", "c1=1", "--bind",
                                   "it0=0", "--bind", "it1=1", "--bind",
                                   "m1=0"])
    assert (code, out, err) == (0, "44\n", "")


def test_wcet_ignores_unused_binding(capsys, fig2_path):
    code, out, _ = _run(capsys, ["wcet", "--input", fig2_path,
                                 "--bind", "nothing=5"])
    assert code == 0 and out.strip() == "60"


def test_sweep_matches_pointwise_wcet(capsys, sym_path):
    code, payload, _ = _run_json(capsys, ["sweep", "--input", sym_path,
                                          "--sweep", "x_b2=1..4"])
    assert code == 0
    assert set(payload) == {"identifier", "rows"}
    assert payload["identifier"] == "x_b2"
    assert [v for v, _ in payload["rows"]] == [1, 2, 3, 4]
    for v, w in payload["rows"]:
        c, point, _ = _run_json(capsys, ["wcet", "--input", sym_path,
                                         "--bind", f"x_b2={v}"])
        assert c == 0 and point["wcet"] == w


def test_sweep_text_is_csv(capsys, sym_path):
    code, out, _ = _run(capsys, ["sweep", "--input", sym_path,
                                 "--sweep", "x_b2=2..3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x_b2,wcet" and lines[1] == "2,60"


def _sample_with(tmp_path, name, edit):
    """samples/<name> after edit(doc), written to tmp_path."""
    doc = json.loads((SAMPLES / name).read_text())
    edit(doc)
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_cost_named_like_a_loop_header_leaves_the_header_alone(capsys,
                                                               tmp_path):
    # Block b2's cost is the identifier b2, and b2 heads a loop.
    def edit(doc):
        doc["blocks"][1]["wcet"] = "b2"

    path = _sample_with(tmp_path, "fig2.json", edit)
    assert _run(capsys, ["wcet", "--input", path, "--bind", "b2=2"]) == (
        0, "60\n", "")


def test_count_named_like_a_loop_header_leaves_the_header_alone(capsys,
                                                                tmp_path):
    # b1 runs b2 times, and the loop headed by b2 runs n times.
    def edit(doc):
        doc["loop_bounds"] = {"b1": "b2", "b2": "n"}

    path = _sample_with(tmp_path, "fig2_symbolic.json", edit)
    assert _run(capsys, ["wcet", "--input", path, "--bind", "b2=3",
                         "--bind", "n=2"]) == (0, "60\n", "")


def test_sweeping_a_loop_header_sweeps_an_unused_name(capsys):
    # No loop position reads a binding, so a header is a name the formula
    # does not use: its sweep prints what a sweep of any such name does.
    path = str(SAMPLES / "fig2_symbolic.json")
    rows = {}
    for name in ("b1", "zz"):
        code, out, err = _run(capsys, ["sweep", "--input", path, "--sweep",
                                       f"{name}=1..2", "--bind", "x_b2=1"])
        assert (code, err) == (0, ""), name
        rows[name] = out.replace(name, "ID", 1)
    assert rows["b1"] == rows["zz"] == "ID,wcet\n1,42\n2,42\n"


def _symbolize(rng, doc):
    """Some block costs and annotation caps of doc become identifiers."""
    for block in doc["blocks"]:
        if rng.random() < 0.25:
            block["wcet"] = rng.choice(("c1", "c2", "c3"))
    for ann in doc.get("annotations", []):
        if rng.random() < 0.5:
            ann["max"] = rng.choice(("m1", "m2"))
    return doc


def _sweep_corpus():
    """303 documents with symbolic bounds, costs and caps (seed 23)."""
    rng = random.Random(23)
    docs = [gen.running_example_doc(inner_bound=None), gen.triangular_doc(),
            gen.persistence_doc(bound="n")]
    for i in range(300):
        doc = gen.random_doc(rng, symbolic_bounds=True)
        docs.append(_symbolize(rng, gen.annotate_doc(rng, doc)
                               if i % 2 else doc))
    return rng, docs


def test_sweep_equals_pointwise_evaluation_on_frozen_corpus(
        capsys, monkeypatch, tmp_path):
    # Every point after the first evaluates the residual; the rows must be
    # the whole simplified formula's values, and every output, error and
    # exit code the same as when every point evaluates the whole formula.
    residual = cli._residual
    smaller = fallbacks = 0

    def recorded(w, *args):
        nonlocal smaller, fallbacks
        out = residual(w, *args)
        smaller += symbolic.operand_count(out) < symbolic.operand_count(w)
        # Substitution rebuilds every compound node, so only the fallback
        # returns a compound formula itself.
        fallbacks += out is w and symbolic.operand_count(w) > 1
        return out

    def both(argv):
        monkeypatch.setattr(cli, "_residual", recorded)
        got = _run(capsys, argv)
        monkeypatch.setattr(cli, "_residual", lambda w, *args: w)
        assert _run(capsys, argv) == got, argv
        return got

    rng, docs = _sweep_corpus()
    codes: dict[int, int] = {}
    for i, doc in enumerate(docs):
        path = tmp_path / f"doc{i}.json"
        path.write_text(json.dumps(doc))
        a = analyze_text(json.dumps(doc))
        w = symbolic.simplify(symbolic.gamma_symbolic(a.tree, a.forest),
                              a.forest)
        costs, counts = symbolic.identifiers(w)
        names = sorted(costs | counts)
        values = {n: rng.randint(0, 9 if n in costs else 4) for n in names}
        name = rng.choice(names) if names else "unused"
        lo = rng.randint(0, 3)
        hi = lo + rng.randint(1, 5)
        binds = [f"--bind={n}={v}" for n, v in values.items() if n != name]
        if i % 4 == 1:
            binds.append(f"--bind={name}=7")  # the swept range wins
        argv = ["sweep", "--input", str(path), "--sweep", f"{name}={lo}..{hi}"]
        code, out, err = both(argv + binds)
        assert code == 0 and err == "", (i, err)
        rows = []
        for v in range(lo, hi + 1):
            point = {n: abstract(TOP, const_seq(x)) if n in costs else x
                     for n, x in {**values, name: v}.items()}
            value = symbolic.evaluate(w, point, a.forest)
            rows.append(f"{v},{ms_index(value.seq, 0)}")
        assert out.splitlines() == [f"{name},wcet"] + rows, i
        if i % 3:
            continue
        # An unbound identifier, a wrongly typed binding, budgets too small
        # for the formula or its residual, and a swept loop header, which
        # no loop position reads: it answers as a name the formula does
        # not use.
        cases = [argv + binds[1:],
                 argv + binds + [f"--bind={(names or ['c1'])[0]}=h1"]]
        cases += [argv + binds + ["--fuel", str(k)] for k in range(4)]
        # A loop whose bound is symbolic keeps its header in the formula.
        headers = sorted(doc["loop_bounds"],
                         key=lambda h: isinstance(doc["loop_bounds"][h], int))
        if headers:
            cases.append(["sweep", "--input", str(path),
                          "--sweep", f"{headers[0]}={lo}..{hi}"] + binds)
        for case in cases:
            code = both(case)[0]
            codes[code] = codes.get(code, 0) + 1
    assert smaller >= 150 and fallbacks >= 20, (smaller, fallbacks)
    assert codes.get(1, 0) >= 150 and codes.get(3, 0) >= 100, codes


def test_residual_evaluates_as_the_whole_formula():
    f = gen.formula_forest()
    rng = random.Random(31)
    checked = 0
    for _ in range(1000):
        w = gen.random_formula(rng)
        base = gen.random_bindings(rng)
        name = rng.choice(("k1", "k2", "w1", "w2", "w3"))
        try:
            symbolic.evaluate(w, base, f)
        except SymwcetError:
            continue
        rest = cli._residual(w, base, name, f, symbolic.DEFAULT_FUEL)
        # Counts from 1, as `random_bindings` draws them: at a count of 0
        # power-extract can change the loop a value is relative to.
        for v in range(1, 5):
            point = dict(base)
            point[name] = abstract(TOP, const_seq(v)) if name[0] == "w" else v
            assert symbolic.evaluate(rest, point, f) == \
                symbolic.evaluate(w, point, f), (symbolic.render(w), name, v)
        checked += 1
    assert checked >= 900


def test_residual_falls_back_to_the_whole_formula_without_fuel():
    f = gen.formula_forest()
    w = symbolic.parse("(+ (pow w1 (l=TOP,[|0]) h1 k1) "
                       "(pow w2 (l=TOP,[|0]) h1 k2))")
    base = {"k1": 2, "w1": abstract(TOP, const_seq(3)), "k2": 2}
    assert cli._residual(w, base, "w2", f, 0) is w
    assert cli._residual(w, base, "w2", f, 10) == \
        symbolic.parse("(+ (l=TOP,[|6]) (pow w2 (l=TOP,[|0]) h1 2))")


def test_oracle_ok(capsys, fig2_path):
    code, payload, _ = _run_json(capsys, ["oracle", "--input", fig2_path])
    assert code == 0
    assert set(payload) == {"inclusion", "soundness"}
    assert set(payload["inclusion"]) == {"ok", "program_paths", "tree_paths",
                                         "missing"}
    assert set(payload["soundness"]) == {"ok", "bound", "worst_path",
                                         "gap_percent", "violations"}
    assert payload["inclusion"]["program_paths"] == 85
    assert payload["soundness"]["bound"] == 60
    assert payload["soundness"]["gap_percent"] == 0.0


def test_oracle_pessimism_of_a_one_cycle_path(capsys, tmp_path):
    # The worst path costs 1, the least cost that has a pessimism.
    p = tmp_path / "one.json"
    p.write_text(json.dumps({"name": "one", "blocks": [{"id": "a", "wcet": 1}],
                             "edges": [], "entry": "a", "exit": "a"}))
    code, out, _ = _run(capsys, ["oracle", "--input", str(p)])
    assert code == 0
    assert out.splitlines() == ["inclusion: ok (1 program paths, 1 tree paths)",
                                "soundness: ok (bound 1, worst path 1)",
                                "pessimism: 0.0%"]
    code, payload, _ = _run_json(capsys, ["oracle", "--input", str(p)])
    assert code == 0
    assert payload["soundness"]["worst_path"] == 1
    assert payload["soundness"]["gap_percent"] == 0.0


# ---------------------------------------------------------------------------
# One parser per process
# ---------------------------------------------------------------------------


def test_main_builds_no_parser_per_call(capsys, monkeypatch, fig2_path):
    def rebuilt():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "_build_parser", rebuilt)
    code, out, _ = _run(capsys, ["wcet", "--input", fig2_path])
    assert code == 0 and out.strip() == "60"


def test_shared_parser_keeps_no_state_between_calls(capsys, sym_path):
    fresh = cli._build_parser()
    first = ["wcet", "--input", sym_path, "--bind", "x_b2=4"]
    assert _run(capsys, first) == (0, "96\n", "")
    # The --bind list of the call before must not leak into this one.
    assert _run(capsys, ["wcet", "--input", sym_path]) == (
        1, "", "error: no binding for integer identifier 'x_b2'\n")
    assert _run(capsys, ["wcet", "--input", sym_path, "--bogus"]) == (
        1, "", fresh.format_usage()
        + "symwcet: error: unrecognized arguments: --bogus\n")
    code, _, err = _run(capsys, ["wcet", "--input", sym_path,
                                 "--bind", "x_b2=4", "--fuel", "0"])
    assert code == 3 and "0 rewrite steps" in err
    assert _run(capsys, ["wcet", "--input", sym_path,
                         "--bind", "x_b2=2"]) == (0, "60\n", "")
    for argv in (["--help"], *([c, "--help"] for c in cli._COMMANDS)):
        code, out, _ = _run(capsys, argv)
        with pytest.raises(SystemExit) as exc:
            fresh.parse_args(argv)
        assert code == exc.value.code == 0
        assert out == capsys.readouterr().out, argv
    assert _run(capsys, first) == (0, "96\n", "")


def test_repeated_calls_answer_as_the_first(capsys, tmp_path):
    # The process-wide sort_key cache compares a hit with the formulas'
    # recursive __eq__: left filled, it made the second of two identical
    # calls on a deep nest exit 3.
    p = tmp_path / "nest.json"
    p.write_text(json.dumps(gen.loop_nest_doc(200, bound="n")))
    for argv in (["wcet", "--input", str(p), "--bind", "n=2"],
                 ["formula", "--input", str(p)]):
        first = _run(capsys, argv)
        assert first[0] == 0
        assert _run(capsys, argv) == first


# ---------------------------------------------------------------------------
# Failure exit codes
# ---------------------------------------------------------------------------


def test_usage_errors_exit_1(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()
    assert cli.main(["check"]) == 1  # --input is required
    capsys.readouterr()
    assert cli.main(["frobnicate", "--input", "x"]) == 1
    capsys.readouterr()


def test_missing_file_exits_1(capsys):
    code, _, err = _run(capsys, ["check", "--input", "/no/such/file.json"])
    assert code == 1 and "error:" in err


def test_document_error_exits_1(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{\"name\": \"x\"}")
    code, _, err = _run(capsys, ["check", "--input", str(p)])
    assert code == 1 and "error:" in err


# Places that name a block, by document builder and path into it.
_BLOCK_REFS = {
    "entry": (gen.running_example_doc, ("entry",)),
    "exit": (gen.running_example_doc, ("exit",)),
    "annotation loop": (gen.triangular_doc, ("annotations", 0, "loop")),
    "split block": (gen.persistence_doc, ("splits", 0, "block")),
    "variant loop": (gen.persistence_doc,
                     ("splits", 0, "variants", 0, "annotation", "loop")),
}


@pytest.mark.parametrize("bad", [{}, []], ids=["object", "list"])
@pytest.mark.parametrize("where", sorted(_BLOCK_REFS))
def test_non_string_block_reference_exits_1(capsys, tmp_path, where, bad):
    make, path = _BLOCK_REFS[where]
    doc = make()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["check", "--input", str(p)])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_binding_forms_exit_1(capsys, sym_path):
    for bind in ["x_b2", "=3", "x_b2=hello"]:
        code, _, err = _run(capsys, ["wcet", "--input", sym_path,
                                     "--bind", bind])
        assert code == 1, bind
        assert "error:" in err


def test_unbound_identifier_exits_1(capsys, sym_path):
    code, _, err = _run(capsys, ["wcet", "--input", sym_path])
    assert code == 1 and "x_b2" in err


def test_identifier_clash_exits_1(capsys, tmp_path):
    doc = gen.running_example_doc(inner_bound="n")
    doc["blocks"][0]["wcet"] = "n"  # a block cost and a loop bound at once
    p = tmp_path / "clash.json"
    p.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["wcet", "--input", str(p),
                                   "--bind", "n=2"])
    assert code == 1 and out == ""
    assert err == "error: identifiers used in conflicting positions: ['n']\n"


def test_sweep_errors_exit_1(capsys, sym_path):
    for sweep in ["x_b2", "x_b2=9..2"]:
        code, _, err = _run(capsys, ["sweep", "--input", sym_path,
                                     "--sweep", sweep])
        assert code == 1, sweep


def test_irreducible_exits_2(capsys, tmp_path):
    p = tmp_path / "irr.json"
    p.write_text(json.dumps(gen.irreducible_doc()))
    code, _, err = _run(capsys, ["check", "--input", str(p)])
    assert code == 2 and "irreducible" in err


def test_fuel_flag_exits_3(capsys, sym_path):
    code, _, err = _run(capsys, ["formula", "--input", sym_path, "--fuel", "0"])
    assert code == 3 and "error:" in err


def test_path_budget_exits_3(capsys, fig2_path):
    code, _, err = _run(capsys, ["oracle", "--input", fig2_path,
                                 "--max-paths", "10"])
    assert code == 3 and "error:" in err


@pytest.mark.parametrize("argv, message", [
    (["formula", "--fuel", "-1"], "--fuel must be a non-negative integer, got -1"),
    (["wcet", "--bind", "x_b2=4", "--fuel", "-2"],
     "--fuel must be a non-negative integer, got -2"),
    (["sweep", "--sweep", "x_b2=1..2", "--fuel", "-3"],
     "--fuel must be a non-negative integer, got -3"),
    (["oracle", "--max-paths", "-5"],
     "--max-paths must be a non-negative integer, got -5"),
])
def test_negative_budget_is_usage_error(capsys, sym_path, argv, message):
    code, out, err = _run(capsys, [*argv, "--input", sym_path])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_negative_budget_refused_before_reading_input(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    code, _, err = _run(capsys, ["formula", "--input", missing,
                                 "--fuel", "-1"])
    assert (code, err) == (1, "error: --fuel must be a non-negative integer, "
                              "got -1\n")


@pytest.mark.parametrize("env", ["0", "-1", "abc"])
def test_fuel_env_is_ignored(capsys, monkeypatch, sym_path, env):
    # --fuel is the one way to set the rewrite budget.
    runs = [["formula", "--input", sym_path],
            ["wcet", "--input", sym_path, "--bind", "x_b2=4"]]
    monkeypatch.delenv("SYMWCET_FUEL", raising=False)
    want = [_run(capsys, argv) for argv in runs]
    assert [code for code, _, _ in want] == [0, 0]
    monkeypatch.setenv("SYMWCET_FUEL", env)
    assert [_run(capsys, argv) for argv in runs] == want


def test_zero_budgets_keep_their_meaning(capsys, fig2_path, sym_path):
    code, _, err = _run(capsys, ["formula", "--input", sym_path,
                                 "--fuel", "0"])
    assert (code, err) == (3, "error: no normal form within 0 rewrite steps\n")
    code, _, err = _run(capsys, ["oracle", "--input", fig2_path,
                                 "--max-paths", "0"])
    assert code == 3 and err.startswith("error: ")
    assert err.count("\n") == 1


def test_oracle_violation_exits_4(capsys, monkeypatch, fig2_path):
    fake = SoundnessReport(ok=False, bound=1, worst_path=2,
                           gap_percent=None, violations=["made up"])
    monkeypatch.setattr(cli.oracle, "check_soundness",
                        lambda *a, **k: fake)
    code, out, _ = _run(capsys, ["oracle", "--input", fig2_path])
    assert code == 4 and "FAILED" in out


def test_self_check_mismatch_exits_4(capsys, monkeypatch, sym_path):
    monkeypatch.setattr(cli.symbolic, "simplify",
                        lambda w, f=None, fuel=0: cli.symbolic.CONST_ZERO)
    code, _, err = _run(capsys, ["wcet", "--input", sym_path,
                                 "--bind", "x_b2=2", "--self-check"])
    assert code == 4 and "self-check failed" in err


# ---------------------------------------------------------------------------
# Bounds and caps far beyond the document size: answers and formula sizes
# must not grow with the values
# ---------------------------------------------------------------------------


def test_cap_of_two_million(capsys, tmp_path):
    p = tmp_path / "cap.json"
    p.write_text(json.dumps(gen.triangular_doc(cap=2_000_000)))
    code, out, _ = _run(capsys, ["formula", "--input", str(p)])
    assert code == 0
    assert len(out) < 1000
    # Per outer iteration: o and the inner exit test (2 + 3), then 10 inner
    # iterations of i + c = 10 while c's cap lasts (200,000 outer iterations
    # of 10 c each) and of i = 3 after it; s and x and the final o add 4.
    for n in (150_000, 300_000):
        code, out, _ = _run(capsys, ["wcet", "--input", str(p),
                                     "--bind", f"n={n}"])
        assert code == 0
        assert int(out) == 4 + 5 * n + min(n, 200_000) * 100 \
            + max(0, n - 200_000) * 30


def test_loop_bound_of_a_billion(capsys, tmp_path):
    b, h, c = 10**9, 3, 5
    doc = {"name": "big-loop",
           "blocks": [{"id": "h", "wcet": h}, {"id": "c", "wcet": c},
                      {"id": "e", "wcet": 0}],
           "edges": [["h", "c"], ["c", "h"], ["h", "e"]],
           "entry": "h", "exit": "e", "loop_bounds": {"h": b},
           # Capping c per entry of its own loop makes the body's ranking
           # relative to that loop, so evaluation sums its b greatest costs.
           "annotations": [{"target": "c", "loop": "h", "max": b}]}
    p = tmp_path / "loop.json"
    p.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, ["wcet", "--input", str(p)])
    assert code == 0
    assert int(out) == (b + 1) * h + b * c
    code, out, _ = _run(capsys, ["formula", "--input", str(p)])
    assert code == 0 and len(out) < 1000


def test_triangular_sample_at_a_billion(capsys):
    n = 10**9
    code, out, err = _run(capsys, ["wcet", "--input",
                                   str(SAMPLES / "triangular.json"),
                                   "--bind", f"n={n}"])
    assert code == 0, err
    # s + x + the final o = 4; per the formula's [105^5|70] ranking, the
    # five iterations with 10 c each cost 105 and every further one 70.
    assert int(out) == 4 + 5 * 105 + (n - 5) * 70


# ---------------------------------------------------------------------------
# Nesting and memory limits: a one-line error and exit 3, never a traceback
# ---------------------------------------------------------------------------


def test_deep_loop_nest_exits_cleanly(capsys, tmp_path):
    # Bound 2, so every header runs 3 times per entry: the innermost loop
    # costs 3 + 2 * b = 7 per entry, and each enclosing one 3 + 2 * (inner
    # + its latch); s and x add 2.  Small nests must match; the 1000-deep
    # one must answer or end with a one-line error.
    for depth in (1, 3, 1000):
        p = tmp_path / f"nest{depth}.json"
        p.write_text(json.dumps(gen.loop_nest_doc(depth)))
        code, out, err = _run(capsys, ["wcet", "--input", str(p)])
        assert "Traceback" not in err
        if depth < 1000:
            assert code == 0, err
        if code == 0:
            inner = 7
            for _ in range(depth - 1):
                inner = 2 * inner + 5
            assert int(out) == inner + 2, depth
        else:
            assert code == 3
            assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_memory_error_exits_3(capsys, monkeypatch, fig2_path):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "check", exhausted)
    code, out, err = _run(capsys, ["check", "--input", fig2_path])
    assert code == 3 and out == ""
    assert err == "error: out of memory\n"


def test_module_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "symwcet", "wcet", "--input",
                           "samples/fig2.json"], capture_output=True,
                          text=True, env=env, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "60\n"
