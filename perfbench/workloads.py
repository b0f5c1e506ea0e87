"""The benchmark's workloads.

Each workload builds its inputs from the seed, serves numbered requests one
at a time (one client, closed loop), and checks the answers it collected
against references afterwards.  Calls into symwcet go through module
attributes (`symbolic.simplify(...)`, not a bound name) so the tracer's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import time

from symwcet import cli, pipeline, symbolic
from symwcet.awcet import ms_index

from perfbench import docs, reference

CHAIN_SECTIONS = 500  # about 1000 blocks
CHAIN_POINTS = 16
CHAIN_CHECK_SECTIONS = 12
CORPUS_SIZE = 960
CORPUS_SAMPLE_EVERY = 4  # instantiate every 4th corpus document between requests


class Workload:
    """Interface shared by the workloads.

    `cycle` is the number of requests after which the request mix repeats.
    `period` (a multiple of `cycle`) is the number after which the keys
    repeat; the timed loop stops only at a period boundary.
    """

    name = ""
    cycle = 1
    period = 1

    def warm_up(self) -> None:
        raise NotImplementedError

    def key(self, i: int):
        """Which reference request i is checked against."""
        raise NotImplementedError

    def request(self, i: int, eval_times: list[float]):
        """Serve request i; append each evaluate call's seconds."""
        raise NotImplementedError

    def formulas(self):
        """Yield (analysis, simplified formula) per document, one at a time,
        for the size metrics.  Runs outside the timed region."""
        raise NotImplementedError

    def check(self, answers: dict, oracle: reference.Oracle) -> tuple[set, list[str]]:
        """The (key, answer) pairs that are wrong, and each problem found.

        `answers` maps key -> set of distinct answers seen."""
        raise NotImplementedError

    def between(self, i: int, eval_times: list[float]) -> None:
        """Untimed work after request i; may time evaluate calls."""


def clear_memos() -> None:
    """Empty the analyzer's memo tables (functools caches), so that each
    request starts from the state a one-shot analysis starts from rather
    than reusing entries left by earlier requests."""
    for name, module in list(sys.modules.items()):
        if name == "symwcet" or name.startswith("symwcet."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def build_formula(text: str):
    """The analysis of a document text and its simplified formula."""
    a = pipeline.analyze_text(text)
    w = symbolic.simplify(symbolic.gamma_symbolic(a.tree, a.forest), a.forest)
    return a, w


def _timed_evaluate(w, binding, forest, eval_times: list[float]) -> int:
    """Evaluate, recording the time of instantiations (non-empty bindings)."""
    start = time.perf_counter()
    value = symbolic.evaluate(w, binding, forest)
    if binding:
        eval_times.append(time.perf_counter() - start)
    return ms_index(value.seq, 0)


# ---------------------------------------------------------------------------


class ChainSymbolic(Workload):
    """One ~1000-block chain; a request builds the formula from the text and
    instantiates it at a few seeded binding points."""

    name = "chain_symbolic"

    def __init__(self, seed: int, workdir: str,
                 sections: int = CHAIN_SECTIONS) -> None:
        rng = random.Random(seed)
        self.doc, self.parts = docs.chain_doc(rng, sections)
        self.text = json.dumps(self.doc)
        names = [p[3] for p in self.parts if p[0] == "loop" and isinstance(p[3], str)]
        self.points = [{n: rng.randint(1, 9) for n in names}
                       for _ in range(CHAIN_POINTS)]
        self.oracle_chain = docs.chain_doc(random.Random(seed),
                                           CHAIN_CHECK_SECTIONS)

    def warm_up(self) -> None:
        self.request(0, [])

    def key(self, i: int):
        return "chain"

    def request(self, i: int, eval_times: list[float]):
        a, w = build_formula(self.text)
        return tuple(_timed_evaluate(w, p, a.forest, eval_times)
                     for p in self.points)

    def formulas(self):
        yield build_formula(self.text)

    def check(self, answers, oracle):
        want = tuple(reference.chain_wcet(self.parts, p) for p in self.points)
        seen = answers.get("chain", set())
        wrong = {("chain", got) for got in seen if got != want}
        problems = [f"chain: got {got}, closed form {want}" for _, got in wrong]
        problems += reference.check_chain(oracle, *self.oracle_chain)
        if problems:
            wrong = {("chain", got) for got in seen}
        return wrong, problems


# ---------------------------------------------------------------------------

# Big-value documents: (shape, parameters left symbolic, concrete values).
# Each symbolic parameter is swept over SWEEP; every value is jittered by the
# seed within JITTER of its nominal size.
BIG_SLOTS = (
    ("triangular", ("n", "m"), {"cap": 50_000}),
    ("triangular", ("n",), {"m": 200, "cap": 50_000}),
    ("triangular", ("cap",), {"n": 1_000, "m": 200}),
    ("triangular", ("n", "cap"), {"m": 200}),
    ("triangular", (), {"n": 500, "m": 200, "cap": 50_000}),
    ("persistence", ("bound",), {}),
    ("persistence", (), {"bound": 200_000}),
    ("running", ("outer",), {"inner": 100_000}),
    ("running", ("inner",), {"outer": 100_000}),
)
SWEEP = (10_000, 40_000, 160_000)
JITTER = 0.02


class BigValues(Workload):
    """Small documents whose loop bounds and caps run from 10^4 to 2*10^5;
    a request builds one document's formula and evaluates it at a sweep of
    binding points."""

    name = "big_values"
    cycle = period = len(BIG_SLOTS)

    def __init__(self, seed: int, workdir: str, scale: float = 1.0) -> None:
        rng = random.Random(seed)

        def jitter(v: int) -> int:
            return max(1, round(v * scale * (1 + rng.uniform(-JITTER, JITTER))))

        self.items = []
        for shape, symbolic_params, concrete in BIG_SLOTS:
            make, params = docs.SHAPES[shape]
            values = {p: jitter(v) for p, v in concrete.items()}
            doc = make(*(p if p in symbolic_params else values[p]
                         for p in params))
            points = [{p: jitter(v) for p in symbolic_params} for v in SWEEP]
            if not symbolic_params:
                points = [{}]
            self.items.append((shape, json.dumps(doc), values, points))
        self.order = list(range(len(self.items)))
        rng.shuffle(self.order)

    def warm_up(self) -> None:
        for i in range(self.cycle):
            self.request(i, [])

    def key(self, i: int):
        return self.order[i % len(self.order)]

    def request(self, i: int, eval_times: list[float]):
        _, text, _, points = self.items[self.key(i)]
        a, w = build_formula(text)
        return tuple(_timed_evaluate(w, p, a.forest, eval_times)
                     for p in points)

    def formulas(self):
        for _, text, _, _ in self.items:
            yield build_formula(text)

    def check(self, answers, oracle):
        wrong, problems = set(), []
        for k, (shape, _, values, points) in enumerate(self.items):
            closed = reference.SHAPE_WCET[shape]
            params = docs.SHAPES[shape][1]
            want = tuple(closed(*({**values, **p}[q] for q in params))
                         for p in points)
            for got in answers.get(k, ()):
                if got != want:
                    wrong.add((k, got))
                    problems.append(f"{shape} {values} {points}: got {got}, "
                                    f"closed form {want}")
        problems += reference.check_shapes(oracle)
        if problems:
            wrong = {(k, got) for k, seen in answers.items() for got in seen}
        return wrong, problems


# ---------------------------------------------------------------------------


class CorpusCli(Workload):
    """Small random documents, half annotated; each request is one in-process
    `symwcet` command: alternately `wcet --bind ...` and `formula --stats`,
    both with JSON output."""

    name = "corpus_cli"
    cycle = 2

    def __init__(self, seed: int, workdir: str, size: int = CORPUS_SIZE) -> None:
        rng = random.Random(seed)
        self.docs = docs.corpus(rng, size)
        self.period = 2 * size
        os.makedirs(workdir, exist_ok=True)
        self.bindings = []
        self.argv = []
        for k, doc in enumerate(self.docs):
            ids = sorted(b for b in doc["loop_bounds"].values()
                         if isinstance(b, str))
            binding = {name: rng.randint(1, 2) for name in ids}
            path = os.path.join(workdir, f"doc{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            bind_args = [arg for name, v in binding.items()
                         for arg in ("--bind", f"{name}={v}")]
            self.bindings.append(binding)
            self.argv.append((
                ["wcet", "--input", path, "--format", "json", *bind_args],
                ["formula", "--stats", "--input", path, "--format", "json"],
            ))

    def warm_up(self) -> None:
        for i in range(min(16, 2 * len(self.docs))):
            self.request(i, [])

    def key(self, i: int):
        return ((i // 2) % len(self.docs), i % 2)

    def request(self, i: int, eval_times: list[float]):
        doc, command = self.key(i)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv[doc][command])
        return code, out.getvalue()

    def formulas(self):
        for d in self.docs:
            yield build_formula(json.dumps(d))

    def between(self, i: int, eval_times: list[float]) -> None:
        # After the wcet/formula pair of every CORPUS_SAMPLE_EVERY-th
        # document, build that document's formula and instantiate it at its
        # binding, so instantiation is sampled across the whole run; the
        # sampled documents shift on every pass over the corpus.  Constant
        # formulas need no instantiation.
        doc = (i // 2) % len(self.docs)
        if i % 2 and (doc + i // self.period) % CORPUS_SAMPLE_EVERY == 0:
            a, w = build_formula(json.dumps(self.docs[doc]))
            if symbolic.free_identifiers(w, a.forest):
                _timed_evaluate(w, self.bindings[doc], a.forest, eval_times)

    def check(self, answers, oracle):
        wrong, problems = set(), []
        windows: dict[int, tuple[int, int]] = {}
        for (doc, command), seen in sorted(answers.items()):
            if doc not in windows:
                windows[doc] = oracle.window(
                    reference.bind_bounds(self.docs[doc], self.bindings[doc]))
            low, high = windows[doc]
            for code, out in seen:
                try:
                    if code != 0:
                        raise ValueError(f"exit code {code}")
                    payload = json.loads(out)
                    if command == 0:
                        got = payload["wcet"]
                    else:
                        w = symbolic.parse(payload["formula"])
                        if payload["final_operands"] != symbolic.operand_count(w):
                            raise ValueError("final_operands disagrees with "
                                             "the formula")
                        forest = pipeline.analyze_text(
                            json.dumps(self.docs[doc])).forest
                        got = ms_index(symbolic.evaluate(
                            w, self.bindings[doc], forest).seq, 0)
                    if not low <= got <= high:
                        raise ValueError(f"{got} outside oracle {low}..{high}")
                except (ValueError, KeyError, TypeError) as exc:
                    wrong.add(((doc, command), (code, out)))
                    problems.append(f"doc {doc} {self.argv[doc][command][0]}: "
                                    f"{exc}")
        return wrong, problems


WORKLOADS = {w.name: w for w in (ChainSymbolic, BigValues, CorpusCli)}
