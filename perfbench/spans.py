"""In-memory span tracing around calls into symwcet's modules.

The tracer replaces public functions by module attribute, so every caller
that looks the name up at call time (module globals included) goes through
a wrapper that records a span: name, start, end, parent span and request
id.  Nothing under src/ changes; uninstalling restores the originals.
A function that recurses through its own module global (`evaluate`,
`render`) gets one span for the outermost call.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

from symwcet import symbolic

# (module, attribute, span name).  The awcet operators are wrapped where
# `symbolic` imported them, so the calls counted are the formula layer's.
TRACED = (
    ("symwcet.pipeline", "parse_program", "cfg.parse"),
    ("symwcet.pipeline", "build_loop_forest", "cfg.forest"),
    ("symwcet.pipeline", "build_cft", "restructure.build_cft"),
    ("symwcet.pipeline", "analyze", "pipeline.analyze"),
    ("symwcet.cft", "split_leaf", "cft.annotate"),
    ("symwcet.cft", "attach_annotation", "cft.annotate"),
    ("symwcet.symbolic", "gamma_symbolic", "symbolic.gamma"),
    ("symwcet.symbolic", "simplify", "symbolic.simplify"),
    ("symwcet.symbolic", "evaluate", "symbolic.evaluate"),
    ("symwcet.symbolic", "render", "symbolic.render"),
    ("symwcet.symbolic", "ms_merge", "awcet.op"),
    ("symwcet.symbolic", "ms_ranksum", "awcet.op"),
    ("symwcet.symbolic", "ms_restrict", "awcet.op"),
    ("symwcet.symbolic", "ms_group", "awcet.op"),
    ("symwcet.symbolic", "loop_abstract", "awcet.op"),
    ("symwcet.symbolic", "restrict_abstract", "awcet.op"),
    ("symwcet.cli", "main", "cli.main"),
)

REQUEST = "request"


def _prefix_len(value) -> int:
    """Longest WcetSeq prefix in an abstract WCET or a formula's constants."""
    if hasattr(value, "seq"):
        return len(value.seq.prefix)
    best = 0
    stack = [value]
    while stack:
        node = stack.pop()
        if isinstance(node, symbolic.Const):
            best = max(best, len(node.value.seq.prefix))
        elif isinstance(node, (symbolic.Plus, symbolic.Max)):
            stack.extend(node.operands)
        elif isinstance(node, (symbolic.Scalar, symbolic.Restrict)):
            stack.append(node.operand)
        elif isinstance(node, symbolic.Power):
            stack.extend((node.body, node.exit))
    return best


class Tracer:
    """Records spans while installed; `install`/`uninstall` patch modules."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index or -1, request id].
        self.spans: list[list] = []
        self.max_prefix_len = 0
        self._stack: list[int] = []
        self._request: int | None = None
        self._patches: list[tuple] = []  # (module, attr, original, wrapper)
        self._observed: list = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if not self._patches:
            for module_name, attr, name in TRACED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue  # not imported by this version of the module
                wrapper = self._wrap(original, name,
                                     attr in ("simplify", "evaluate"))
                self._patches.append((module, attr, original, wrapper))
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _wrap(self, original, name: str, observe: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        active = [False]

        def traced(*args, **kwargs):
            if active[0]:  # recursion through the patched module global
                return original(*args, **kwargs)
            active[0] = True
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    self._request]
            spans.append(span)
            stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
                active[0] = False
            if observe and self._request is not None:
                self._observed.append(result)
            return result

        return traced

    # -- requests ----------------------------------------------------------

    def begin_request(self, request_id: int) -> None:
        self._request = request_id
        self._stack.append(len(self.spans))
        self.spans.append([REQUEST, time.perf_counter(), 0.0, -1, request_id])

    def end_request(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()
        self._request = None
        for value in self._observed:
            self.max_prefix_len = max(self.max_prefix_len, _prefix_len(value))
        self._observed.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def per_request(self) -> dict[str, dict]:
        """name -> {"self": total self seconds, "calls": count} over the
        spans inside requests.  The REQUEST entry counts the requests and
        holds the time no traced call covers."""
        out: dict[str, dict] = defaultdict(lambda: {"self": 0.0, "calls": 0})
        for span, own in zip(self.spans, self.self_times()):
            if span[4] is None:
                continue
            agg = out[span[0]]
            agg["self"] += own
            agg["calls"] += 1
        return out

    def call_self_times(self, name: str) -> list[float]:
        """Self time of every span called `name`, in or out of requests."""
        return [own for span, own in zip(self.spans, self.self_times())
                if span[0] == name]

    def request_times(self) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == REQUEST]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,request\n")
            for name, start, end, parent, request in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},"
                         f"{'' if request is None else request}\n")
