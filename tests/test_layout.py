"""The library holds only what the program uses: every top-level function
and class in src/symwcet is referred to, outside its own definition, from
src/, perfbench/ or README.md, and every field of its classes is read
there.  Code that only tests call lives in tests/.  Every source file
also parses with the oldest grammar pyproject.toml accepts."""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "symwcet").glob("*.py"))
USERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))


def _names(tree: ast.AST) -> Counter[str]:
    """How often the tree refers to each name: loaded names, attributes,
    imported names and identifier-shaped strings (perfbench traces
    functions by name)."""
    out: Counter[str] = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out[node.value] += 1
    return out


def test_every_library_definition_has_a_non_test_user():
    trees = {path: ast.parse(path.read_text()) for path in USERS}
    refs = {path: _names(tree) for path, tree in trees.items()}
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    unused = []
    for path in MODULES:
        elsewhere = set(readme)
        for other in USERS:
            if other != path:
                elsewhere.update(refs[other])
        for d in trees[path].body:
            if not isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                continue
            # References inside the definition itself (recursion) do not
            # count.
            here = refs[path][d.name] - _names(d)[d.name]
            if not here and d.name not in elsewhere:
                unused.append(f"{path.name}: {d.name}")
    assert unused == []


def test_every_record_field_has_a_non_test_reader():
    # A field counts as read when src/ or perfbench/ loads an attribute of
    # its name.  Passing a keyword of its name is a write, and README
    # words do not count.
    readers: set[str] = set()
    trees = {path: ast.parse(path.read_text()) for path in USERS}
    for tree in trees.values():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                readers.add(node.attr)
    unread = []
    for path in MODULES:
        for cls in ast.walk(trees[path]):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and stmt.target.id not in readers):
                    unread.append(f"{path.name}: {cls.name}.{stmt.target.id}")
    assert unread == []


def test_sources_parse_under_python_3_10_grammar():
    """Every .py file under src/, tests/ and perfbench/ parses with the
    grammar of Python 3.10, the oldest version pyproject.toml accepts
    (no `except*`, for one).  This checks grammar only: a library API
    added after 3.10 still passes, and only a 3.10 interpreter finds it."""
    paths = sorted(path for top in ("src", "tests", "perfbench")
                   for path in (ROOT / top).rglob("*.py"))
    assert paths
    rejected = []
    for path in paths:
        try:
            ast.parse(path.read_text(), filename=str(path),
                      feature_version=(3, 10))
        except SyntaxError as exc:
            rejected.append(f"{path.relative_to(ROOT)}: {exc}")
    assert rejected == []
