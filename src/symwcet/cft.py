"""Control-flow tree model.

Trees are immutable values built from Leaf/Alt/Seq/Loop nodes.  Any node can
carry one context annotation bounding how often its paths occur per entry of
an enclosing loop.  This module also hosts the annotation-driven transforms:
attaching annotations to nodes and splitting a leaf into annotated variants
(the cache hit/miss modeling device).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .cfg import TOP, LoopRef
from .errors import (
    AmbiguousTarget,
    DuplicateVariantId,
    NonAncestorLoop,
    UnknownBlock,
)
from .records import slot_init


@slot_init
@dataclass(frozen=True, slots=True)
class Annotation:
    """Target runs at most `max` times per entry of `loop`.

    max None means unbounded; (TOP, None) is the do-nothing annotation.
    """

    loop: LoopRef
    max: int | str | None


@slot_init
@dataclass(frozen=True, slots=True)
class Leaf:
    label: str
    wcet: int | str
    annotation: Annotation | None = None


@slot_init
@dataclass(frozen=True, slots=True)
class Alt:
    children: tuple["Cft", ...]
    annotation: Annotation | None = None

    def __post_init__(self) -> None:
        assert len(self.children) >= 2, "Alt needs at least two children"


@slot_init
@dataclass(frozen=True, slots=True)
class Seq:
    # Zero children encode the empty path (a branch that skips straight to
    # the join point); one child never occurs (collapsed by seq()).
    children: tuple["Cft", ...]
    annotation: Annotation | None = None


@slot_init
@dataclass(frozen=True, slots=True)
class Loop:
    header: str
    body: "Cft"
    bound: int | str
    exit: "Cft"
    annotation: Annotation | None = None


Cft = Leaf | Alt | Seq | Loop


def seq(children: list["Cft"]) -> "Cft":
    """Canonical Seq: flattens unannotated nested Seqs, collapses arity 1."""
    flat: list[Cft] = []
    for c in children:
        if isinstance(c, Seq) and c.annotation is None:
            flat.extend(c.children)
        else:
            flat.append(c)
    if len(flat) == 1:
        return flat[0]
    return Seq(tuple(flat))


def alt(children: list["Cft"]) -> "Cft":
    """Canonical Alt: collapses arity 1, refuses arity 0."""
    if not children:
        raise ValueError("Alt with no alternatives")
    if len(children) == 1:
        return children[0]
    return Alt(tuple(children))


def child_nodes(t: Cft) -> tuple[Cft, ...]:
    if isinstance(t, Leaf):
        return ()
    if isinstance(t, (Alt, Seq)):
        return t.children
    return (t.body, t.exit)


def subtrees(t: Cft):
    """All nodes of t in preorder (Loop: body before exit)."""
    yield t
    for c in child_nodes(t):
        yield from subtrees(c)


def leaves(t: Cft) -> list[Leaf]:
    return [n for n in subtrees(t) if isinstance(n, Leaf)]


def strip_suffix(label: str) -> str:
    """Drop the '#k' duplication suffix from a leaf label."""
    return label.split("#", 1)[0]


def _replace_node(t: Cft, path: tuple[int, ...], new: Cft) -> Cft:
    if not path:
        return new
    i, rest = path[0], path[1:]
    if isinstance(t, (Alt, Seq)):
        kids = list(t.children)
        kids[i] = _replace_node(kids[i], rest, new)
        return replace(t, children=tuple(kids))
    if isinstance(t, Loop):
        if i == 0:
            return replace(t, body=_replace_node(t.body, rest, new))
        return replace(t, exit=_replace_node(t.exit, rest, new))
    raise UnknownBlock(f"path {path} descends below a leaf")


def _find_paths(t: Cft, want) -> list[tuple[int, ...]]:
    """Paths of the nodes that satisfy want, in preorder."""
    found: list[tuple[int, ...]] = []
    stack: list[tuple[Cft, tuple[int, ...]]] = [(t, ())]
    while stack:
        node, path = stack.pop()
        if want(node):
            found.append(path)
        kids = child_nodes(node)
        stack.extend((kids[i], path + (i,))
                     for i in range(len(kids) - 1, -1, -1))
    return found


def resolve_label(t: Cft, target: str) -> tuple[int, ...]:
    """Find the unique node for a leaf-label target.

    Exact labels win; otherwise the target matches leaves whose label minus
    the '#k' duplication suffix equals it.  Several matches need a suffixed
    target to disambiguate.
    """
    exact = _find_paths(t, lambda n: isinstance(n, Leaf) and n.label == target)
    if len(exact) == 1:
        return exact[0]
    if len(exact) > 1:
        # Leaf labels are unique after renaming; duplicates mean the caller
        # fed an un-renamed tree.
        raise AmbiguousTarget(f"label {target!r} matches {len(exact)} leaves")
    loose = _find_paths(
        t, lambda n: isinstance(n, Leaf) and strip_suffix(n.label) == target)
    if not loose:
        raise UnknownBlock(f"no leaf matches target {target!r}")
    if len(loose) > 1:
        labels = [node_at(t, p).label for p in loose]  # type: ignore[union-attr]
        raise AmbiguousTarget(
            f"target {target!r} matches duplicated leaves {labels}; "
            "use a '#k'-suffixed label")
    return loose[0]


def node_at(t: Cft, path: tuple[int, ...]) -> Cft:
    node = t
    for i in path:
        kids = child_nodes(node)
        if i >= len(kids):
            raise UnknownBlock(f"path {path} leaves the tree")
        node = kids[i]
    return node


def _check_ancestor(t: Cft, path: tuple[int, ...], a: Annotation) -> None:
    if a.loop == TOP:
        return
    if a.loop.kind != "loop":
        raise NonAncestorLoop(f"annotation loop {a.loop} is not a loop")
    node = t
    enclosing: list[str] = []
    for i in path:
        if isinstance(node, Loop) and i == 0:
            # Only the body subtree counts as inside the loop.
            enclosing.append(node.header)
        node = child_nodes(node)[i]
    if a.loop.header not in enclosing:
        raise NonAncestorLoop(
            f"loop {a.loop.header} does not enclose the annotated node "
            f"(enclosing loops: {enclosing or 'none'})")


def attach_annotation(t: Cft, target: str | tuple[int, ...], a: Annotation) -> Cft:
    """Return t with annotation a set on the target node.

    target is a leaf label (rename-suffix aware) or an explicit child-index
    path (Loop children are 0=body, 1=exit).  Replaces any prior annotation.
    """
    path = resolve_label(t, target) if isinstance(target, str) else target
    node = node_at(t, path)
    _check_ancestor(t, path, a)
    return _replace_node(t, path, replace(node, annotation=a))


def split_leaf(
    t: Cft,
    block: str,
    variants: list[tuple[str, int | str, Annotation | None]],
) -> Cft:
    """Replace one leaf with an Alt over annotated variant leaves.

    A single unannotated variant degenerates into a plain rename.
    """
    path = resolve_label(t, block)
    node = node_at(t, path)
    if not isinstance(node, Leaf):
        raise UnknownBlock(f"split target {block!r} is not a leaf")
    ids = [vid for vid, _, _ in variants]
    if len(set(ids)) != len(ids):
        raise DuplicateVariantId(f"split of {block!r} repeats variant ids {ids}")
    existing = {leaf.label for leaf in leaves(t)}
    clash = existing & set(ids)
    if clash:
        raise DuplicateVariantId(
            f"variant ids {sorted(clash)} collide with existing leaf labels")
    new_leaves: list[Cft] = []
    for vid, wcet, ann in variants:
        if ann is not None:
            _check_ancestor(t, path, ann)
        new_leaves.append(Leaf(vid, wcet, ann))
    repl = alt(new_leaves)
    if node.annotation is not None and repl.annotation is None:
        repl = replace(repl, annotation=node.annotation)
    return _replace_node(t, path, repl)


def strip_annotations(t: Cft) -> Cft:
    """The same tree with every annotation removed."""
    if isinstance(t, Leaf):
        return replace(t, annotation=None)
    if isinstance(t, (Alt, Seq)):
        return replace(t, children=tuple(strip_annotations(c)
                                         for c in t.children),
                       annotation=None)
    return replace(t, body=strip_annotations(t.body),
                   exit=strip_annotations(t.exit), annotation=None)


def to_sexpr(t: Cft, display=strip_suffix) -> str:
    """Render the tree as an S-expression using display(label) for leaves."""
    if isinstance(t, Leaf):
        return display(t.label)
    if isinstance(t, Alt):
        return "(alt " + " ".join(to_sexpr(c, display) for c in t.children) + ")"
    if isinstance(t, Seq):
        inner = " ".join(to_sexpr(c, display) for c in t.children)
        return "(seq " + inner + ")" if inner else "(seq)"
    return "(loop {} {} {} {})".format(
        t.header, to_sexpr(t.body, display), t.bound, to_sexpr(t.exit, display))
