"""Randomized corpora, twig queries and churn for the differential fuzzer.

The generators here feed ``tests/test_differential_fuzz.py``: small
random documents over a deliberately tiny tag/value alphabet (so
random twigs collide with real structure often enough to return
non-empty answers), two degenerate shapes the matching kernels must
survive (self-nested same-tag chains and max-fanout stars), random twig
queries sampled from *witness paths* of an actual corpus, and a random
document-churn schedule (add / remove / replace / move).

Everything is driven by an explicit :class:`random.Random` so a single
integer seed reproduces a whole fuzzing case end to end.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from ..xmltree.document import Document, VIRTUAL_ROOT_LABEL
from ..xmltree.nodes import Node, NodeKind

#: Tiny tag alphabet: random twigs must collide with random documents.
TAGS = ("a", "b", "c", "d", "e")
#: Root tags kept separate so absolute queries are meaningful.
ROOT_TAGS = ("r", "s")
#: Tiny value pool so value predicates select non-trivially.
VALUES = ("v0", "v1", "v2", "v3")


# ----------------------------------------------------------------------
# Degenerate shapes
# ----------------------------------------------------------------------
def self_nested_chain(
    depth: int, tag: str = "a", name: str = "chain", value: str = "v0"
) -> Document:
    """A chain of ``depth`` elements all labeled ``tag``.

    Every node is simultaneously an ancestor and a descendant match for
    the same label — the worst case for placement enumeration and for
    any structural-join that confuses self with descendant.  The leaf
    carries one value so value predicates reach the bottom.
    """
    if depth < 1:
        raise ValueError(f"chain depth must be positive: {depth}")
    root = Node(NodeKind.ELEMENT, tag)
    current = root
    for _ in range(depth - 1):
        current = current.add_child(Node(NodeKind.ELEMENT, tag))
    current.add_child(Node(NodeKind.VALUE, value))
    return Document(root, name=name)


def max_fanout_star(
    fanout: int, tag: str = "b", name: str = "star", root_tag: str = "r"
) -> Document:
    """One root with ``fanout`` identical leaf children.

    Maximal branching with zero depth: stresses candidate lists with
    many same-label siblings and per-(label, value) filtering.
    """
    if fanout < 1:
        raise ValueError(f"star fanout must be positive: {fanout}")
    root = Node(NodeKind.ELEMENT, root_tag)
    for index in range(fanout):
        child = root.add_child(Node(NodeKind.ELEMENT, tag))
        child.add_child(Node(NodeKind.VALUE, VALUES[index % len(VALUES)]))
    return Document(root, name=name)


# ----------------------------------------------------------------------
# Cloning (documents cannot be shared across databases)
# ----------------------------------------------------------------------
def clone_document(document: Document, name: Optional[str] = None) -> Document:
    """A deep copy with fresh :class:`Node` objects and unassigned ids.

    Adding a document to a database mutates it (node ids, the virtual
    root parent link), so differential harnesses that feed the same
    corpus to several systems must clone per system.
    """
    root = document.root
    fresh_root = Node(root.kind, root.label)
    stack = [(root, fresh_root)]
    while stack:
        original, copy = stack.pop()
        for child in original.children:
            fresh_child = copy.add_child(Node(child.kind, child.label))
            stack.append((child, fresh_child))
    return Document(fresh_root, name=document.name if name is None else name)


# ----------------------------------------------------------------------
# Random documents and corpora
# ----------------------------------------------------------------------
def random_document(
    rng: random.Random,
    name: str,
    max_depth: int = 5,
    max_children: int = 3,
) -> Document:
    """A random small document over the shared tag/value alphabet."""
    root = Node(NodeKind.ELEMENT, rng.choice(ROOT_TAGS))
    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        if rng.random() < 0.4:
            node.add_child(Node(NodeKind.VALUE, rng.choice(VALUES)))
        if rng.random() < 0.3:
            attribute = node.add_child(
                Node(NodeKind.ATTRIBUTE, rng.choice(TAGS))
            )
            attribute.add_child(Node(NodeKind.VALUE, rng.choice(VALUES)))
        if depth >= max_depth:
            continue
        for _ in range(rng.randrange(0, max_children + 1)):
            child = node.add_child(Node(NodeKind.ELEMENT, rng.choice(TAGS)))
            stack.append((child, depth + 1))
    return Document(root, name=name)


def random_corpus(
    rng: random.Random,
    documents: int = 3,
    max_depth: int = 5,
    max_children: int = 3,
    degenerate: bool = True,
) -> list[Document]:
    """A corpus of random documents, optionally seeded with the
    degenerate shapes (a same-tag chain and a max-fanout star)."""
    corpus = [
        random_document(
            rng, f"fuzz-{index}", max_depth=max_depth, max_children=max_children
        )
        for index in range(documents)
    ]
    if degenerate:
        corpus.append(
            self_nested_chain(
                rng.randrange(2, 9), tag=rng.choice(TAGS), name="fuzz-chain"
            )
        )
        corpus.append(max_fanout_star(rng.randrange(4, 17), name="fuzz-star"))
    return corpus


# ----------------------------------------------------------------------
# Random twig queries
# ----------------------------------------------------------------------
def random_twig_xpath(
    rng: random.Random, documents: Sequence[Document]
) -> str:
    """A random twig query biased toward structure that exists.

    A *witness path* is sampled from a random document's structural
    nodes; the trunk follows (a sampled subsequence of) that path, with
    random child/descendant axes, and 0–2 branch predicates hang off
    trunk steps — each a short label path, optionally with a value
    test — and sometimes a ``[. = v]`` test on a trunk step itself,
    inner steps included.  Witness sampling only biases toward
    non-empty answers; axis loosening and random predicates keep empty
    answers common too.
    """
    document = rng.choice(list(documents))
    nodes = [n for n in document.root.iter_subtree() if n.is_structural]
    witness = rng.choice(nodes)
    # Documents already attached to a database gain the virtual root as
    # a parent; it is not addressable by queries.
    labels = [
        label
        for label in witness.root_path_labels()
        if label != VIRTUAL_ROOT_LABEL
    ]
    absolute = rng.random() < 0.5
    if not absolute and len(labels) > 1:
        start = rng.randrange(0, len(labels))
        labels = labels[start:]
    # Random axis per step; a descendant axis may also skip a step.
    steps: list[str] = []
    for index, label in enumerate(labels):
        if index == 0:
            steps.append(("/" if absolute else "//") + label)
            continue
        if rng.random() < 0.3:
            steps.append("//" + label)
        else:
            steps.append("/" + label)
    if len(steps) > 2 and rng.random() < 0.3:
        del steps[rng.randrange(1, len(steps) - 1)]
    # Branch predicates off random steps.
    predicates: dict[int, list[str]] = {}
    for _ in range(rng.randrange(0, 3)):
        anchor = rng.randrange(0, len(steps))
        length = rng.randrange(1, 3)
        branch_steps = []
        for position in range(length):
            label = rng.choice(TAGS)
            separator = "//" if rng.random() < 0.3 and position else "/"
            branch_steps.append((separator if position else "") + label)
        predicate = "".join(branch_steps)
        if rng.random() < 0.5:
            predicate += f" = '{rng.choice(VALUES)}'"
        predicates.setdefault(anchor, []).append(predicate)
    valued = rng.randrange(len(steps)) if rng.random() < 0.25 else None
    parts: list[str] = []
    for index, step in enumerate(steps):
        parts.append(step)
        if index == valued:
            parts.append(f"[. = '{rng.choice(VALUES)}']")
        for predicate in predicates.get(index, ()):
            parts.append(f"[{predicate}]")
    return "".join(parts)


# ----------------------------------------------------------------------
# Churn
# ----------------------------------------------------------------------
def random_churn_ops(
    rng: random.Random,
    live_names: Sequence[str],
    operations: int = 2,
    name_prefix: str = "churn",
    max_depth: int = 4,
    max_children: int = 3,
) -> list[tuple[str, str, Optional[Document]]]:
    """A random schedule of document mutations.

    Returns ``(op, name, document)`` triples where ``op`` is one of
    ``add`` (document is the new content), ``remove`` (document is
    ``None``), ``replace`` (new content under an existing name) or
    ``move`` (callers remove ``name`` and add ``document``, which
    carries a fresh name — a fused remove+add that exercises id-span
    reclamation and watermark renumbering in one step).  Names are
    drawn from ``live_names`` and the schedule is internally consistent
    (no double-removes); callers apply ops in order against every
    system under test.
    """
    live = list(live_names)
    ops: list[tuple[str, str, Optional[Document]]] = []
    counter = 0
    for _ in range(operations):
        choices = ["add"]
        if live:
            choices += ["remove", "replace", "move"]
        op = rng.choice(choices)
        if op == "add":
            name = f"{name_prefix}-{counter}"
            counter += 1
            ops.append(
                (
                    "add",
                    name,
                    random_document(
                        rng, name, max_depth=max_depth, max_children=max_children
                    ),
                )
            )
            live.append(name)
        elif op == "remove":
            name = live.pop(rng.randrange(len(live)))
            ops.append(("remove", name, None))
        elif op == "replace":
            name = rng.choice(live)
            ops.append(
                (
                    "replace",
                    name,
                    random_document(
                        rng, name, max_depth=max_depth, max_children=max_children
                    ),
                )
            )
        else:
            name = live.pop(rng.randrange(len(live)))
            moved = f"{name_prefix}-moved-{counter}"
            counter += 1
            ops.append(
                (
                    "move",
                    name,
                    random_document(
                        rng, moved, max_depth=max_depth, max_children=max_children
                    ),
                )
            )
            live.append(moved)
    return ops
