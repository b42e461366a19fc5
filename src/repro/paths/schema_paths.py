"""Schema paths: label sequences, reversal, rendering and pattern matching.

A *schema path* (Section 3.1) is the sequence of element tags and
attribute names along a data path, excluding leaf values.  The library
represents a schema path as a tuple of label strings; the storage layer
encodes labels as tag ids when building B+-tree keys and the
:class:`~repro.xmltree.dictionary.TagDictionary` renders them as the
paper's one-character designators for display.

The module also implements matching of *segmented* path patterns
(PCsubpath segments separated by ``//``) against concrete label paths,
including the enumeration of every possible placement.  This matcher is
shared by the ROOTPATHS/DATAPATHS strategies (to verify the part of a
twig path above the last ``//`` and to locate branch-point positions in
IdLists), by the DataGuide, ASR and Join-Index strategies (to find the
schema paths a recursive pattern matches), and by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

LabelPath = tuple[str, ...]


def reverse_path(path: Sequence[str]) -> LabelPath:
    """The reversed label path (``BUAF`` -> ``FAUB`` in the paper's figures)."""
    return tuple(reversed(tuple(path)))


def render_designators(path: Sequence[str], tags) -> str:
    """Render a label path with one-character designators (Figure 2 style)."""
    return tags.encode_path(path)


@dataclass(frozen=True)
class PathPattern:
    """A path pattern: label segments separated by descendant gaps.

    ``segments`` is a non-empty list of label tuples.  Consecutive
    segments are separated by an ancestor-descendant gap of one or more
    edges.  ``anchored`` means the first segment must start at the
    beginning of the label path (the document root); otherwise the first
    segment may start anywhere (a leading ``//``).  The final segment is
    always anchored at the end of the label path by construction of the
    callers (patterns are matched against paths that end at the node of
    interest).
    """

    segments: tuple[LabelPath, ...]
    anchored: bool = True

    def __post_init__(self) -> None:
        if not self.segments or any(not s for s in self.segments):
            raise ValueError("PathPattern requires non-empty segments")

    @property
    def labels(self) -> LabelPath:
        """All labels of the pattern in order (ignoring gaps)."""
        return tuple(label for segment in self.segments for label in segment)

    @property
    def length(self) -> int:
        """Number of labels in the pattern."""
        return len(self.labels)

    @property
    def is_single_segment(self) -> bool:
        """True when the pattern is a plain PCsubpath (no internal ``//``)."""
        return len(self.segments) == 1

    @property
    def trailing_segment(self) -> LabelPath:
        """The last segment — the part a reversed-schema-path prefix scan uses."""
        return self.segments[-1]


def match_positions(pattern: PathPattern, path: Sequence[str]) -> list[tuple[int, ...]]:
    """Every placement of ``pattern`` in ``path`` that ends at the last label.

    A placement assigns an index in ``path`` to every pattern label such
    that segment labels are contiguous, segments appear in order with at
    least one edge between them, the first segment starts at index 0
    when the pattern is anchored, and the final segment ends at
    ``len(path) - 1``.

    Returns a list of tuples of path indexes, one tuple per placement
    (one index per pattern label, in pattern order).
    """
    path = tuple(path)
    if pattern.length > len(path):
        return []
    placements: list[tuple[int, ...]] = []
    _place(pattern.segments, 0, path, pattern.anchored, (), placements)
    return placements


def _place(
    segments: Sequence[LabelPath],
    segment_index: int,
    path: LabelPath,
    anchored: bool,
    acc: tuple[int, ...],
    out: list[tuple[int, ...]],
    start_at: int = 0,
) -> None:
    if segment_index == len(segments):
        # All segments placed; final segment must have ended at the path end.
        if acc and acc[-1] == len(path) - 1:
            out.append(acc)
        return
    segment = segments[segment_index]
    is_first = segment_index == 0
    is_last = segment_index == len(segments) - 1
    if is_first and anchored:
        candidate_starts = [0] if start_at == 0 else []
    elif is_last:
        # The last segment must end exactly at the path end.
        start = len(path) - len(segment)
        candidate_starts = [start] if start >= start_at else []
    else:
        candidate_starts = range(start_at, len(path) - len(segment) + 1)
    for start in candidate_starts:
        if start < start_at or start + len(segment) > len(path):
            continue
        if tuple(path[start : start + len(segment)]) != segment:
            continue
        positions = acc + tuple(range(start, start + len(segment)))
        # The descendant axis admits direct children, so the next segment
        # may begin immediately after this one.
        _place(
            segments,
            segment_index + 1,
            path,
            anchored,
            positions,
            out,
            start_at=start + len(segment),
        )


def matches(pattern: PathPattern, path: Sequence[str]) -> bool:
    """True when ``pattern`` has at least one placement in ``path``."""
    return bool(match_positions(pattern, path))


def matching_schema_paths(
    pattern: PathPattern, schema_paths: Iterable[Sequence[str]]
) -> list[LabelPath]:
    """The subset of ``schema_paths`` the pattern matches.

    Used by DataGuide / ASR / Join-Index strategies to decide which
    per-path structures a recursive (``//``) query must visit — the
    paper's Section 5.2.6 observation that those approaches touch one
    relation per matching subpath.
    """
    return [tuple(p) for p in schema_paths if matches(pattern, tuple(p))]


def iter_rooted_nodes(documents) -> Iterator[tuple]:
    """Yield ``(node, labels, ids)`` for every structural node of
    ``documents`` in document order, with its root-to-node labels and ids."""
    for document in documents:
        stack: list[tuple] = [(document.root, (document.root.label,), (document.root.node_id,))]
        while stack:
            node, labels, ids = stack.pop()
            yield node, labels, ids
            for child in reversed(node.structural_children()):
                stack.append((child, labels + (child.label,), ids + (child.node_id,)))


def iter_rooted_label_paths(db) -> Iterator[tuple[LabelPath, tuple[int, ...]]]:
    """Yield ``(labels, ids)`` for the root-to-node path of every structural node.

    The virtual root is excluded from both tuples; ids are document-order
    node ids, labels are tags/attribute names.
    """
    for _node, labels, ids in iter_rooted_nodes(db.documents):
        yield labels, ids
