"""Lossy compression schemes for ROOTPATHS and DATAPATHS (Section 4).

Three schemes from the paper are modelled:

* **IdList differential encoding** (lossless, Section 4.1) lives in
  :mod:`repro.paths.idlist` and is applied by default when indices
  estimate their size.
* **SchemaPath dictionary compression** (lossy, Section 4.2):
  :class:`SchemaPathDictionary` replaces each distinct schema path with
  a small integer id.  The resulting index can no longer answer
  patterns with a leading ``//`` because the id is indivisible.
* **HeadId pruning** (lossy, Section 4.3): :class:`HeadIdPruner` keeps
  only DATAPATHS rows whose head corresponds to a branch point of some
  query in a known workload, shrinking the index at the cost of
  disabling index-nested-loop joins for out-of-workload branch points.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .schema_paths import LabelPath


class SchemaPathDictionary:
    """Dictionary-encodes whole schema paths as integer ids (Section 4.2)."""

    def __init__(self) -> None:
        self._path_to_id: dict[LabelPath, int] = {}
        self._id_to_path: list[LabelPath] = []

    def __len__(self) -> int:
        return len(self._id_to_path)

    def __contains__(self, path: Sequence[str]) -> bool:
        return tuple(path) in self._path_to_id

    def intern(self, path: Sequence[str]) -> int:
        """Return the id for ``path``, assigning one if unseen."""
        key = tuple(path)
        path_id = self._path_to_id.get(key)
        if path_id is None:
            self._id_to_path.append(key)
            path_id = len(self._id_to_path)
            self._path_to_id[key] = path_id
        return path_id

    def id_of(self, path: Sequence[str]) -> Optional[int]:
        """Id of ``path`` or ``None`` when the exact path never occurs."""
        return self._path_to_id.get(tuple(path))

    def path_of(self, path_id: int) -> LabelPath:
        """The schema path for an id."""
        return self._id_to_path[path_id - 1]

    def paths_since(self, count: int) -> tuple[LabelPath, ...]:
        """The paths assigned ids after the first ``count``, in id order."""
        return tuple(self._id_to_path[count:])

    def estimated_size_bytes(self) -> int:
        """Space of the dictionary itself (id + label bytes per entry)."""
        return sum(4 + sum(len(label) + 1 for label in path) for path in self._id_to_path)


class HeadIdPruner:
    """Workload-driven pruning of DATAPATHS heads (Section 4.3).

    The pruner is configured with the set of *branch-point labels* of a
    workload (for example ``{"site", "open_auction", "item"}``).  A
    DATAPATHS row is kept when its head node carries one of those
    labels or is the virtual root (the rows solving the FreeIndex
    problem are always kept).
    """

    def __init__(self, branch_point_labels: Iterable[str]) -> None:
        self.branch_point_labels = frozenset(branch_point_labels)

    @classmethod
    def from_workload(cls, twigs: Iterable) -> "HeadIdPruner":
        """Build a pruner from an iterable of parsed twig patterns.

        Rows are kept for heads that can serve as BoundIndex probe points
        for the workload: the twig roots, the branching nodes, and — for
        branching twigs — each root-to-leaf path's *join point* (its
        deepest node on the output path), which is where the
        index-nested-loop plans of Section 5.2.3 anchor their probes.
        """
        labels: set[str] = set()
        for twig in twigs:
            labels.add(twig.root.label)
            for node in twig.iter_nodes():
                if len(node.children) > 1:
                    labels.add(node.label)
            leaves = [n for n in twig.iter_nodes() if not n.children]
            if len(leaves) <= 1:
                continue
            trunk = {id(n) for n in twig.output_path()}
            for leaf in leaves:
                join_point = twig.root
                for node in leaf.path_from_root():
                    if id(node) in trunk:
                        join_point = node
                labels.add(join_point.label)
        return cls(labels)

    def keeps_label(self, label: str) -> bool:
        """True when rows headed at nodes with ``label`` are retained."""
        return label in self.branch_point_labels

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HeadIdPruner({sorted(self.branch_point_labels)!r})"
