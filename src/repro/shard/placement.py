"""Pluggable document-to-shard placement policies.

The sharded tier (:class:`~repro.shard.service.ShardedQueryService`)
asks its policy where each incoming document should live.  Policies
see the document, its arrival ordinal and the current per-shard live
node counts, and return a shard index; they never move documents
themselves — but the same ``choose`` replay drives
:meth:`~repro.shard.service.ShardedQueryService.plan_rebalance`, which
computes the moves that re-place an already loaded corpus under a
policy (node ids inside a shard are assigned at add time and query
answers are translated through the recorded spans, so a move just gives
a document a fresh local interval on its new shard).

Three policies cover the usual trade-offs:

* :class:`HashPlacement` — deterministic by document name (CRC32, not
  Python's seeded ``hash``), so the same corpus lands the same way
  across processes and restarts;
* :class:`RoundRobinPlacement` — arrival order modulo shard count,
  maximally even document *counts*;
* :class:`SizeBalancedPlacement` — least-loaded by node count, evening
  out *data volume* when document sizes are skewed.
"""

from __future__ import annotations

import zlib
from typing import Sequence, Union

from ..errors import DocumentError
from ..xmltree.document import Document


class PlacementPolicy:
    """Strategy interface: pick the shard an incoming document joins."""

    #: Registry name (also what ``describe()`` reports).
    name = "abstract"

    def choose(
        self, document: Document, ordinal: int, shard_weights: Sequence[int]
    ) -> int:
        """The target shard index for one document.

        Parameters
        ----------
        document:
            The incoming (not yet numbered) document.
        ordinal:
            Zero-based arrival position across the whole tier.
        shard_weights:
            Live node count per shard (removed and moved-out documents
            no longer weigh); ``len(shard_weights)`` is the shard count.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class HashPlacement(PlacementPolicy):
    """Deterministic placement by CRC32 of the document name.

    Unnamed documents fall back to their arrival ordinal so they still
    spread instead of piling onto the hash of the empty string.
    """

    name = "hash"

    def choose(
        self, document: Document, ordinal: int, shard_weights: Sequence[int]
    ) -> int:
        key = document.name or f"#{ordinal}"
        return zlib.crc32(key.encode("utf-8")) % len(shard_weights)


class RoundRobinPlacement(PlacementPolicy):
    """Arrival ordinal modulo shard count — even document counts."""

    name = "round_robin"

    def choose(
        self, document: Document, ordinal: int, shard_weights: Sequence[int]
    ) -> int:
        return ordinal % len(shard_weights)


class SizeBalancedPlacement(PlacementPolicy):
    """Least-loaded shard by node count (lowest index breaks ties).

    The tie-break is part of the contract, not an accident: equal
    weights always resolve to the lowest shard index, so a rebalance
    plan replayed over the same corpus is identical run to run
    (``tests/test_shard_topology.py`` pins this determinism).
    """

    name = "size_balanced"

    def choose(
        self, document: Document, ordinal: int, shard_weights: Sequence[int]
    ) -> int:
        return min(range(len(shard_weights)), key=lambda i: (shard_weights[i], i))


#: Registry of policy name -> policy class.
PLACEMENT_POLICIES: dict[str, type[PlacementPolicy]] = {
    HashPlacement.name: HashPlacement,
    RoundRobinPlacement.name: RoundRobinPlacement,
    SizeBalancedPlacement.name: SizeBalancedPlacement,
}


def make_placement(policy: Union[str, PlacementPolicy]) -> PlacementPolicy:
    """Resolve a policy name or pass an instance through."""
    if isinstance(policy, PlacementPolicy):
        return policy
    try:
        return PLACEMENT_POLICIES[policy]()
    except KeyError:
        raise DocumentError(
            f"unknown placement policy {policy!r}; "
            f"known: {sorted(PLACEMENT_POLICIES)}"
        ) from None
