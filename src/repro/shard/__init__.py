"""The sharded tier: dynamic topology, rebalancing, replica read-out.

The horizontal-scaling tier over the paper's index family: a
:class:`ShardedQueryService` partitions documents across N
self-contained shards (each with its own database, indexes, statistics
and single-node :class:`~repro.service.QueryService`) and fans twig
queries out to the relevant shards on the caller's thread, translating
and merging the per-shard answers into the global id space so the
sharded tier is answer-identical to a single engine.

Routing lives in an explicit, versioned :class:`ShardTopology` — a
table of :class:`DocumentPlacement` records — which makes the topology
*dynamic*: :meth:`ShardedQueryService.move_document` re-routes one
document online and :meth:`ShardedQueryService.rebalance` re-places a
skewed corpus under a policy, both through the shards' incremental
index maintenance, with global ids (and therefore answers) unchanged
throughout.  Every :class:`Shard` is a replica set of N >= 1
identical :class:`Replica` engines — one is the plain shard, more
scale reads out — with pluggable read pickers (:data:`READ_PICKERS`)
and write-through maintenance.

The tier is *self-driving*: every replica carries a
:class:`ReplicaHealth` state machine (healthy → suspect → dead) so
failed reads retry on the next healthy replica,
:meth:`Shard.revive` re-syncs a quarantined replica from the
primary's live documents, and an :class:`AutoRebalancer` watches the
topology's skew ratio between queries and fires ``rebalance(policy)``
through a hysteresis band.  The deterministic fault-injection module
(:mod:`repro.faults`) exercises all of it from tests and benches.

Placement is pluggable (:data:`PLACEMENT_POLICIES`): hash-by-name,
round-robin, or size-balanced (deterministic lowest-index tie-break).
"""

from .placement import (
    HashPlacement,
    PLACEMENT_POLICIES,
    PlacementPolicy,
    RoundRobinPlacement,
    SizeBalancedPlacement,
    make_placement,
)
from .rebalance import AutoRebalancer, RebalanceMove, RebalanceReport
from .replica import (
    LeastLoadedPicker,
    QUERY_ERRORS,
    READ_PICKERS,
    REPLICA_DEAD,
    REPLICA_HEALTHY,
    REPLICA_STATES,
    REPLICA_SUSPECT,
    ReadPicker,
    Replica,
    ReplicaHealth,
    RoundRobinPicker,
    Shard,
    StickyPicker,
    make_picker,
)
from .service import ShardedQueryService
from .topology import DocumentPlacement, ShardTopology

__all__ = [
    "AutoRebalancer",
    "DocumentPlacement",
    "HashPlacement",
    "LeastLoadedPicker",
    "PLACEMENT_POLICIES",
    "PlacementPolicy",
    "QUERY_ERRORS",
    "READ_PICKERS",
    "REPLICA_DEAD",
    "REPLICA_HEALTHY",
    "REPLICA_STATES",
    "REPLICA_SUSPECT",
    "ReadPicker",
    "ReplicaHealth",
    "RebalanceMove",
    "RebalanceReport",
    "Replica",
    "RoundRobinPicker",
    "RoundRobinPlacement",
    "Shard",
    "ShardedQueryService",
    "SizeBalancedPlacement",
    "StickyPicker",
    "ShardTopology",
    "make_picker",
    "make_placement",
]
