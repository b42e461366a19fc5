"""Storage substrate: B+-tree access method, heap files, key encoding, stats.

These are the "access methods of the underlying database system" the
paper realises its index family with (Section 3 and 5.1.2).  All
components report logical work into a shared
:class:`~repro.storage.stats.StatsCollector` so that experiments can be
reproduced with deterministic cost counters as well as wall-clock time.
"""

from .btree import BPlusTree
from .heap import HeapFile
from .keys import (
    EncodedKey,
    KeyComponent,
    decode_key,
    encode_component,
    encode_key,
    exact_prefix,
    is_prefix,
    row_key,
    split_key,
)
from .stats import GLOBAL_STATS, StatsCollector, sum_snapshots

__all__ = [
    "BPlusTree",
    "EncodedKey",
    "GLOBAL_STATS",
    "HeapFile",
    "KeyComponent",
    "StatsCollector",
    "decode_key",
    "encode_component",
    "encode_key",
    "exact_prefix",
    "is_prefix",
    "row_key",
    "split_key",
    "sum_snapshots",
]
