"""Columnar twig-matching kernels.

The strategies in :mod:`repro.planner.strategies` and the matcher in
:mod:`repro.query.match` were written as per-row iterator pipelines —
faithful to the paper's plans, but every tuple costs a Python generator
resumption.  This package re-encodes the hot path as columnar data:

* :mod:`repro.kernels.columns` — flat ``array``-of-int columns over the
  node table (start/end/level/parent plus interned path ids via a small
  :class:`~repro.kernels.columns.PathInterner`), a batch delta codec
  (decompress-on-access), and the payload-to-row extractor that turns
  raw index payloads into join rows through a per-path placement cache.
* :mod:`repro.kernels.join` — the compiled branch join (one pass of
  dict-grouped hash joins charging the
  :class:`~repro.storage.stats.StatsCollector` exactly as a per-row
  operator plan would) and the stack-based structural join over
  interval columns.
* :mod:`repro.kernels.filter` — predicate/level/containment filters as
  merge and gallop passes over sorted position arrays.

Every strategy evaluates through these kernels, and
:class:`~repro.query.match.ColumnarMatcher` is the naive matcher's
batch form.  The per-row evaluator they replaced lives on in
``tests/oracle_legacy.py`` as the reference: answers and every cost
counter must equal its own, pinned by ``tests/test_kernels.py`` and
``tests/test_differential_fuzz.py``.
"""

from .columns import (
    BranchExtractor,
    NodeColumns,
    PathInterner,
    decode_id_column,
    encode_id_column,
)
from .filter import filter_has_descendant, gallop_leftmost, intersect_sorted
from .join import CompiledJoin, CompiledTwig, structural_join

__all__ = [
    "BranchExtractor",
    "CompiledJoin",
    "CompiledTwig",
    "NodeColumns",
    "PathInterner",
    "decode_id_column",
    "encode_id_column",
    "filter_has_descendant",
    "gallop_leftmost",
    "intersect_sorted",
    "structural_join",
]
