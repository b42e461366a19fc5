"""Data-path encoding: schema paths, the 4-ary relation, IdLists, compression.

Implements Section 3.1 (the unified relational representation of data
paths that defines the index family) and Section 4 (lossless and lossy
compression of IdLists, SchemaPaths and HeadIds).
"""

from .compression import HeadIdPruner, SchemaPathDictionary
from .fourary import (
    PathRow,
    distinct_schema_paths,
    iter_datapaths_rows,
    iter_rootpaths_rows,
)
from .idlist import (
    compression_ratio,
    decode_deltas,
    encode_deltas,
    encoded_size_bytes,
    present_ids,
    prune_idlist,
    raw_size_bytes,
    varint_size,
)
from .schema_paths import (
    LabelPath,
    PathPattern,
    iter_rooted_label_paths,
    match_positions,
    matches,
    matching_schema_paths,
    render_designators,
    reverse_path,
)

__all__ = [
    "HeadIdPruner",
    "LabelPath",
    "PathPattern",
    "PathRow",
    "SchemaPathDictionary",
    "compression_ratio",
    "decode_deltas",
    "distinct_schema_paths",
    "encode_deltas",
    "encoded_size_bytes",
    "iter_datapaths_rows",
    "iter_rooted_label_paths",
    "iter_rootpaths_rows",
    "match_positions",
    "matches",
    "matching_schema_paths",
    "present_ids",
    "prune_idlist",
    "raw_size_bytes",
    "render_designators",
    "reverse_path",
    "varint_size",
]
