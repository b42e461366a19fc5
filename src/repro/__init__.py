"""repro — reproduction of "Index Structures for Matching XML Twigs Using
Relational Query Processors" (Chen, Gehrke, Korn, Koudas,
Shanmugasundaram, Srivastava; ICDE 2005).

The package implements the paper's family of XML path indices —
including the novel ROOTPATHS and DATAPATHS structures — on top of a
self-contained relational substrate (B+-trees, heap files, a compiled
hash join on branch-point ids), together with the datasets, workloads
and benchmark harness needed to regenerate every table and figure of
the paper's evaluation.

Typical entry points:

* :class:`TwigIndexDatabase` — load XML, build indices, run twig queries,
* :mod:`repro.shard` — the sharded tier with scatter-gather execution,
* :mod:`repro.datasets` — synthetic XMark-like and DBLP-like documents,
* :mod:`repro.workloads` — the Q1x–Q15x / Q1d–Q3d query workload,
* :mod:`repro.bench` — the experiment harness behind ``benchmarks/``.
"""

from .engine import TwigIndexDatabase
from .errors import (
    DocumentError,
    PlanningError,
    QueryNotSupportedError,
    QueryParseError,
    ReproError,
    StorageError,
    UnsupportedLookupError,
    XmlParseError,
)
from .faults import FaultInjector, FaultPlan, InjectedFault
from .frontdoor import (
    FrontDoor,
    FrontDoorError,
    FrontDoorServer,
    QueryRequest,
    QueryResponse,
    RejectedError,
)
from .obs import Telemetry
from .planner.evaluator import DEFAULT_STRATEGIES, QueryResult, TwigQueryEngine
from .query.parser import normalize_xpath, parse_xpath
from .service import AUTO_STRATEGY, BatchResult, QueryService
from .shard import ShardedQueryService
from .xmltree.document import Document, TreeBuilder, XmlDatabase
from .xmltree.parser import parse_file, parse_string

__version__ = "1.0.0"

__all__ = [
    "AUTO_STRATEGY",
    "BatchResult",
    "DEFAULT_STRATEGIES",
    "Document",
    "DocumentError",
    "FaultInjector",
    "FaultPlan",
    "FrontDoor",
    "FrontDoorError",
    "FrontDoorServer",
    "InjectedFault",
    "PlanningError",
    "QueryNotSupportedError",
    "QueryParseError",
    "QueryRequest",
    "QueryResponse",
    "QueryResult",
    "QueryService",
    "RejectedError",
    "ReproError",
    "ShardedQueryService",
    "StorageError",
    "Telemetry",
    "TreeBuilder",
    "TwigIndexDatabase",
    "TwigQueryEngine",
    "UnsupportedLookupError",
    "XmlDatabase",
    "XmlParseError",
    "normalize_xpath",
    "parse_file",
    "parse_string",
    "parse_xpath",
    "__version__",
]
