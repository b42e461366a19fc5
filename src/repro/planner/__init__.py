"""Twig evaluation plans: analysis, strategies, plan choice, engine."""

from .analysis import AnalyzedPath, TwigAnalysis, split_segments, subpath_below
from .evaluator import (
    DEFAULT_STRATEGIES,
    QueryResult,
    STRATEGY_TYPES,
    TwigQueryEngine,
)
from .optimizer import (
    AUTO_CANDIDATES,
    DataPathsPlanChoice,
    PROBE_COST,
    StrategyChoice,
    choose_datapaths_plan,
    choose_strategy,
    estimate_branch_cardinalities,
    estimate_strategy_costs,
)
from .strategies import (
    AccessSupportRelationsStrategy,
    DataGuidePlusEdgeStrategy,
    DataPathsStrategy,
    EdgeStrategy,
    EvaluationStrategy,
    IndexFabricPlusEdgeStrategy,
    JoinIndicesStrategy,
    RootPathsStrategy,
)

__all__ = [
    "AUTO_CANDIDATES",
    "AccessSupportRelationsStrategy",
    "AnalyzedPath",
    "DEFAULT_STRATEGIES",
    "DataGuidePlusEdgeStrategy",
    "DataPathsPlanChoice",
    "DataPathsStrategy",
    "EdgeStrategy",
    "EvaluationStrategy",
    "IndexFabricPlusEdgeStrategy",
    "JoinIndicesStrategy",
    "PROBE_COST",
    "QueryResult",
    "RootPathsStrategy",
    "STRATEGY_TYPES",
    "StrategyChoice",
    "TwigAnalysis",
    "TwigQueryEngine",
    "choose_datapaths_plan",
    "choose_strategy",
    "estimate_branch_cardinalities",
    "estimate_strategy_costs",
    "split_segments",
    "subpath_below",
]
