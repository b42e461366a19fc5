"""Plan choice: DATAPATHS merge vs INL, and cross-strategy cost estimation.

Section 5.2.3 of the paper shows that the index-nested-loop strategy
enabled by DATAPATHS' BoundIndex probes pays off when

(a) one branch is very selective,
(b) the other branches are unselective, and
(c) each selective match joins with only a few unselective matches
    (branch points close to the leaves).

The optimizer here uses the same reasoning with catalog statistics
collected while building the index: the estimated number of FreeIndex
matches per branch.  The merge plan costs roughly the sum of all branch
cardinalities (every branch is fetched and joined); the INL plan costs
the outer cardinality times a per-probe charge for each remaining
branch.  The cheaper plan wins; callers can force either plan for the
ablation benchmarks.

On top of the per-strategy plan choice, :func:`choose_strategy` ranks
*strategies* against each other with the same catalog statistics — the
estimator behind the service layer's ``strategy="auto"`` mode.  The
models are deliberately coarse (the same "rows touched" currency as the
cardinality estimates); their job is to separate the IdList-based plans
from the per-step-join plans and to surface the index-nested-loop win,
not to predict exact counter values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..indexes.base import DEFAULT_DESCENT_COST
from ..storage.stats import PAGE_READ_WEIGHT
from .analysis import TwigAnalysis

#: Logical charge of one BoundIndex probe (a root-to-leaf B+-tree
#: descent plus the entries it touches), in the same "rows touched"
#: currency as the cardinality estimates.
PROBE_COST = 4


@dataclass(frozen=True)
class DataPathsPlanChoice:
    """The optimizer's decision for one twig."""

    plan: str
    outer_index: int
    estimates: tuple[int, ...]
    merge_cost: float
    inl_cost: float

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (
            f"{self.plan} (merge={self.merge_cost:.0f}, inl={self.inl_cost:.0f}, "
            f"outer=branch {self.outer_index}, estimates={self.estimates})"
        )


def estimate_branch_cardinalities(analysis: TwigAnalysis, index) -> tuple[int, ...]:
    """Estimated FreeIndex matches per root-to-leaf branch.

    ``index`` is any object exposing ``estimate_matches(leaf_label,
    value)`` (ROOTPATHS and DATAPATHS both collect those statistics at
    build time).
    """
    estimates = []
    for path in analysis.paths:
        query = path.query
        estimates.append(max(0, index.estimate_matches(query.leaf.label, query.value)))
    return tuple(estimates)


def choose_datapaths_plan(
    analysis: TwigAnalysis,
    index,
    force: Optional[str] = None,
    probe_cost: float = PROBE_COST,
    estimates: Optional[tuple[int, ...]] = None,
) -> DataPathsPlanChoice:
    """Choose merge vs index-nested-loop for a DATAPATHS evaluation.

    ``estimates`` are ``index``'s branch cardinalities when the caller
    has already read them.
    """
    if estimates is None:
        estimates = estimate_branch_cardinalities(analysis, index)
    if not estimates:
        return DataPathsPlanChoice("merge", 0, (), 0.0, 0.0)
    outer_index = min(range(len(estimates)), key=lambda i: estimates[i])
    merge_cost = float(sum(estimates))
    other_branches = len(estimates) - 1
    # One probe per remaining branch per outer row.  No extra charge for
    # fetching the output node: the output always lies on at least one
    # root-to-leaf path (its own trunk extension at minimum), so either
    # the outer row carries it or an inner branch's probe yields it for
    # free.  (The executor keeps a defensive trunk-probe fallback for
    # the case, but it is unreachable for well-formed twigs.)
    inl_cost = (
        float(estimates[outer_index]) * probe_cost * other_branches
        + float(estimates[outer_index])
    )
    if force == "merge":
        plan = "merge"
    elif force == "inl":
        plan = "inl"
    elif analysis.is_single_path:
        plan = "merge"
    else:
        plan = "inl" if inl_cost < merge_cost else "merge"
    return DataPathsPlanChoice(plan, outer_index, estimates, merge_cost, inl_cost)


# ----------------------------------------------------------------------
# Cross-strategy cost estimation (the "auto" optimizer)
# ----------------------------------------------------------------------

#: Strategies the auto mode considers by default: the two strategies the
#: paper proposes, which dominate every figure of its evaluation.
AUTO_CANDIDATES = ("rootpaths", "datapaths")


@dataclass(frozen=True)
class StrategyChoice:
    """The optimizer's cross-strategy decision for one twig."""

    strategy: str
    costs: dict
    datapaths_plan: Optional[DataPathsPlanChoice]

    def __str__(self) -> str:  # pragma: no cover - display helper
        ranked = ", ".join(f"{n}={c:.0f}" for n, c in sorted(self.costs.items()))
        return f"{self.strategy} ({ranked})"


def _descent_cost(indexes: Optional[Mapping], index_name: str) -> float:
    """Weighted per-lookup descent charge for one index."""
    if indexes is not None:
        index = indexes.get(index_name)
        if index is not None and hasattr(index, "lookup_descent_cost"):
            return float(index.lookup_descent_cost())
    return float(DEFAULT_DESCENT_COST)


def estimate_strategy_costs(
    analysis: TwigAnalysis,
    catalog,
    candidates: tuple[str, ...] = AUTO_CANDIDATES,
    indexes: Optional[Mapping] = None,
) -> tuple[dict, Optional[DataPathsPlanChoice]]:
    """Estimated evaluation cost of each candidate strategy for one twig.

    ``catalog`` is any built index exposing ``estimate_matches`` (the
    build-time value statistics of ROOTPATHS and DATAPATHS); ``indexes``
    optionally maps index names to built indexes so descent charges can
    use actual tree heights.  Costs are expressed in the
    :func:`~repro.storage.stats.weighted_cost` currency — one descent
    costs ``height x page weight``, one scanned/joined row costs 1 — so
    they are comparable to measured ``total_cost`` values.  Per model:

    * ``rootpaths`` — one descent per branch plus every matched path
      scanned and joined (the merge plan: the sum of cardinalities);
    * ``datapaths`` — the cheaper of its merge plan (like ROOTPATHS but
      descending the larger all-subpaths tree) and its index-nested-loop
      plan (one descent per outer row per remaining branch), as priced
      by :func:`choose_datapaths_plan` with the descent as probe charge;
    * ``edge`` — every leaf candidate walks up its whole branch, one
      page-weighted backward-link probe per step;
    * ``dataguide_edge`` / ``index_fabric_edge`` — the walk-up cost plus
      the value-join rows;
    * ``asr`` / ``join_index`` — per-branch relation accesses scanning
      the matched rows, with doubled open/composition charges.
    """
    estimates = estimate_branch_cardinalities(analysis, catalog)
    branches = max(1, len(estimates))
    merge_rows = float(sum(estimates))
    walk_up = 0.0
    for estimate, path in zip(estimates, analysis.paths):
        walk_up += float(estimate) * len(path.query.nodes) * PAGE_READ_WEIGHT
    datapaths_plan: Optional[DataPathsPlanChoice] = None
    costs: dict = {}
    for name in candidates:
        if name == "rootpaths":
            descent = _descent_cost(indexes, "rootpaths")
            costs[name] = merge_rows + descent * branches
        elif name == "datapaths":
            descent = _descent_cost(indexes, "datapaths")
            datapaths_plan = choose_datapaths_plan(
                analysis, catalog, probe_cost=descent, estimates=estimates
            )
            if datapaths_plan.plan == "inl" and not analysis.is_single_path:
                # One descent for the outer branch lookup; the probes per
                # outer row are already priced at the descent charge.
                costs[name] = datapaths_plan.inl_cost + descent
            else:
                costs[name] = datapaths_plan.merge_cost + descent * branches
        elif name == "edge":
            descent = _descent_cost(indexes, "edge")
            costs[name] = walk_up + descent * branches
        elif name in ("dataguide_edge", "index_fabric_edge"):
            descent = _descent_cost(indexes, name.replace("_edge", ""))
            costs[name] = walk_up + merge_rows + descent * branches
        elif name == "asr":
            descent = _descent_cost(indexes, "asr")
            costs[name] = merge_rows + 2 * descent * branches
        elif name == "join_index":
            descent = _descent_cost(indexes, "join_index")
            costs[name] = 2 * merge_rows + 2 * descent * branches
        else:
            raise ValueError(f"no cost model for strategy {name!r}")
    return costs, datapaths_plan


def choose_strategy(
    analysis: TwigAnalysis,
    catalog,
    candidates: tuple[str, ...] = AUTO_CANDIDATES,
    indexes: Optional[Mapping] = None,
) -> StrategyChoice:
    """Pick the estimated-cheapest strategy for one twig.

    Ties go to the earlier candidate, so with the default candidate
    order ROOTPATHS (the smaller index, hence the shallower descents)
    wins whenever the models cannot separate the plans.
    """
    if not candidates:
        raise ValueError("choose_strategy needs at least one candidate")
    costs, datapaths_plan = estimate_strategy_costs(
        analysis, catalog, candidates=candidates, indexes=indexes
    )
    best = min(candidates, key=lambda name: costs[name])
    return StrategyChoice(strategy=best, costs=costs, datapaths_plan=datapaths_plan)
