"""Experiment harness: datasets, engines and per-query measurements.

The harness builds the two experimental databases (XMark-like and
DBLP-like) at a configurable scale, constructs every index the figures
need, and measures workload queries under each strategy.  Measurements
carry wall-clock time and the deterministic logical-cost counters of
:class:`~repro.storage.stats.StatsCollector`; the benchmark files under
``benchmarks/`` print paper-style tables from them and assert the
qualitative shape of each figure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

from ..engine import TwigIndexDatabase
from ..datasets import generate_dblp, generate_xmark
from ..planner.evaluator import DEFAULT_STRATEGIES
from ..workloads.queries import WorkloadQuery

#: Default generator scale used by the benchmark suite.  Chosen so the
#: whole suite runs in minutes in pure Python while keeping the
#: selectivity ratios of the paper's workload.
DEFAULT_SCALE = 0.25

#: Strategy display names used in the paper's figures.
STRATEGY_LABELS = {
    "rootpaths": "RP",
    "datapaths": "DP",
    "edge": "Edge",
    "dataguide_edge": "DG+Edge",
    "index_fabric_edge": "IF+Edge",
    "asr": "ASR",
    "join_index": "JI",
}


@dataclass
class Measurement:
    """One (query, strategy) measurement."""

    qid: str
    strategy: str
    cardinality: int
    elapsed_seconds: float
    logical_io: int
    total_cost: int
    correct: bool

    @property
    def label(self) -> str:
        """The paper's display label for the strategy."""
        return STRATEGY_LABELS.get(self.strategy, self.strategy)


@dataclass
class ExperimentContext:
    """A dataset with its engine, indices and oracle cache."""

    name: str
    database: TwigIndexDatabase

    def ensure_strategy_indexes(self, strategies: Sequence[str]) -> None:
        """Build the indices every listed strategy needs."""
        for strategy in strategies:
            self.database.engine.ensure_indexes_for(strategy)

    def measure(self, query: WorkloadQuery, strategy: str, verify: bool = True) -> Measurement:
        """Run one workload query under one strategy."""
        return self.measure_xpath(query.xpath, strategy, qid=query.qid, verify=verify)

    def measure_xpath(
        self, xpath: str, strategy: str, qid: str = "", verify: bool = True
    ) -> Measurement:
        """Run an arbitrary XPath string under one strategy."""
        result = self.database.query(xpath, strategy=strategy)
        correct = True
        if verify:
            correct = result.ids == self.database.oracle(xpath)
        return Measurement(
            qid=qid or xpath,
            strategy=strategy,
            cardinality=result.cardinality,
            elapsed_seconds=result.elapsed_seconds,
            logical_io=result.logical_io,
            total_cost=result.total_cost,
            correct=correct,
        )

    def index_sizes_mb(self) -> dict[str, float]:
        """Sizes of the built indices (MB)."""
        return self.database.index_sizes_mb()


@functools.lru_cache(maxsize=4)
def _cached_context(name: str, scale: float, seed: int) -> ExperimentContext:
    if name == "xmark":
        document = generate_xmark(scale=scale, seed=seed)
    elif name == "dblp":
        document = generate_dblp(scale=scale, seed=seed)
    else:
        raise ValueError(f"unknown dataset {name!r}")
    database = TwigIndexDatabase.from_documents([document])
    return ExperimentContext(name=name, database=database)


def get_context(name: str, scale: float = DEFAULT_SCALE, seed: Optional[int] = None) -> ExperimentContext:
    """A (cached) experiment context for one dataset.

    Contexts are cached per (dataset, scale, seed) so a benchmark module
    building several figures reuses the same database and indices.
    """
    if seed is None:
        seed = 20050405 if name == "xmark" else 19980507
    return _cached_context(name, scale, seed)


def compare_strategies(
    context: ExperimentContext,
    query: WorkloadQuery,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    verify: bool = True,
) -> dict[str, Measurement]:
    """Measure one query under several strategies."""
    context.ensure_strategy_indexes(strategies)
    return {s: context.measure(query, s, verify=verify) for s in strategies}
