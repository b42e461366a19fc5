"""Tests for twig analysis, the branch join and the DATAPATHS plan choice."""

import pytest

from repro.errors import PlanningError
from repro.indexes import DataPathsIndex
from repro.kernels.join import CompiledJoin, CompiledTwig
from repro.planner import (
    TwigAnalysis,
    choose_datapaths_plan,
    estimate_branch_cardinalities,
    split_segments,
    subpath_below,
)
from repro.query import parse_xpath
from repro.storage import StatsCollector

from oracle_legacy import BranchRelation, join_branches


def test_analysis_join_points_and_needed_nodes():
    twig = parse_xpath(
        "/site[people/person/profile/@income='1']/open_auctions/open_auction[@increase='2']"
    )
    analysis = TwigAnalysis(twig)
    assert [n.label for n in analysis.trunk] == ["site", "open_auctions", "open_auction"]
    by_leaf = {p.leaf.label: p for p in analysis.paths}
    assert by_leaf["income"].join_point.label == "site"
    assert by_leaf["increase"].join_point.label == "open_auction"
    assert [n.label for n in by_leaf["income"].needed_nodes] == ["site"]
    assert [n.label for n in by_leaf["increase"].needed_nodes] == ["site", "open_auction"]
    assert by_leaf["increase"].contains_output
    assert not by_leaf["income"].contains_output
    assert not analysis.is_single_path


def test_analysis_trunk_helpers():
    twig = parse_xpath("/site/open_auctions/open_auction[bidder/@increase='3']/time")
    analysis = TwigAnalysis(twig)
    site, open_auctions, open_auction, time_node = analysis.trunk
    assert analysis.trunk_depth(time_node) == 3
    assert analysis.trunk_common_node(site, open_auction) is site
    between = analysis.trunk_nodes_between(site, time_node)
    assert [n.label for n in between] == ["open_auctions", "open_auction", "time"]


def test_split_segments_and_subpath_below():
    twig = parse_xpath("/site//item/mailbox/mail/to")
    (path,) = twig.path_queries()
    segments, anchored = split_segments(path.nodes)
    assert segments == (("site",), ("item", "mailbox", "mail", "to"))
    assert anchored
    item_node = path.nodes[1]
    below = subpath_below(path.nodes, item_node)
    assert [n.label for n in below] == ["mailbox", "mail", "to"]
    with pytest.raises(ValueError):
        subpath_below(path.nodes, parse_xpath("/x").root)


def test_join_branches_small_example():
    twig = parse_xpath("/r[a='1']/b")
    analysis = TwigAnalysis(twig)
    rows = {"a": [(100,)], "b": [(100, 200), (999, 201)]}
    rows_by_path = [rows[path.leaf.label] for path in analysis.paths]
    # The compiled join answers and charges like the reference's plan.
    compiled, reference = StatsCollector(), StatsCollector()
    plan = CompiledTwig(analysis)
    assert plan.join.run(rows_by_path, compiled) == [200]
    relations = [
        BranchRelation(analysis, path.needed_nodes, path_rows, label=path.leaf.label)
        for path, path_rows in zip(analysis.paths, rows_by_path)
    ]
    assert join_branches(analysis, relations, stats=reference) == [200]
    assert compiled.snapshot() == reference.snapshot()


def test_join_branches_requires_output_column():
    twig = parse_xpath("/r[a='1']/b")
    analysis = TwigAnalysis(twig)
    path_a = next(p for p in analysis.paths if p.leaf.label == "a")
    lonely = BranchRelation(analysis, path_a.needed_nodes, [(1,)], label="a")
    with pytest.raises(PlanningError):
        join_branches(analysis, [lonely, lonely])
    join = CompiledJoin(analysis, [lonely.columns] * 2, ["a", "a"])
    with pytest.raises(PlanningError):
        join.run([lonely.rows] * 2, StatsCollector())


class _StubStatistics:
    """Catalog statistics stub with paper-scale branch cardinalities."""

    def __init__(self, by_label):
        self.by_label = by_label

    def estimate_matches(self, leaf_label, value=None):
        return self.by_label.get(leaf_label, 0)


def test_optimizer_prefers_inl_for_selective_outer():
    # Q10x shape: one 3-row branch, one 59k-row trunk leaf (Figure 12(d)).
    selective = parse_xpath(
        "/site/open_auctions/open_auction[annotation/author/@person='person22082']/time"
    )
    stats = _StubStatistics({"person": 3, "time": 59486})
    choice = choose_datapaths_plan(TwigAnalysis(selective), stats)
    assert choice.plan == "inl"
    assert choice.inl_cost < choice.merge_cost

    # Q8x shape: two unselective branches (2038 and 5172 rows) — merge wins.
    unselective = parse_xpath(
        "/site[people/person/profile/@income='9876.00']"
        "/open_auctions/open_auction[@increase='3.00']"
    )
    stats2 = _StubStatistics({"income": 2038, "increase": 5172})
    choice2 = choose_datapaths_plan(TwigAnalysis(unselective), stats2)
    assert choice2.plan == "merge"


def test_optimizer_force_overrides(xmark_small):
    index = DataPathsIndex(stats=StatsCollector()).build(xmark_small.db)
    twig = parse_xpath("/site[people/person/name='Hagen Artosi']/open_auctions/open_auction")
    analysis = TwigAnalysis(twig)
    assert choose_datapaths_plan(analysis, index, force="merge").plan == "merge"
    assert choose_datapaths_plan(analysis, index, force="inl").plan == "inl"
    estimates = estimate_branch_cardinalities(analysis, index)
    assert len(estimates) == analysis.twig.branch_count


def test_single_path_never_uses_inl(xmark_small):
    index = DataPathsIndex(stats=StatsCollector()).build(xmark_small.db)
    twig = parse_xpath("/site/people/person/name[.='Hagen Artosi']")
    assert choose_datapaths_plan(TwigAnalysis(twig), index).plan == "merge"
