"""Unit tests for the reference evaluator's relational plan operators."""

import pytest

from repro.errors import PlanningError
from repro.storage import StatsCollector

from oracle_legacy import Distinct, Filter, Project, RowSchema, RowSource


def source(rows, columns=("a", "b")):
    return RowSource(columns, rows, stats=StatsCollector())


def test_schema_position_and_project():
    schema = RowSchema(("x", "y", "z"))
    assert schema.position("y") == 1
    assert schema.positions(["z", "x"]) == [2, 0]
    assert tuple(schema.project(("z",))) == ("z",)
    with pytest.raises(PlanningError):
        schema.position("missing")
    with pytest.raises(PlanningError):
        RowSchema(("a", "a"))


def test_schema_concat_renames_duplicates():
    left = RowSchema(("id", "v"))
    right = RowSchema(("id", "w"))
    combined = left.concat(right)
    assert combined.columns == ("id", "v", "id_r", "w")


def test_row_source_and_project():
    rows = [(1, "x"), (2, "y")]
    plan = Project(source(rows), ["b"])
    assert plan.rows() == [("x",), ("y",)]


def test_filter_keeps_rows_matching_the_predicate():
    rows = [(1, "x"), (2, "y"), (2, "z")]
    plan = Filter(source(rows), lambda row: row[0] == 2)
    assert plan.rows() == [(2, "y"), (2, "z")]


def test_distinct_preserves_first_seen_order():
    plan = Distinct(source([(1, "x"), (1, "x"), (2, "y"), (1, "x")]))
    assert plan.rows() == [(1, "x"), (2, "y")]


def test_explain_mentions_every_operator():
    plan = Distinct(Project(source([(1, "x")]), ["a"]))
    text = plan.explain()
    assert "Distinct" in text and "Project" in text and "RowSource" in text


def test_tuples_produced_counter():
    stats = StatsCollector()
    plan = RowSource(("a",), [(1,), (2,)], stats=stats)
    list(plan)
    assert stats.tuples_produced == 2


def test_filter_project_and_distinct_charge_one_tuple_per_row_passed():
    stats = StatsCollector()
    rows = [(1, "x"), (2, "y"), (2, "y"), (3, "z")]
    base = RowSource(("a", "b"), rows, stats=stats)
    plan = Distinct(Project(Filter(base, lambda row: row[0] >= 2), ["b"]))
    assert plan.rows() == [("y",), ("z",)]
    # 4 scanned + 3 filtered + 3 projected + 2 distinct.
    assert stats.tuples_produced == 4 + 3 + 3 + 2
