"""Unit and property tests for the reference evaluator's hash join."""

from hypothesis import given, settings, strategies as st

from repro.storage import StatsCollector

from oracle_legacy import HashJoin, RowSource


def src(columns, rows):
    return RowSource(columns, rows, stats=StatsCollector())


def test_joins_handle_heterogeneous_and_null_keys():
    left = src(("id", "l"), [(None, "n"), ("x", "s"), (1, "i")])
    right = src(("id",), [(None,), ("x",), (2,)])
    joined = sorted(HashJoin(left, right, "id", "id").rows(), key=str)
    assert joined == [("x", "s", "x"), (None, "n", None)]


def test_hash_join_charges_a_probe_per_left_row_and_a_tuple_per_match():
    # The compiled join's counters are checked against these charges.
    stats = StatsCollector()
    left = RowSource(("id", "l"), [(1, "a"), (2, "b"), (3, "c")], stats=stats)
    right = RowSource(("id", "r"), [(1, "x"), (1, "y"), (9, "z")], stats=stats)
    rows = HashJoin(left, right, "id", "id").rows()
    assert rows == [(1, "a", 1, "x"), (1, "a", 1, "y")]
    assert stats.join_probes == 3
    # Three rows from each RowSource, two emitted by the join.
    assert stats.tuples_produced == 3 + 3 + 2


rows_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=50)),
    max_size=60,
)


@settings(max_examples=50, deadline=None)
@given(rows_strategy, rows_strategy)
def test_property_hash_join_equals_nested_loop(left_rows, right_rows):
    expected = sorted(
        lhs + rhs
        for lhs in left_rows
        for rhs in right_rows
        if lhs[0] == rhs[0]
    )
    hashed = sorted(
        HashJoin(src(("k", "l"), left_rows), src(("k", "r"), right_rows), "k", "k").rows()
    )
    assert hashed == expected
