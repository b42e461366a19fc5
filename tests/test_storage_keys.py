"""Unit and property tests for key encoding (repro.storage.keys).

The reference is the tagged-tuple encoding keys had before they became
bytes: ``None`` → ``(0,)``, an int → ``(1, value)``, a str →
``(2, value)``, a key the tuple of its components.  Python orders those
tuples exactly as the B+-tree needs, so the byte encoding is correct
when it orders, prefixes and splits like them.  A row key is the
logical tuple, the empty tuple (the terminator, below every component)
and its tail id.
"""

import pytest
from hypothesis import given, strategies as st

from repro.errors import KeyEncodingError
from repro.storage.keys import (
    decode_key,
    encode_component,
    encode_key,
    exact_prefix,
    is_prefix,
    row_key,
    split_key,
)

INT_MIN, INT_MAX = -(2**63), 2**63 - 1


def reference_component(value):
    """The tagged tuple a component was encoded as before keys were bytes."""
    if value is None:
        return (0,)
    if isinstance(value, int):
        return (1, value)
    return (2, value)


def reference_key(components):
    return tuple(reference_component(value) for value in components)


def reference_row_key(components, tail_id):
    return (*reference_key(components), (), (1, tail_id))


def sign(a, b) -> int:
    return (a > b) - (a < b)


integers = st.one_of(
    st.integers(min_value=INT_MIN, max_value=INT_MAX),
    st.sampled_from([INT_MIN, INT_MIN + 1, -1, 0, 1, 255, 256, INT_MAX - 1, INT_MAX]),
)
#: NUL (the escaped byte), the bytes next to the terminator, surrogates
#: (kept by ``surrogatepass``) and astral / non-ASCII code points; the
#: short texts over four characters make one string often a prefix of
#: another, so a NUL often sits right where the shorter one ends.
texts = st.one_of(
    st.text(alphabet="\x00\x01a\xff", max_size=3),
    st.text(
        alphabet=st.one_of(
            st.sampled_from("\x00\x01\x02\x7f\xffĀ퟿\U000103ff\U0010ffff"),
            st.characters(exclude_categories=()),
        ),
        max_size=8,
    ),
)
component = st.one_of(st.none(), integers, texts)
components = st.lists(component, max_size=6)


@st.composite
def key_pairs(draw):
    """Two component lists that often share a prefix."""
    first = draw(components)
    shared = draw(st.integers(min_value=0, max_value=len(first)))
    second = first[:shared] + draw(st.lists(component, max_size=3))
    return (first, second) if draw(st.booleans()) else (second, first)


def test_encode_orders_none_before_numbers_before_strings():
    assert encode_component(None) < encode_component(0) < encode_component("a")
    assert encode_component(-5) < encode_component(3)
    assert encode_component("a") < encode_component("b")


def test_booleans_are_rejected():
    with pytest.raises(KeyEncodingError):
        encode_component(True)
    with pytest.raises(KeyEncodingError):
        encode_key(["x", False])


def test_unsupported_types_are_rejected():
    with pytest.raises(KeyEncodingError):
        encode_component(object())


@pytest.mark.parametrize("value", [INT_MAX + 1, INT_MIN - 1, 2**80, -(2**80)])
def test_out_of_range_integers_are_rejected(value):
    with pytest.raises(KeyEncodingError):
        encode_component(value)
    with pytest.raises(KeyEncodingError):
        encode_key([1, value])


@pytest.mark.parametrize("value", [1.5, 0.0, float("nan"), float("inf")])
def test_floats_are_rejected(value):
    with pytest.raises(KeyEncodingError):
        encode_component(value)


@pytest.mark.parametrize(
    "key",
    [
        b"\x04",  # unknown tag
        b"\x02\x00\x00",  # truncated integer
        b"\x03ab",  # unterminated string
        b"\x03\xff\x00\x01",  # not UTF-8
    ],
)
def test_malformed_keys_are_rejected(key):
    with pytest.raises(KeyEncodingError):
        split_key(key)


@given(key_pairs())
def test_byte_order_is_reference_tuple_order(pair):
    a, b = pair
    assert sign(encode_key(a), encode_key(b)) == sign(reference_key(a), reference_key(b))


@given(texts, texts, component, component)
def test_a_string_sorts_before_its_extensions(text, tail, after, after_extended):
    """A string's terminator sorts below whatever an extension continues
    with, NUL included, whatever follows either string in its key."""
    shorter, longer = [text, after], [text + tail, after_extended]
    assert sign(encode_key(shorter), encode_key(longer)) == sign(
        reference_key(shorter), reference_key(longer)
    )


@given(key_pairs())
def test_is_prefix_agrees_with_component_prefix(pair):
    a, b = pair
    expected = reference_key(b)[: len(a)] == reference_key(a)
    assert is_prefix(encode_key(a), encode_key(b)) == expected


@given(components)
def test_split_key_is_the_reference_tuple(values):
    assert split_key(encode_key(values)) == reference_key(values)


@given(components)
def test_encode_decode_round_trip(values):
    assert decode_key(encode_key(values)) == tuple(values)


@given(st.lists(component, max_size=5), st.lists(component, max_size=3))
def test_prefix_detection(values, suffix):
    prefix = encode_key(values)
    full = encode_key(list(values) + list(suffix))
    assert is_prefix(prefix, full)
    if suffix:
        assert not is_prefix(full, prefix)


@given(st.lists(component, min_size=1, max_size=6), st.lists(component, min_size=1, max_size=6))
def test_encoding_preserves_prefix_grouping(a, b):
    """Keys sharing a prefix sort contiguously: anything between two keys
    with prefix P also has prefix P (the property prefix scans rely on)."""
    pa = encode_key(a)
    pb = encode_key(b)
    low, high = sorted((pa + encode_component(0), pa + encode_component(10)))
    if low <= pb <= high:
        assert is_prefix(pa, pb) or pb == pa


tail_ids = st.integers(min_value=0, max_value=2**40)


@given(key_pairs(), tail_ids, tail_ids)
def test_row_key_order_is_reference_tuple_order(pair, tail_a, tail_b):
    """Row keys order by logical key, then tail id; a key's rows sort
    before the longer keys that extend it."""
    a, b = pair
    assert sign(row_key(encode_key(a), tail_a), row_key(encode_key(b), tail_b)) == sign(
        reference_row_key(a, tail_a), reference_row_key(b, tail_b)
    )


@given(key_pairs(), tail_ids)
def test_exact_prefix_holds_the_rows_of_exactly_one_logical_key(pair, tail_id):
    a, b = pair
    assert is_prefix(exact_prefix(encode_key(a)), row_key(encode_key(b), tail_id)) == (
        reference_key(a) == reference_key(b)
    )


@given(components, tail_ids)
def test_readers_see_a_row_keys_logical_components(values, tail_id):
    key = row_key(encode_key(values), tail_id)
    assert split_key(key) == reference_key(values)
    assert decode_key(key) == tuple(values)
