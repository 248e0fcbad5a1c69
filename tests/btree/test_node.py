"""Unit and property tests for B-tree node serialization."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.btree.node import INTERNAL, LEAF, Node, max_entry_bytes
from repro.errors import CorruptMetadata

keys_st = st.lists(
    st.binary(min_size=1, max_size=20), unique=True, max_size=12
).map(sorted)


class TestLeafSerialization:
    def test_empty_leaf_roundtrip(self):
        node = Node(kind=LEAF)
        back = Node.from_bytes(node.to_bytes(512))
        assert back.is_leaf and back.keys == () and back.values == ()

    def test_roundtrip(self):
        node = Node(kind=LEAF, keys=[b"a", b"bb"], values=[b"1", b"22"])
        back = Node.from_bytes(node.to_bytes(512))
        assert back.keys == (b"a", b"bb")
        assert back.values == (b"1", b"22")

    def test_mismatched_lengths_rejected(self):
        node = Node(kind=LEAF, keys=[b"a"], values=[])
        with pytest.raises(CorruptMetadata):
            node.to_bytes(512)

    def test_oversize_rejected(self):
        node = Node(kind=LEAF, keys=[b"k" * 200], values=[b"v" * 400])
        with pytest.raises(ValueError):
            node.to_bytes(512)


class TestInternalSerialization:
    def test_roundtrip(self):
        node = Node(kind=INTERNAL, keys=[b"m"], children=[3, 9])
        back = Node.from_bytes(node.to_bytes(512))
        assert not back.is_leaf
        assert back.keys == (b"m",)
        assert back.children == (3, 9)

    def test_children_count_invariant(self):
        node = Node(kind=INTERNAL, keys=[b"m"], children=[3])
        with pytest.raises(CorruptMetadata):
            node.to_bytes(512)

    def test_bad_kind_byte(self):
        with pytest.raises(CorruptMetadata):
            Node.from_bytes(b"\x09" + b"\x00" * 511)


class TestSizeAccounting:
    def test_serialized_size_matches_actual(self):
        node = Node(
            kind=LEAF, keys=[b"abc", b"de"], values=[b"xy", b"zzz"]
        )
        blob = node.to_bytes(4096)
        meaningful = blob.rstrip(b"\x00")
        assert node.serialized_size() >= len(meaningful)

    def test_fits(self):
        node = Node(kind=LEAF, keys=[b"a" * 100], values=[b"b" * 100])
        assert node.fits(512)
        assert not node.fits(100)

    def test_max_entry_allows_two_per_leaf(self):
        limit = max_entry_bytes(512)
        key, value = b"k" * 20, b"v" * (limit - 20)
        node = Node(kind=LEAF, keys=[key, key + b"2"], values=[value, value])
        assert node.fits(512) or node.serialized_size() <= 2 * 512
        # two max entries must fit one page by definition
        assert 2 * (4 + limit) + 3 <= 512


@given(keys=keys_st, data=st.data())
def test_leaf_roundtrip_property(keys, data):
    values = [
        data.draw(st.binary(max_size=20), label=f"value{i}")
        for i in range(len(keys))
    ]
    node = Node(kind=LEAF, keys=list(keys), values=values)
    back = Node.from_bytes(node.to_bytes(4096))
    assert back.keys == tuple(keys)
    assert back.values == tuple(values)


@given(keys=keys_st, data=st.data())
def test_internal_roundtrip_property(keys, data):
    children = [
        data.draw(st.integers(min_value=1, max_value=2**31))
        for _ in range(len(keys) + 1)
    ]
    node = Node(kind=INTERNAL, keys=list(keys), children=children)
    back = Node.from_bytes(node.to_bytes(4096))
    assert back.keys == tuple(keys)
    assert back.children == tuple(children)
