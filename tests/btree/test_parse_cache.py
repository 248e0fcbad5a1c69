"""Where parsed B-tree nodes live: the metadata cache entry.

FSD's pager hands the tree the :class:`Node` its cache entry holds: the
page is parsed on the first node read and the node is dropped when the
page is written, evicted, rolled back or discarded (an evicted page's
node survives only as a ghost, taken back if the page is re-read with
the same bytes).  These tests pin that contract down: an edit forces a
re-parse, a remount or crash starts cold, pager reads are never
skipped, eviction and rollback drop the node, and the write paths never
mutate a shared node — which they cannot, since nodes are immutable by
type.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.btree import BTree
from repro.btree.node import LEAF, Node
from repro.core.cache import MetadataCache
from repro.core.layout import VolumeLayout, VolumeParams
from repro.core.name_table import NameTableHome, NameTablePager
from repro.core.wal import PAGE_NAME_TABLE
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry

GEO = DiskGeometry(cylinders=120, heads=8, sectors_per_track=24)
PARAMS = VolumeParams(nt_pages=512, log_record_sectors=300, cache_pages=64)


class Volume:
    """A name-table B-tree over the metadata cache, with a commit step
    that logs every dirty page and writes it home (unpinning it)."""

    def __init__(self, capacity: int = 64):
        self.disk = SimDisk(geometry=GEO)
        self.layout = VolumeLayout.compute(GEO, PARAMS)
        self.home = NameTableHome(self.disk, self.layout)
        self.cache = self._new_cache(capacity)
        self.pager = NameTablePager(self.cache, self.layout, self.disk.clock)
        self.pager.format_bitmap()
        self.tree = BTree.create(self.pager)

    def _new_cache(self, capacity: int) -> MetadataCache:
        return MetadataCache(
            capacity_pages=capacity,
            nt_reader=self.home.read_page,
            nt_writer=self.home.write_pages,
            leader_writer=lambda addr, data: None,
        )

    def commit(self) -> None:
        self.cache.note_logged(self.cache.pages_needing_log(), third=0)
        self.cache.flush_third(0)
        self.home.io.flush()

    def remount(self) -> BTree:
        """Crash-restart over the committed home pages: a new cache."""
        self.cache = self._new_cache(self.cache.capacity)
        self.pager = NameTablePager(self.cache, self.layout, self.disk.clock)
        self.tree = BTree.open(self.pager)
        return self.tree

    def entry(self, page_no: int):
        return self.cache._entries.get((PAGE_NAME_TABLE, page_no))

    def node_pages(self) -> list[int]:
        """Pages whose entries currently hold a parsed node."""
        return [
            key[1]
            for key, entry in self.cache._entries.items()
            if entry.node is not None
        ]


def _fill(tree: BTree, count: int = 120) -> None:
    for index in range(count):
        tree.insert(f"key-{index:04d}".encode(), b"value" * 3)


@pytest.fixture
def vol() -> Volume:
    volume = Volume()
    _fill(volume.tree)
    volume.commit()
    return volume


class TestIdentityHits:
    def test_repeated_reads_reuse_one_template(self, vol):
        vol.tree.get(b"key-0000")
        before = {page: vol.entry(page).node for page in vol.node_pages()}
        assert before
        vol.tree.get(b"key-0000")
        vol.tree.get(b"key-0000")
        # Same cache entries, same parsed nodes: no re-parse on a hit.
        for page_no, node in before.items():
            assert vol.entry(page_no).node is node

    def test_pager_reads_are_never_skipped(self, vol):
        clock = vol.disk.clock
        hits_before = vol.cache.hits
        cpu_before = clock.cpu_busy_ms
        vol.tree.get(b"key-0000")
        first_cpu = clock.cpu_busy_ms - cpu_before
        vol.tree.get(b"key-0000")
        second_cpu = clock.cpu_busy_ms - cpu_before - first_cpu
        # The cached node saves the parse, not the page access: both
        # lookups touch every level and charge the per-node CPU cost.
        assert vol.cache.hits - hits_before == 2 * vol.tree.depth()
        assert first_cpu == pytest.approx(
            vol.tree.depth() * clock.cpu.btree_node_ms
        )
        assert second_cpu == pytest.approx(first_cpu)


class TestEditInvalidates:
    def test_write_drops_identity_entry(self, vol):
        vol.tree.get(b"key-0000")
        path = vol.node_pages()
        leaf = next(p for p in path if vol.entry(p).node.kind == LEAF)
        old = vol.entry(leaf).node
        vol.tree.insert(b"key-0000", b"NEWVALUE")
        # The rewritten leaf dropped its node; the next read re-parses
        # the new bytes.
        assert vol.entry(leaf).node is None
        assert vol.tree.get(b"key-0000") == b"NEWVALUE"
        fresh = vol.entry(leaf).node
        assert fresh is not None and fresh is not old
        assert fresh == Node.from_bytes(vol.entry(leaf).data)

    def test_edited_page_serves_new_content(self):
        vol = Volume()
        vol.tree.insert(b"alpha", b"one")
        vol.tree.insert(b"beta", b"two")
        assert vol.tree.get(b"alpha") == b"one"  # node now cached
        vol.tree.insert(b"alpha", b"three")  # in-place edit of the leaf
        assert vol.tree.get(b"alpha") == b"three"
        assert vol.tree.get(b"beta") == b"two"
        # The cached node always matches the entry's current bytes.
        root = vol.entry(vol.tree._root)
        assert root.node == Node.from_bytes(root.data)

    def test_delete_invalidates_like_insert(self, vol):
        assert vol.tree.get(b"key-0042") is not None
        assert vol.tree.delete(b"key-0042")
        assert vol.tree.get(b"key-0042") is None
        vol.tree.check_invariants()


class TestRemountStartsCold:
    def test_reopen_has_empty_memos(self, vol):
        vol.tree.get(b"key-0000")
        assert vol.node_pages()
        old_cache = vol.cache
        reopened = vol.remount()
        assert vol.cache is not old_cache
        assert vol.node_pages() == []
        # And the cold tree still reads everything correctly.
        assert reopened.get(b"key-0000") == b"value" * 3
        assert len(reopened) == 120

    def test_reopened_tree_sees_pre_remount_edits(self, vol):
        vol.tree.insert(b"key-0001", b"EDITED")
        vol.commit()
        reopened = vol.remount()
        assert reopened.get(b"key-0001") == b"EDITED"
        assert [k for k, _ in reopened.scan(start=b"key-0000")][0] == b"key-0000"

    def test_discard_all_drops_every_node(self, vol):
        vol.tree.get(b"key-0000")
        vol.cache.discard_all()
        assert vol.node_pages() == []
        assert vol.tree.get(b"key-0000") == b"value" * 3


def _evicted_leaf(vol: Volume) -> tuple[int, Node]:
    """Parse the leaf holding key-0000, then scan until it is evicted."""
    vol.tree.get(b"key-0000")
    leaf = next(p for p in vol.node_pages() if vol.entry(p).node.kind == LEAF)
    node = vol.entry(leaf).node
    for _ in vol.tree.scan():
        pass
    assert len(vol.cache) <= vol.cache.capacity
    return leaf, node


class TestCacheDropsNodes:
    @pytest.fixture
    def small(self) -> Volume:
        volume = Volume(capacity=8)
        _fill(volume.tree)
        volume.commit()
        return volume

    def test_eviction_drops_the_node(self, small):
        leaf, old = _evicted_leaf(small)
        # The entry and its node are out of the cache; only the ghost
        # (host memory, no capacity) remembers the decoded form.
        assert small.entry(leaf) is None
        assert old not in [e.node for e in small.cache._entries.values()]
        misses = small.cache.misses
        assert small.tree.get(b"key-0000") == b"value" * 3
        # The re-read is a real miss; unchanged bytes take the ghost's
        # node back instead of re-parsing.
        assert small.cache.misses > misses
        assert small.entry(leaf).node is old

    def test_ghost_is_ignored_when_the_page_changed(self, small):
        leaf, old = _evicted_leaf(small)
        changed = Node(LEAF, (b"key-0000",), (b"CHANGED",)).to_bytes(512)
        small.home.write_pages([(leaf, changed)])
        small.home.io.flush()
        assert small.tree.get(b"key-0000") == b"CHANGED"
        assert small.entry(leaf).node is not old
        assert small.entry(leaf).node == Node.from_bytes(changed)

    def test_crash_drops_the_ghosts(self, small):
        leaf, old = _evicted_leaf(small)
        small.cache.discard_all()
        assert small.tree.get(b"key-0000") == b"value" * 3
        assert small.entry(leaf).node is not old
        assert small.entry(leaf).node == old

    def test_rollback_restores_the_logged_node(self, vol):
        vol.tree.get(b"key-0000")
        leaf = next(
            p for p in vol.node_pages() if vol.entry(p).node.kind == LEAF
        )
        logged = vol.entry(leaf).node
        vol.tree.insert(b"key-0000", b"UNCOMMITTED")
        assert vol.tree.get(b"key-0000") == b"UNCOMMITTED"
        assert vol.cache.rollback_uncommitted() >= 1
        # The entry is back on its logged image, and its node is
        # re-parsed from it: the uncommitted edit is gone.
        assert vol.entry(leaf).node is None
        assert vol.tree.get(b"key-0000") == b"value" * 3
        assert vol.entry(leaf).node == logged


class TestTemplatesAreNeverMutated:
    def test_mutating_ops_leave_templates_intact(self, vol):
        """Insert/delete descend on shared nodes; a node held before a
        burst of edits still matches what its bytes parse to."""
        vol.tree.get(b"key-0000")
        held = [
            (entry.data, entry.node)
            for entry in vol.cache._entries.values()
            if entry.node is not None
        ]
        assert held
        _fill(vol.tree, 240)  # heavy edit burst: splits, rewrites
        for index in range(0, 240, 3):
            vol.tree.delete(f"key-{index:04d}".encode())
        vol.tree.check_invariants()
        for data, node in held:
            assert node == Node.from_bytes(data)

    def test_shared_node_rejects_mutation(self, vol):
        vol.tree.get(b"key-0000")
        node = vol.entry(vol.tree._root).node
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.keys = ()
        with pytest.raises(AttributeError):
            node.keys.insert(0, b"x")
        with pytest.raises(TypeError):
            node.children[0] = 0
