"""The data-page buffer cache: unit behavior, FSD integration, and
the strict-invalidation edges (truncate, delete/recreate, rename,
crash replay, read-ahead racing a write)."""

from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import given, strategies as st

from repro.core.data_cache import DataPageCache
from repro.core.fsd import FSD
from repro.disk.disk import SimDisk
from repro.workloads.generators import payload
from tests.conftest import TEST_FSD_PARAMS, TEST_GEOMETRY

SECTOR = 512


@pytest.fixture
def cached_fsd(disk: SimDisk) -> FSD:
    FSD.format(disk, TEST_FSD_PARAMS)
    return FSD.mount(disk, data_cache_pages=64, readahead_pages=8)


def paged_read(fs: FSD, handle, pages: int) -> bytes:
    """Read ``pages`` sequential 512-byte pages, one call each (the
    cached-client access pattern that triggers read-ahead)."""
    out = b""
    for page in range(pages):
        length = min(SECTOR, handle.byte_size - page * SECTOR)
        out += fs.read(handle, page * SECTOR, length)
    return out


# ----------------------------------------------------------------------
# unit behavior
# ----------------------------------------------------------------------
class TestUnit:
    def test_disabled_cache_is_inert(self):
        dc = DataPageCache(capacity_pages=0)
        assert not dc.enabled
        dc.put_run(7, [b"x" * SECTOR])
        assert dc.lookup_run(7, 2) == [None, None]
        assert dc.hits == 0 and dc.misses == 0
        assert not dc.note_read(1, 1, 1)

    def test_lookup_counts_and_lru_eviction(self):
        dc = DataPageCache(capacity_pages=2)
        dc.put_run(1, [b"a" * SECTOR, b"b" * SECTOR])
        assert dc.lookup_run(1, 1) == [b"a" * SECTOR]  # 1 is now most recent
        dc.put_run(3, [b"c" * SECTOR])                 # evicts 2, not 1
        assert dc.lookup_run(1, 2) == [b"a" * SECTOR, None]
        assert dc.evictions == 1
        assert dc.hits == 2 and dc.misses == 1
        assert dc.hit_ratio == pytest.approx(2 / 3)

    def test_short_sector_padded(self):
        dc = DataPageCache(capacity_pages=4, sector_bytes=SECTOR)
        dc.put_run(9, [b"tail"])
        assert dc.lookup_run(9, 1) == [b"tail" + b"\x00" * (SECTOR - 4)]

    def test_sequential_detection(self):
        dc = DataPageCache(capacity_pages=4)
        assert not dc.note_read(uid=5, first_page=0, page_count=2)
        assert dc.note_read(uid=5, first_page=2, page_count=2)
        assert not dc.note_read(uid=5, first_page=7, page_count=1)  # jump
        assert dc.note_read(uid=5, first_page=8, page_count=1)
        dc.forget_file(5)
        assert not dc.note_read(uid=5, first_page=9, page_count=1)

    def test_readahead_accuracy_tracking(self):
        dc = DataPageCache(capacity_pages=8)
        dc.put_run(0, [b"w" * SECTOR, b"x" * SECTOR, b"y" * SECTOR],
                   prefetch=range(1, 3))
        assert dc.readahead_issued == 2
        assert dc.lookup_run(0, 2)[1] is not None
        assert dc.readahead_used == 1
        assert dc.readahead_accuracy == pytest.approx(0.5)
        # a second demand hit on the same page counts once
        assert dc.lookup_run(1, 1)[0] is not None
        assert dc.readahead_used == 1

    def test_invalidate_and_discard(self):
        dc = DataPageCache(capacity_pages=8)
        dc.put_run(0, [bytes([address]) * SECTOR for address in range(4)])
        assert dc.invalidate(1, 2) == 2
        assert dc.lookup_run(0, 3)[0] is not None
        assert dc.lookup_run(1, 2) == [None, None]
        dc.discard_all()
        assert len(dc) == 0

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            DataPageCache(capacity_pages=-1)
        with pytest.raises(ValueError):
            DataPageCache(capacity_pages=4, readahead_pages=-1)


# ----------------------------------------------------------------------
# the extent API against a per-address reference
# ----------------------------------------------------------------------
class ReferenceCache:
    """The cache as a sequence of single-sector demand lookups and
    inserts, each doing its own bookkeeping and eviction: what one
    ``lookup_run``/``put_run`` call must reproduce exactly."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.pages: OrderedDict[int, bytes] = OrderedDict()
        self.prefetched: set[int] = set()
        self.owner: dict[int, int] = {}
        self.hits = self.misses = self.evictions = 0
        self.readahead_issued = self.readahead_used = 0

    def lookup(self, address: int) -> bytes | None:
        data = self.pages.get(address)
        if data is None:
            self.misses += 1
            return None
        self.hits += 1
        self.pages.move_to_end(address)
        if address in self.prefetched:
            self.prefetched.discard(address)
            self.readahead_used += 1
        return data

    def put(self, address: int, data: bytes, prefetched: bool, uid) -> None:
        self.pages[address] = data.ljust(SECTOR, b"\x00")
        self.pages.move_to_end(address)
        self.owner.pop(address, None)
        if uid is not None:
            self.owner[address] = uid
        if prefetched:
            self.prefetched.add(address)
            self.readahead_issued += 1
        else:
            self.prefetched.discard(address)
        while len(self.pages) > self.capacity:
            victim, _ = self.pages.popitem(last=False)
            self.prefetched.discard(victim)
            self.owner.pop(victim, None)
            self.evictions += 1

    def invalidate(self, address: int, count: int) -> int:
        dropped = 0
        for victim in range(address, address + count):
            dropped += self.pages.pop(victim, None) is not None
            self.prefetched.discard(victim)
            self.owner.pop(victim, None)
        return dropped

    def invalidate_file(self, uid: int) -> int:
        owned = [a for a, owner in self.owner.items() if owner == uid]
        return sum(self.invalidate(address, 1) for address in owned)


def assert_same_state(dc: DataPageCache, ref: ReferenceCache) -> None:
    assert list(dc._pages.items()) == list(ref.pages.items())  # LRU order
    assert dc._prefetched == ref.prefetched
    assert dc._owner == ref.owner
    by_uid: dict[int, set[int]] = {}
    for address, uid in ref.owner.items():
        by_uid.setdefault(uid, set()).add(address)
    assert dc._by_uid == by_uid
    for name in ("hits", "misses", "evictions", "readahead_issued",
                 "readahead_used"):
        assert getattr(dc, name) == getattr(ref, name), name


ADDRESS = st.integers(min_value=0, max_value=40)
UID = st.sampled_from([None, 1, 2, 3])
CACHE_OPS = st.one_of(
    st.tuples(st.just("lookup"), ADDRESS, st.integers(1, 12)),
    st.tuples(
        st.just("put"), ADDRESS, st.integers(1, 12), UID,
        st.tuples(st.integers(0, 12), st.integers(0, 12)),
        st.binary(max_size=SECTOR),
    ),
    st.tuples(st.just("invalidate"), ADDRESS, st.integers(1, 6)),
    st.tuples(st.just("invalidate_file"), UID.filter(bool)),
)


class TestExtentApi:
    @given(capacity=st.integers(1, 16), ops=st.lists(CACHE_OPS, max_size=40))
    def test_runs_match_per_address_reference(self, capacity, ops):
        dc = DataPageCache(capacity_pages=capacity, sector_bytes=SECTOR)
        ref = ReferenceCache(capacity)
        for op in ops:
            kind, *args = op
            if kind == "lookup":
                start, count = args
                expected = [ref.lookup(a) for a in range(start, start + count)]
                assert dc.lookup_run(start, count) == expected
            elif kind == "put":
                start, count, uid, (skip, span), stem = args
                sectors = [stem + bytes([i]) for i in range(count)]
                sectors = [sector[:SECTOR] for sector in sectors]
                prefetch = range(start + skip, start + skip + span)
                dc.put_run(start, sectors, uid, prefetch=prefetch)
                for address, data in enumerate(sectors, start):
                    ref.put(address, data, address in prefetch, uid)
            elif kind == "invalidate":
                assert dc.invalidate(*args) == ref.invalidate(*args)
            else:
                assert dc.invalidate_file(*args) == ref.invalidate_file(*args)
            assert_same_state(dc, ref)

    def test_reput_of_lru_front_evicts_per_insert(self):
        dc = DataPageCache(capacity_pages=3, sector_bytes=SECTOR)
        ref = ReferenceCache(3)
        for cache in (dc, ref):
            for address in (1, 2, 3):
                if cache is dc:
                    dc.put_run(address, [b"old"])
                else:
                    ref.put(address, b"old", False, None)
        # inserting 0 evicts 1, the LRU front; re-putting 1 then evicts
        # 2 — one eviction at the end of the batch would keep 2 instead
        dc.put_run(0, [b"new", b"new"], uid=7)
        ref.put(0, b"new", False, 7)
        ref.put(1, b"new", False, 7)
        assert list(dc._pages) == [3, 0, 1]
        assert dc.evictions == 2
        assert_same_state(dc, ref)

    def test_counters_roll_up_per_call(self):
        from repro.obs import Observer

        obs = Observer()
        dc = DataPageCache(capacity_pages=8, sector_bytes=SECTOR, obs=obs)
        dc.put_run(0, [b"x"] * 4, prefetch=range(2, 4))
        dc.lookup_run(0, 6)
        snap = obs.snapshot()
        assert snap.counters["cache.data.hits"] == 4
        assert snap.counters["cache.data.misses"] == 2
        assert snap.counters["cache.data.readahead_issued"] == 2
        assert snap.counters["cache.data.readahead_used"] == 2
        # the gauges read the counters after the call's roll-up
        assert snap.gauges["cache.data.hit_ratio"] == pytest.approx(4 / 6, abs=1e-4)
        assert snap.gauges["cache.data.readahead_accuracy"] == 1.0


# ----------------------------------------------------------------------
# FSD integration
# ----------------------------------------------------------------------
class TestFsdIntegration:
    def test_cache_off_by_default(self, fsd):
        assert not fsd.data_cache.enabled
        fsd.create("d/f", payload(3_000, 1))
        assert fsd.read(fsd.open("d/f")) == payload(3_000, 1)
        assert fsd.data_cache.hits == 0 and fsd.data_cache.misses == 0

    def test_cached_reads_match_platter(self, cached_fsd):
        blob = payload(9_000, 7)
        cached_fsd.create("d/f", blob)
        handle = cached_fsd.open("d/f")
        assert cached_fsd.read(handle) == blob           # warm (write-through)
        assert cached_fsd.read(handle, 700, 1500) == blob[700:2200]
        assert cached_fsd.read(handle, 0, 1) == blob[:1]

    def test_cold_sequential_read_uses_readahead(self, disk):
        FSD.format(disk, TEST_FSD_PARAMS)
        fs = FSD.mount(disk, data_cache_pages=64, readahead_pages=8)
        blob = payload(12 * SECTOR, 3)
        fs.create("d/seq", blob)
        fs.force()
        fs.unmount()
        fs = FSD.mount(disk, data_cache_pages=64, readahead_pages=8)
        handle = fs.open("d/seq")
        assert paged_read(fs, handle, 12) == blob
        assert fs.data_cache.readahead_issued > 0
        assert fs.data_cache.readahead_used == fs.data_cache.readahead_issued
        assert fs.data_cache.hits >= fs.data_cache.readahead_used

    def test_cached_content_identical_to_uncached_mount(self, disk):
        FSD.format(disk, TEST_FSD_PARAMS)
        fs = FSD.mount(disk, data_cache_pages=64)
        blob = payload(20 * SECTOR + 37, 11)
        fs.create("d/x", blob)
        fs.unmount()
        cold = FSD.mount(disk)                     # cache off
        expected = cold.read(cold.open("d/x"))
        cold.unmount()
        warm = FSD.mount(disk, data_cache_pages=64, readahead_pages=8)
        handle = warm.open("d/x")
        assert paged_read(warm, handle, 21) == expected == blob
        assert warm.read(handle) == expected       # fully cached pass

    def test_write_through_population(self, cached_fsd):
        blob = payload(4 * SECTOR, 5)
        handle = cached_fsd.create("d/w", blob)
        reads_before = cached_fsd.io.stats.reads
        assert cached_fsd.read(handle) == blob
        # every page was populated by the write; the read does no I/O
        assert cached_fsd.io.stats.reads == reads_before


# ----------------------------------------------------------------------
# invalidation edges
# ----------------------------------------------------------------------
class TestInvalidation:
    def test_truncate_then_read(self, cached_fsd):
        blob = payload(8 * SECTOR, 2)
        handle = cached_fsd.create("d/t", blob)
        assert cached_fsd.read(handle) == blob
        cached_fsd.truncate(handle, 3 * SECTOR)
        freed = [
            address
            for run in handle.runs.runs
            for address in range(run.start, run.end)
        ]
        assert cached_fsd.read(handle) == blob[: 3 * SECTOR]
        # regrow with different bytes: no stale image may resurface
        tail = payload(5 * SECTOR, 9)
        cached_fsd.write(handle, 3 * SECTOR, tail)
        assert (
            cached_fsd.read(handle) == blob[: 3 * SECTOR] + tail
        ), freed

    def test_delete_invalidates_freed_sectors(self, cached_fsd):
        blob = payload(6 * SECTOR, 4)
        handle = cached_fsd.create("d/del", blob)
        assert cached_fsd.read(handle) == blob
        freed = [
            address
            for run in handle.runs.runs
            for address in range(run.start, run.end)
        ]
        cached_fsd.delete("d/del")
        for address in freed:
            assert not cached_fsd.data_cache.contains(address)

    def test_delete_then_recreate_same_name(self, cached_fsd):
        old = payload(6 * SECTOR, 4)
        new = payload(6 * SECTOR, 8)
        cached_fsd.create("d/name", old)
        assert cached_fsd.read(cached_fsd.open("d/name")) == old
        cached_fsd.delete("d/name")
        cached_fsd.force()          # freed sectors become allocatable
        cached_fsd.create("d/name", new)
        assert cached_fsd.read(cached_fsd.open("d/name")) == new

    def test_rename_then_read(self, cached_fsd):
        blob = payload(6 * SECTOR, 6)
        handle = cached_fsd.create("d/old", blob)
        assert cached_fsd.read(handle) == blob
        cached_fsd.rename("d/old", "d/new")
        assert cached_fsd.read(cached_fsd.open("d/new")) == blob

    def test_read_after_crash_replay(self, disk):
        FSD.format(disk, TEST_FSD_PARAMS)
        fs = FSD.mount(disk, data_cache_pages=64, readahead_pages=8)
        blob = payload(8 * SECTOR, 13)
        fs.create("d/crash", blob)
        fs.force()
        assert fs.read(fs.open("d/crash")) == blob   # cache is warm
        assert len(fs.data_cache) > 0
        fs.crash()
        assert len(fs.data_cache) == 0               # discarded at crash
        recovered = FSD.mount(disk, data_cache_pages=64, readahead_pages=8)
        assert len(recovered.data_cache) == 0        # mounts start cold
        handle = recovered.open("d/crash")
        assert paged_read(recovered, handle, 8) == blob

    def test_readahead_racing_concurrent_write(self, disk):
        FSD.format(disk, TEST_FSD_PARAMS)
        fs = FSD.mount(disk, data_cache_pages=64, readahead_pages=16)
        blob = payload(20 * SECTOR, 1)
        fs.create("d/race", blob)
        fs.force()
        fs.unmount()
        fs = FSD.mount(disk, data_cache_pages=64, readahead_pages=16)
        handle = fs.open("d/race")
        # two sequential page reads trigger read-ahead over the rest
        assert fs.read(handle, 0, SECTOR) == blob[:SECTOR]
        assert fs.read(handle, SECTOR, SECTOR) == blob[SECTOR : 2 * SECTOR]
        assert fs.data_cache.readahead_issued > 0
        # overwrite a page inside the prefetched range, then read it:
        # the write-through copy must win over the prefetched image
        fresh = payload(SECTOR, 99)
        fs.write(handle, 5 * SECTOR, fresh)
        assert fs.read(handle, 5 * SECTOR, SECTOR) == fresh
        expected = blob[: 5 * SECTOR] + fresh + blob[6 * SECTOR :]
        assert fs.read(handle) == expected
