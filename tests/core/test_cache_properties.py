"""Property tests for the metadata cache's eviction order.

:class:`MetadataCache` keeps eviction candidates in a lazily validated
heap so that pinned pages cost nothing per miss.  It must still evict
exactly what the straightforward policy evicts: walk every entry from
least to most recently touched, skip the pinned ones, and take as many
as the cache is over capacity.  :class:`ReferenceCache` below is that
walk over a plain ordered dict; any divergence in which entries the two
hold, or in their hit/miss/eviction counts, is a bug in the heap.
"""

from __future__ import annotations

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.cache as cache_module
from repro.core.cache import MetadataCache
from repro.core.wal import PAGE_LEADER, PAGE_NAME_TABLE, PAGE_VAM

CAPACITY = 4


class RefEntry:
    def __init__(self, data: bytes, home: bytes | None = None):
        self.data = data
        self.needs_log = False
        self.logged: bytes | None = None
        self.home = home
        self.third: int | None = None

    @property
    def pinned(self) -> bool:
        return self.needs_log or (
            self.logged is not None and self.logged != self.home
        )


class ReferenceCache:
    """The oldest-first eviction walk, with recency as dict order."""

    def __init__(self, capacity: int, home: dict[int, bytes]):
        self.capacity = capacity
        self.home = home
        self.entries: OrderedDict[tuple[int, int], RefEntry] = OrderedDict()
        self.hits = self.misses = self.evictions = 0

    def _touch(self, key) -> None:
        self.entries.move_to_end(key)

    def _evict(self) -> None:
        excess = len(self.entries) - self.capacity
        victims = []
        for key, entry in self.entries.items():
            if len(victims) >= excess:
                break
            if not entry.pinned:
                victims.append(key)
        for key in victims:
            del self.entries[key]
            self.evictions += 1

    def read_nt(self, page: int) -> bytes:
        key = (PAGE_NAME_TABLE, page)
        if key in self.entries:
            self.hits += 1
            self._touch(key)
            return self.entries[key].data
        self.misses += 1
        data = self.home.get(page, bytes(512))
        self.entries[key] = RefEntry(data, home=data)
        self._evict()
        return data

    def write(self, kind: int, page: int, data: bytes) -> None:
        key = (kind, page)
        entry = self.entries.setdefault(key, RefEntry(data))
        entry.data = data
        entry.needs_log = True
        self._touch(key)

    def pages_needing_log(self) -> list[tuple[int, int, bytes]]:
        return sorted(
            (kind, page, entry.data)
            for (kind, page), entry in self.entries.items()
            if entry.needs_log
        )

    def note_logged(self, pages, third: int) -> None:
        for kind, page, data in pages:
            entry = self.entries[(kind, page)]
            if entry.data == data:
                entry.needs_log = False
            entry.logged = data
            entry.third = third
        self._evict()

    def flush_third(self, third: int) -> None:
        for entry in self.entries.values():
            if entry.third == third and entry.logged is not None:
                entry.home = entry.logged
        self._evict()

    def note_leader_home(self, addr: int) -> None:
        entry = self.entries.get((PAGE_LEADER, addr))
        if entry is not None:
            entry.home = entry.data

    def drop_leader(self, addr: int) -> None:
        self.entries.pop((PAGE_LEADER, addr), None)

    def rollback_uncommitted(self) -> None:
        for key, entry in list(self.entries.items()):
            if not entry.needs_log:
                continue
            if entry.logged is None:
                del self.entries[key]
            else:
                entry.data = entry.logged
                entry.needs_log = False

    def discard_all(self) -> None:
        self.entries.clear()


def _new_pair():
    home: dict[int, bytes] = {}

    def write_pages(batch):
        for page, data in batch:
            home[page] = data

    cache = MetadataCache(
        capacity_pages=CAPACITY,
        nt_reader=lambda page: home.get(page, bytes(512)),
        nt_writer=write_pages,
        leader_writer=lambda addr, data: None,
        vam_writer=lambda index, data: None,
    )
    return cache, ReferenceCache(CAPACITY, home)


_PAGES = st.integers(0, 7)
_BYTES = st.integers(0, 3).map(lambda b: bytes([b]) * 512)
_READ = st.tuples(st.just("read_nt"), _PAGES)
_OPS = st.lists(
    st.one_of(
        # Reads dominate, as in the file system: they are what overflow
        # the cache and make the eviction choice matter.
        _READ,
        _READ,
        _READ,
        _READ,
        st.tuples(st.just("write_nt"), _PAGES, _BYTES),
        st.tuples(st.just("write_leader"), st.integers(0, 3), _BYTES),
        st.tuples(st.just("write_vam"), st.integers(0, 2), _BYTES),
        st.tuples(st.just("commit"), st.integers(0, 2)),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("note_logged"), st.integers(0, 2)),
        st.tuples(st.just("flush_third"), st.integers(0, 2)),
        st.tuples(st.just("note_leader_home"), st.integers(0, 3)),
        st.tuples(st.just("rollback_uncommitted")),
        st.tuples(st.just("drop_leader"), st.integers(0, 3)),
        st.tuples(st.just("discard_all")),
    ),
    min_size=30,
    max_size=120,
)


@settings(max_examples=150, deadline=None)
@given(ops=_OPS)
def test_eviction_matches_the_oldest_first_walk(ops):
    cache, ref = _new_pair()
    pending = None  # a force in flight: logged images taken earlier
    for op in ops:
        name = op[0]
        if name == "read_nt":
            assert cache.read_nt(op[1]) == ref.read_nt(op[1])
        elif name == "write_nt":
            cache.write_nt(op[1], op[2])
            ref.write(PAGE_NAME_TABLE, op[1], op[2])
        elif name == "write_leader":
            cache.write_leader(op[1], op[2])
            ref.write(PAGE_LEADER, op[1], op[2])
        elif name == "write_vam":
            cache.write_vam(op[1], op[2])
            ref.write(PAGE_VAM, op[1], op[2])
        elif name == "commit":
            # A whole group commit: log every dirty page, then write the
            # third home.
            pages = cache.pages_needing_log()
            cache.note_logged(pages, op[1])
            ref.note_logged([(p.kind, p.page_id, p.data) for p in pages], op[1])
            cache.flush_third(op[1])
            ref.flush_third(op[1])
        elif name == "snapshot":
            pending = cache.pages_needing_log()
            assert [
                (p.kind, p.page_id, p.data) for p in pending
            ] == ref.pages_needing_log()
        elif name == "note_logged":
            if pending is None or any(
                (p.kind, p.page_id) not in ref.entries for p in pending
            ):
                continue
            cache.note_logged(pending, op[1])
            ref.note_logged(
                [(p.kind, p.page_id, p.data) for p in pending], op[1]
            )
            pending = None
        elif name == "discard_all":
            cache.discard_all()
            ref.discard_all()
            pending = None
        else:
            getattr(cache, name)(*op[1:])
            getattr(ref, name)(*op[1:])
        assert set(cache._entries) == set(ref.entries)
        for key, entry in ref.entries.items():
            assert cache._entries[key].data == entry.data
        assert (cache.hits, cache.misses, cache.evictions) == (
            ref.hits,
            ref.misses,
            ref.evictions,
        )


def test_eviction_work_is_independent_of_pinned_pages(monkeypatch):
    """P pinned pages and N misses examine O(N + P) heap items, where a
    walk that skips pinned pages on every miss examines O(N * P)."""
    pinned, misses = 400, 4000
    examined = [0]

    def counting(fn):
        def wrapper(heap, *args):
            examined[0] += 1
            return fn(heap, *args)

        return wrapper

    monkeypatch.setattr(cache_module, "heappop", counting(cache_module.heappop))
    monkeypatch.setattr(
        cache_module, "heapreplace", counting(cache_module.heapreplace)
    )
    original_compact = MetadataCache._compact

    def counting_compact(self):
        examined[0] += len(self._entries)
        original_compact(self)

    monkeypatch.setattr(MetadataCache, "_compact", counting_compact)

    cache = MetadataCache(
        capacity_pages=64,
        nt_reader=lambda page: bytes(512),
        nt_writer=lambda batch: None,
        leader_writer=lambda addr, data: None,
    )
    for page in range(pinned):
        cache.write_nt(page, b"dirty".ljust(512, b"\x00"))
    for page in range(misses):
        cache.read_nt(pinned + page)
        # Keep a few hot pages touched so stale heap items occur too.
        if page % 7 == 0:
            cache.read_nt(pinned + page // 2)
    assert cache.misses >= misses
    assert cache.evictions >= misses - 64
    # Every pinned page survived, and the work stayed linear.
    assert all((PAGE_NAME_TABLE, page) in cache._entries for page in range(pinned))
    assert examined[0] <= 6 * (misses + pinned)
