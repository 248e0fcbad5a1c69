"""The data-page buffer cache with sequential read-ahead.

The paper's evaluation assumes clients work from *cached* files —
"cached remote files" are one of FSD's three entry kinds — and the
4.2 BSD baseline it compares against owes much of its read throughput
to the kernel buffer cache and block clustering.  The FSD read path,
by contrast, issued one disk request per run extent with no caching at
all, which made reads the slowest path in every benchmark.  This
module closes that gap for *data* pages; metadata pages stay in
:class:`~repro.core.cache.MetadataCache`, whose logging obligations
this cache deliberately does not share.

Design rules:

* **Write-through, never write-behind.**  Data pages are not logged
  (paper §5.3: files are written once; logging them would double data
  writes), so the platter copy is the only durable copy.  A write
  populates the cache *and* reaches the disk exactly as it did before
  the cache existed — crash semantics are unchanged, and cache-off
  runs are bit-identical to cache-on runs on the write side.
* **Strict invalidation.**  Truncate and delete free sectors that the
  allocator may hand to a different file (or to a new leader page,
  which is written through a path this cache never sees); their cached
  images are dropped immediately.  Rename drops the file's pages too —
  cheaper to be strict than to prove each exception safe.  A crash or
  unmount discards everything: the cache is volatile state, exactly
  like the scheduler queue.
* **Sequential read-ahead.**  When two consecutive extents of a file
  are read in order (tracked per file uid), the miss read is extended
  to prefetch the remainder of the file's current disk run, capped by
  ``readahead_pages``.  The demand read and the prefetch are submitted
  as adjacent requests and merged by the I/O scheduler
  (:meth:`~repro.disk.sched.IoScheduler.merge_reads`) into a single
  multi-sector transfer — one rotational wait instead of one per page.
* **One call per extent.**  Demand lookups (:meth:`~DataPageCache.lookup_run`)
  and fills or write-through (:meth:`~DataPageCache.put_run`) take a
  contiguous run of addresses.  LRU order, prefetch marks and eviction
  are kept per address, exactly as a run of single-sector calls would
  leave them; the counters, the obs counters and gauges and the
  attribution note are rolled up once per call.

A capacity of zero disables the cache: every lookup misses, nothing is
stored, and the FSD read path takes its original extent-by-extent
route, keeping op counts and simulated times bit-identical to the
pre-cache tree.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.obs import NULL_OBS

#: default capacity when the cache is enabled without an explicit size
#: (256 sectors = 128 KB at the Trident's 512-byte sectors — small
#: beside the Dorado's real memory, large beside one file's run).
DEFAULT_DATA_CACHE_PAGES = 256

#: default read-ahead window, in pages (sectors).  Two windows fit one
#: ``VolumeParams.max_io_sectors`` transfer with room for the demand
#: read that triggers them.
DEFAULT_READAHEAD_PAGES = 16

#: sequential-detection states tracked at once; beyond this the oldest
#: file's state is forgotten (it only costs a missed prefetch).
_MAX_SEQ_STREAMS = 64


class DataPageCache:
    """LRU cache of data sectors keyed by disk address.

    ``capacity_pages == 0`` disables the cache entirely (the
    bit-compatibility mode).  All counters are mirrored to ``obs``
    under ``cache.data.*``; the hit-ratio and read-ahead-accuracy
    gauges are set after each call that moves their counters, so
    ``repro stats`` can report them without post-processing.
    """

    def __init__(
        self,
        capacity_pages: int = 0,
        readahead_pages: int = DEFAULT_READAHEAD_PAGES,
        sector_bytes: int = 512,
        obs=NULL_OBS,
    ):
        if capacity_pages < 0:
            raise ValueError("negative data-cache capacity")
        if readahead_pages < 0:
            raise ValueError("negative read-ahead window")
        self.capacity = capacity_pages
        self.readahead_pages = readahead_pages
        self.sector_bytes = sector_bytes
        self.obs = obs
        self._pages: OrderedDict[int, bytes] = OrderedDict()
        #: addresses prefetched by read-ahead and not yet demanded.
        self._prefetched: set[int] = set()
        #: per-file sequential detector: uid -> next expected page.
        self._seq: OrderedDict[int, int] = OrderedDict()
        #: file identity of each cached address (and the reverse index)
        #: so delete/rename can invalidate by uid even when the
        #: caller's run list is stale under interleaved clients.
        self._owner: dict[int, int] = {}
        self._by_uid: dict[int, set[int]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.readahead_issued = 0
        self.readahead_used = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def __len__(self) -> int:
        return len(self._pages)

    # ------------------------------------------------------------------
    # lookups and population, one contiguous extent per call
    # ------------------------------------------------------------------
    def lookup_run(self, start: int, count: int) -> list[bytes | None]:
        """Demand lookups of ``count`` sectors from ``start``: one entry
        per address, in address order — the cached image, or ``None``
        on a miss.  Each hit refreshes its LRU position and turns a
        prefetched page into a used one; the counters (and the
        attribution note) are summed over the call, and the gauges are
        set once after them."""
        if not self.enabled:
            return [None] * count
        pages = self._pages
        get = pages.get
        refresh = pages.move_to_end
        prefetched = self._prefetched
        found: list[bytes | None] = []
        hits = used = 0
        for address in range(start, start + count):
            data = get(address)
            if data is not None:
                hits += 1
                refresh(address)
                if address in prefetched:
                    prefetched.discard(address)
                    used += 1
            found.append(data)
        misses = count - hits
        obs = self.obs
        recorder = getattr(obs, "attribution", None)
        if recorder is not None:
            recorder.note_cache(hits, misses)
        if hits:
            self.hits += hits
            obs.count("cache.data.hits", hits)
        if misses:
            self.misses += misses
            obs.count("cache.data.misses", misses)
        if used:
            self.readahead_used += used
            obs.count("cache.data.readahead_used", used)
        if obs.enabled and count:
            if used:
                self._update_accuracy()
            self._update_ratio()
        return found

    def contains(self, address: int) -> bool:
        """Presence probe for read-ahead planning (no hit/miss count,
        no LRU effect)."""
        return address in self._pages

    def put_run(
        self,
        start: int,
        sectors: list[bytes],
        uid: int | None = None,
        prefetch=(),
    ) -> None:
        """Insert the sector images of one extent from ``start`` (each
        padded to the sector size, exactly as it lies on the platter).
        ``uid`` records which file the sectors belong to, feeding the
        per-file invalidation index; addresses in ``prefetch`` are
        marked as read-ahead, all others as demanded.  Eviction runs
        after every insert, as a run of single puts would: re-putting a
        page at the LRU front must not make it a victim."""
        if not self.enabled:
            return
        pages = self._pages
        prefetched = self._prefetched
        owner = self._owner
        capacity = self.capacity
        size = self.sector_bytes
        issued = evicted = 0
        for address, data in enumerate(sectors, start):
            if len(data) < size:
                data = data + b"\x00" * (size - len(data))
            pages[address] = bytes(data)
            pages.move_to_end(address)
            if owner.get(address) != uid:
                self._set_owner(address, uid)
            if address in prefetch:
                prefetched.add(address)
                issued += 1
            else:
                prefetched.discard(address)
            while len(pages) > capacity:
                victim, _ = pages.popitem(last=False)
                prefetched.discard(victim)
                self._set_owner(victim, None)
                evicted += 1
        obs = self.obs
        if issued:
            self.readahead_issued += issued
            obs.count("cache.data.readahead_issued", issued)
            if obs.enabled:
                self._update_accuracy()
        if evicted:
            self.evictions += evicted
            obs.count("cache.data.evictions", evicted)

    def _set_owner(self, address: int, uid: int | None) -> None:
        previous = self._owner.pop(address, None)
        if previous is not None:
            owned = self._by_uid.get(previous)
            if owned is not None:
                owned.discard(address)
                if not owned:
                    del self._by_uid[previous]
        if uid is not None:
            self._owner[address] = uid
            self._by_uid.setdefault(uid, set()).add(address)

    # ------------------------------------------------------------------
    # sequential detection
    # ------------------------------------------------------------------
    def note_read(self, uid: int, first_page: int, page_count: int) -> bool:
        """Record one read of file ``uid`` covering logical pages
        ``[first_page, first_page + page_count)``; returns True when it
        directly continues the previous read (the read-ahead trigger:
        two consecutive extents of the file read in order)."""
        if not self.enabled:
            return False
        sequential = self._seq.get(uid) == first_page and first_page > 0
        self._seq[uid] = first_page + page_count
        self._seq.move_to_end(uid)
        while len(self._seq) > _MAX_SEQ_STREAMS:
            self._seq.popitem(last=False)
        return sequential

    def forget_file(self, uid: int) -> None:
        """Drop the sequential-detection state of one file."""
        self._seq.pop(uid, None)

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate(self, address: int, count: int = 1) -> int:
        """Drop ``count`` sectors starting at ``address``; returns how
        many were actually cached."""
        dropped = 0
        for victim in range(address, address + count):
            if self._pages.pop(victim, None) is not None:
                dropped += 1
            self._prefetched.discard(victim)
            self._set_owner(victim, None)
        if dropped:
            self.invalidations += dropped
            self.obs.count("cache.data.invalidations", dropped)
        return dropped

    def invalidate_file(self, uid: int) -> int:
        """Drop every cached sector owned by file ``uid`` (and its
        sequential-detection state).  Delete and rename invalidate by
        identity *in addition to* run lists: under interleaved clients
        a stale handle may have populated pages outside the run list
        the invalidating operation resolved, and those images must not
        survive the file they belonged to."""
        addresses = list(self._by_uid.get(uid, ()))
        dropped = 0
        for address in addresses:
            dropped += self.invalidate(address)
        self.forget_file(uid)
        return dropped

    def invalidate_runs(self, runs) -> int:
        """Drop every sector of the given runs (truncate/delete/rename
        free or re-home these sectors; stale images must not survive)."""
        run_list = getattr(runs, "runs", runs)
        dropped = 0
        for run in run_list:
            dropped += self.invalidate(run.start, run.count)
        return dropped

    def discard_all(self) -> None:
        """A crash (or unmount): volatile state vanishes, exactly like
        the scheduler queue and the metadata cache."""
        self._pages.clear()
        self._prefetched.clear()
        self._seq.clear()
        self._owner.clear()
        self._by_uid.clear()

    # ------------------------------------------------------------------
    # derived gauges
    # ------------------------------------------------------------------
    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def readahead_accuracy(self) -> float:
        return (
            self.readahead_used / self.readahead_issued
            if self.readahead_issued
            else 0.0
        )

    def _update_ratio(self) -> None:
        self.obs.gauge("cache.data.hit_ratio", round(self.hit_ratio, 4))

    def _update_accuracy(self) -> None:
        self.obs.gauge(
            "cache.data.readahead_accuracy", round(self.readahead_accuracy, 4)
        )
