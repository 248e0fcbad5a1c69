"""The benchmark's three workloads, their property guards and their
correctness checks.

Each repetition of a workload:

1. **set-up** (timed as ``setup_s``): format a t300 volume, mount it,
   create the source tree or shared population, generate every client
   script from the seed;
2. **measured phase**: run the scripts to completion, closed loop, then
   settle (one group-commit force);
3. **crash and recovery**: ``fs.crash()``, a recovery mount timed on
   the simulated clock (``recovery_sim_ms``) and on the host;
4. **checks** (``check=True``): ``verify_volume(strict_vam=True)``
   finds nothing, the surviving files are the expected ones, and the
   input-property guards hold.

Simulated outputs depend only on the seed, so every repetition of one
seed must produce the same :attr:`Repetition.fingerprint`; a run checks
its first repetition and compares the others' fingerprints with it.
"""

from __future__ import annotations

import math
import random
import resource
import time
from dataclasses import dataclass, field
from statistics import median

from repro.core.fsd import FSD
from repro.core.verify import verify_volume
from repro.disk.disk import SimDisk
from repro.errors import DiskError, FsError
from repro.harness.adapters import FsdAdapter
from repro.harness.scenarios import FULL
from repro.workloads.generators import payload
from repro.workloads.traffic import TrafficConfig, TrafficEngine

from perfbench.percentiles import (
    Tail,
    tail_from_summary,
    tail_percentile,
)

#: the simulated volume every workload runs on: the paper's ~306 MB
#: Trident T-300 with a 96-page name-table cache.
SCALE = FULL

OP_KINDS = ("create", "read", "write", "delete", "list")


@dataclass
class Repetition:
    """What one set-up + measured phase + recovery + check measured."""

    setup_s: float
    run_s: float
    attempted: int
    failed: int
    #: simulated per-op latency: the median, the guarded tail, and
    #: the tail per op kind (``None`` where too few samples).
    sim_p50_ms: float
    sim_tail: Tail | None
    kind_tails: dict[str, Tail | None]
    sim_elapsed_ms: float
    #: layer counters over the measured phase (see :func:`counters`).
    counters: dict[str, float]
    user_bytes_written: int
    recovery: dict[str, float]
    recovery_host_s: float
    #: peak resident memory up to the end of the recovery mount, before
    #: the checks run.
    peak_rss_mb: float
    problems: list[str] = field(default_factory=list)
    guards: dict[str, bool] = field(default_factory=dict)

    @property
    def fingerprint(self) -> tuple:
        """Every simulated output of the repetition; host times are
        left out."""
        return (
            self.attempted, self.failed, self.sim_p50_ms, self.sim_tail,
            tuple(sorted(self.kind_tails.items())), self.sim_elapsed_ms,
            tuple(sorted(self.counters.items())),
            tuple(sorted(self.recovery.items())),
        )


def fresh_volume(mount: dict) -> tuple[SimDisk, FSD]:
    """A formatted and mounted t300 volume."""
    disk = SimDisk(geometry=SCALE.geometry)
    FSD.format(disk, SCALE.fsd_params)
    return disk, FSD.mount(disk, **mount)


def counters(fs: FSD) -> dict[str, float]:
    """The layer counters a mounted volume exposes as public
    attributes, flattened.  Reading them does no simulated work."""
    stats = fs.disk.stats
    sched = fs.io.sched_stats
    cache = fs.cache
    data = fs.data_cache
    coord = fs.coordinator
    wal = fs.wal
    ckpt = fs.checkpointer
    return {
        "clock.now_ms": fs.clock.now_ms,
        "clock.cpu_busy_ms": fs.clock.cpu_busy_ms,
        **{f"disk.{name}": value for name, value in stats.as_dict().items()},
        "disk.busy_ms": stats.busy_ms,
        "sched.read_merged": sched.read_merged,
        "sched.coalesced": sched.coalesced,
        "sched.dispatched": sched.dispatched,
        "sched.max_queue_depth": sched.max_queue_depth,
        "cache.hits": cache.hits,
        "cache.misses": cache.misses,
        "cache.evictions": cache.evictions,
        "cache.home_writes": cache.home_writes,
        "data_cache.hits": data.hits,
        "data_cache.misses": data.misses,
        "data_cache.evictions": data.evictions,
        "data_cache.readahead_issued": data.readahead_issued,
        "data_cache.readahead_used": data.readahead_used,
        "commit.forces": coord.forces,
        "commit.empty_forces": coord.empty_forces,
        "commit.updates_absorbed": coord.updates_absorbed,
        "txn.admission_waits": fs.txn.admission_waits,
        "txn.commit_waits": fs.txn.commit_waits,
        "wal.pages_logged": wal.pages_logged,
        "wal.sectors_logged": wal.sectors_logged,
        "wal.stall_ms": wal.stall_ms,
        "wal.third_entries": wal.third_entries,
        "checkpoint.ticks": ckpt.ticks if ckpt else 0,
        "checkpoint.pages_written": ckpt.pages_written if ckpt else 0,
    }


#: counters that are levels, not running totals: kept as read at the
#: end of the measured phase instead of differenced.
LEVELS = ("sched.max_queue_depth",)


def counter_delta(before: dict, after: dict) -> dict[str, float]:
    return {key: after[key] if key in LEVELS else after[key] - before[key]
            for key in after}


def crash_and_recover(disk: SimDisk, fs: FSD, mount: dict):
    """Crash the volume and mount it again through recovery.  Returns
    the recovered volume, the recovery figures and the recovery
    mount's host seconds."""
    fs.crash()
    start = time.perf_counter()
    recovered = FSD.mount(disk, **mount)
    host_s = time.perf_counter() - start
    report = recovered.mount_report
    recovery = {
        "total_ms": report.total_ms,
        "replay_ms": report.replay_ms,
        "vam_ms": report.vam_ms,
        "records_replayed": report.log_records_replayed,
        "pages_replayed": report.pages_replayed,
    }
    return recovered, recovery, host_s


def nt_pages(fs: FSD) -> int:
    """Allocated name-table pages of a mounted volume."""
    return fs.name_table.tree.pager.allocated_pages()


# ----------------------------------------------------------------------
# makedo: the paper's build, one client, no think time
# ----------------------------------------------------------------------
#: makedo lists ``src/`` every this many modules and reads sources a
#: page of this many bytes at a time.
LIST_EVERY = 10
READ_PAGE_BYTES = 512

#: makedo's guard: one closed-loop client with no think time issues op
#: after op, so the simulated latencies of its calls add up to the
#: simulated length of the measured phase; overlapping clients would
#: add up to more, think time to less.
ONE_CLIENT = "one client: op latencies tile the measured phase"


@dataclass(frozen=True)
class MakeDo:
    """The paper's MakeDo build (Table 3), scaled up.  Per module: list
    ``src/`` every ``LIST_EVERY`` modules, read the source a page at a
    time, create a scratch file, create the object, delete the scratch.
    Module sizes are drawn from the seed around the paper workload's
    12 000 / 20 000 / 2 000 bytes.

    Every adapter call is one op and is timed on the simulated clock.
    The end-to-end latency samples are per module (the sum of its
    calls): over half the calls are page reads that each cost exactly
    one disk revolution, so a per-call median is the same constant for
    every seed and every build."""

    name: str = "makedo"
    modules: int = 1000
    mount: tuple = ()

    def setup(self, seed: int):
        disk, fs = fresh_volume(dict(self.mount))
        adapter = FsdAdapter(fs)
        rng = random.Random(f"{seed}:makedo")
        sources, objects, script = {}, {}, []
        for index in range(self.modules):
            source = f"src/mod-{index:04d}.mesa"
            sources[source] = (rng.randint(9_000, 15_000), rng.randrange(1 << 30))
        for index, (source, (size, _)) in enumerate(sources.items()):
            if index % LIST_EVERY == 0:
                script.append(("list", "src/", 0, 0, index))
            for offset in range(0, size, READ_PAGE_BYTES):
                script.append(("read", source, offset,
                               min(READ_PAGE_BYTES, size - offset), index))
            scratch = f"tmp/scratch-{index:04d}"
            obj = f"obj/mod-{index:04d}.bcd"
            objects[obj] = (rng.randint(15_000, 25_000), rng.randrange(1 << 30))
            script.append(("create", scratch, rng.randint(1_000, 3_000),
                           rng.randrange(1 << 30), index))
            script.append(("create", obj, *objects[obj], index))
            script.append(("delete", scratch, 0, 0, index))
        for source, (size, content) in sources.items():
            adapter.create(source, payload(size, content))
        adapter.settle()
        return disk, fs, adapter, script, {**sources, **objects}

    def run(self, state) -> dict:
        """The measured phase: the script, one op after another, each
        timed on the simulated clock."""
        disk, fs, adapter, script, _ = state
        clock = fs.clock
        latency = {kind: [] for kind in OP_KINDS}
        modules = [0.0] * self.modules
        failed = 0
        user_bytes = 0
        handle = None
        phase_start_ms = clock.now_ms
        for kind, name, first, second, module in script:
            start_ms = clock.now_ms
            try:
                if kind == "read":
                    if first == 0:
                        handle = adapter.open(name)
                    adapter.read_at(handle, first, second)
                elif kind == "create":
                    adapter.create(name, payload(first, second))
                    user_bytes += first
                elif kind == "delete":
                    adapter.delete(name)
                else:
                    adapter.list(name)
            except (FsError, DiskError):
                failed += 1
            elapsed = clock.now_ms - start_ms
            latency[kind].append(elapsed)
            modules[module] += elapsed
        tiled = math.isclose(sum(modules), clock.now_ms - phase_start_ms,
                             rel_tol=1e-9)
        adapter.settle()
        return {"attempted": len(script), "failed": failed,
                "user_bytes": user_bytes, "latency": latency,
                "modules": modules, "tiled": tiled}

    def latency(self, outcome: dict):
        """Median and guarded tail per module; guarded tail per call
        kind."""
        modules = outcome["modules"]
        return (median(modules), tail_percentile(modules),
                {kind: tail_percentile(values)
                 for kind, values in outcome["latency"].items()})

    def survivors(self, state) -> dict:
        """The files the build leaves, from its inputs."""
        return state[4]

    def check(self, state, outcome: dict, recovered: FSD, expected: dict):
        """Every file the build left reads back byte for byte, and no
        other file exists; then the one-client guard."""
        problems = []
        present = {props.name for props in recovered.list("")}
        for name in sorted(present ^ set(expected)):
            problems.append(f"makedo: {name} "
                            f"{'unexpected' if name in present else 'lost'}")
        for name in sorted(present & set(expected)):
            size, content = expected[name]
            if recovered.read(recovered.open(name)) != payload(size, content):
                problems.append(f"makedo: {name} reads back wrong bytes")
        return problems, {ONE_CLIENT: outcome["tiled"]}


# ----------------------------------------------------------------------
# traffic workloads: the seeded multi-client engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Traffic:
    """A seeded :class:`~repro.workloads.traffic.TrafficEngine` run.
    ``config`` holds the :class:`TrafficConfig` fields other than the
    seed, ``mount`` the mount options."""

    name: str
    config: tuple
    mount: tuple = ()
    #: guard: allocated NT pages over the cache's capacity must exceed
    #: this multiple (``nt_over``) or stay below 1 (``nt_under``).
    nt_over: float | None = None
    nt_under: bool = False
    #: guard: the distinct data read must span more sectors than the
    #: data cache holds.
    data_over_cache: bool = False

    def setup(self, seed: int):
        disk, fs = fresh_volume(dict(self.mount))
        engine = TrafficEngine(fs, TrafficConfig(seed=seed, **dict(self.config)))
        engine.prepare()
        return disk, fs, engine

    def run(self, state) -> dict:
        _, fs, engine = state
        report = engine.run()
        user_bytes = sum(op.size for script in engine.scripts for op in script
                         if op.kind in ("create", "write"))
        return {"attempted": report.ops_issued, "failed": report.errors,
                "user_bytes": user_bytes, "report": report}

    def latency(self, outcome: dict):
        """Median, guarded tail and per-kind tails, read from the
        engine's report."""
        report = outcome["report"]
        return (report.latency.get("p50_ms", 0.0),
                tail_from_summary(report.latency),
                {kind: tail_from_summary(report.latency_by_kind.get(kind, {}))
                 for kind in OP_KINDS})

    def survivors(self, state) -> list[tuple[str, int]]:
        """The names listed after the run's final settle-force."""
        return [(props.name, props.version) for props in state[1].list("")]

    def check(self, state, outcome: dict, recovered: FSD, survivors: list):
        """Every name listed after the final settle-force survives the
        crash; then the input-property guards."""
        engine = state[2]
        problems = [f"{self.name}: {name}!{version} lost in the crash"
                    for name, version in survivors
                    if not recovered.exists(name, version)]
        guards = {}
        cache_pages = SCALE.fsd_params.cache_pages
        pages = nt_pages(recovered)
        if self.nt_over is not None:
            guards[f"NT pages {pages} > {self.nt_over:g} x cache "
                   f"{cache_pages}"] = pages > self.nt_over * cache_pages
        if self.nt_under:
            guards[f"NT pages {pages} < cache {cache_pages}"] = (
                pages < cache_pages)
        if self.data_over_cache:
            capacity = dict(self.mount)["data_cache_pages"]
            sectors = read_working_set(engine, recovered)
            guards[f"data working set {sectors} sectors > data cache "
                   f"{capacity}"] = sectors > capacity
        return problems, guards


def read_working_set(engine: TrafficEngine, fs: FSD) -> int:
    """Sectors (leader included) of the distinct files the scripts
    read, at their sizes on the volume after the run."""
    names = {op.name for script in engine.scripts for op in script
             if op.kind == "read"}
    sector = fs.disk.geometry.sector_bytes
    return sum(1 + -(-props.byte_size // sector)
               for props in fs.list("") if props.name in names)


WORKLOADS = {
    "makedo": MakeDo(),
    "traffic-spill": Traffic(
        name="traffic-spill",
        config=(("clients", 4000), ("ops_per_client", 2),
                ("arrival", "poisson"), ("mean_think_ms", 200.0),
                ("hold_ms", 1.0), ("sync_fraction", 0.1),
                ("population", 40), ("zipf_theta", 0.8),
                ("weights", {"create": 0.35, "write": 0.43, "read": 0.05,
                             "delete": 0.15, "list": 0.02})),
        nt_over=4.0,
    ),
    "read-hot": Traffic(
        name="read-hot",
        config=(("clients", 4), ("ops_per_client", 6000),
                ("population", 70), ("max_file_bytes", 8192),
                ("read_chunk_bytes", 2048), ("shared_fraction", 0.9),
                ("weights", {"create": 0.0, "write": 0.10, "read": 0.85,
                             "delete": 0.0, "list": 0.05})),
        mount=(("sched", "scan"), ("data_cache_pages", 512),
               ("readahead_pages", 16), ("checkpoint_interval_ms", 500.0)),
        nt_under=True,
        data_over_cache=True,
    ),
}


def repetition(workload, seed: int, recorder=None,
               check: bool = True) -> Repetition:
    """One full repetition of ``workload`` on ``seed``.  With a
    ``recorder`` (already installed), spans are recorded during the
    measured phase only.  ``check=False`` skips the checks after the
    recovery mount; callers then compare :attr:`Repetition.fingerprint`
    with a checked repetition of the same seed instead."""
    mount = dict(workload.mount)
    start = time.perf_counter()
    state = workload.setup(seed)
    setup_s = time.perf_counter() - start
    disk, fs = state[0], state[1]
    before = counters(fs)
    if recorder is not None:
        recorder.active = True
        with recorder.span("workloads", f"{workload.name}.run"):
            start = time.perf_counter()
            outcome = workload.run(state)
            run_s = time.perf_counter() - start
        recorder.active = False
    else:
        start = time.perf_counter()
        outcome = workload.run(state)
        run_s = time.perf_counter() - start
    delta = counter_delta(before, counters(fs))
    p50, tail, kind_tails = workload.latency(outcome)
    # Listing the survivors costs simulated time, so every repetition
    # does it, checked or not: the pre-crash state must not depend on
    # whether the repetition is checked.
    survivors = workload.survivors(state)
    recovered, recovery, recovery_host_s = crash_and_recover(disk, fs, mount)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems, guards = [], {}
    if check:
        problems = [f"verify: {problem}" for problem in
                    verify_volume(recovered, strict_vam=True).problems]
        more, guards = workload.check(state, outcome, recovered, survivors)
        problems += more
    return Repetition(
        setup_s=setup_s, run_s=run_s, attempted=outcome["attempted"],
        failed=outcome["failed"], sim_p50_ms=p50, sim_tail=tail,
        kind_tails=kind_tails,
        sim_elapsed_ms=delta["clock.now_ms"], counters=delta,
        user_bytes_written=outcome["user_bytes"], recovery=recovery,
        recovery_host_s=recovery_host_s, peak_rss_mb=peak_rss_mb,
        problems=problems, guards=guards,
    )
