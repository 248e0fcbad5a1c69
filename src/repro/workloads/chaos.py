"""Chaos under load: fault injection inside the live traffic engine.

The crash-point explorer is exhaustive over single crashes.  What it
does not answer is the paper's operational claim — that a Cedar file
server keeps *serving* through media decay and machine crashes,
clients see typed errors rather than hangs, and recovery is "a minute
or so" (§1) rather than a multi-hour scavenge.  The chaos engine is
the repo's one fault-campaign engine: it drives the multi-client
traffic engine while a weighted fault mix (:data:`FAULT_KINDS`, past
the paper's single-fault model) lands on the platter between
operations, machine crashes fire *mid-I/O* via the armed crash plan,
and — on a mirrored volume — an entire shadow unit dies and is later
resilvered.  ``repro soak`` (:mod:`repro.crashcheck.soak`) is a preset
of it: many one-client campaigns on the crashcheck scale.

On top of the traffic engine's client error contract (typed error
classes, capped-backoff retries, deadlines, degraded fast-fail) the
chaos engine adds what only a crash needs:

* every scheduled client continuation is **token-guarded**, so a
  pre-crash hold timer, read chunk, or retry never fires against the
  post-crash mount;
* a :class:`~repro.errors.SimulatedCrash` unwinds to the event loop,
  which crashes the volume (discarding every parked waiter), truncates
  the oracle to the committed watermark, remounts, and re-drives each
  interrupted client through the ordinary retry path with a typed
  :class:`~repro.errors.NotMounted` failure;
* if the remount itself refuses (the volume is past mounting), the
  run flips to **volume-lost** mode: every remaining operation
  resolves immediately with a ``degraded`` error — clients never hang
  — and the campaign ends in the salvage oracle.

The oracle is :class:`~repro.crashcheck.oracles.CampaignOracle`: it
logs every completed mutation on the crash explorer's version-stack
model, marks names **torn** when their in-place data writes may be
half-applied (an op failed partway, was interrupted by a crash, or sat
past the commit watermark when one hit), and ends the run with a
verdict — recovered, degraded or salvaged.  Silent corruption — junk
content or a vanished file on a mount that claims health, with no
explicit error anywhere in its story — is the one verdict that fails
a campaign.

Everything is deterministic: faults come from one seeded RNG, crashes
from deterministic I/O countdowns, backoff jitter from per-(client,
op, attempt) keyed RNGs.  The same seed replays the same campaign to
a bit-identical disk, metrics snapshot, and report.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace

from repro.core.fsd import FSD
from repro.core.layout import VolumeParams
from repro.crashcheck.oracles import CampaignOracle
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.disk.mirror import MirroredDisk
from repro.errors import (
    CorruptMetadata,
    DegradedVolumeError,
    FsError,
    NotMounted,
    SimulatedCrash,
)
from repro.harness.adapters import FsdAdapter
from repro.harness.fingerprint import fingerprint
from repro.obs import Observer
from repro.workloads.generators import payload
from repro.workloads.traffic import (
    MUTATING,
    TrafficConfig,
    TrafficEngine,
    TrafficReport,
)

__all__ = [
    "CHAOS_GEOMETRY",
    "CHAOS_PARAMS",
    "ChaosConfig",
    "ChaosEngine",
    "ChaosReport",
    "chaos_bench_doc",
    "run_chaos",
]

#: default volume scale for chaos campaigns: the CLI's SMALL drive
#: (enough data area for dozens of clients), with the crashcheck
#: scale's appetite for log wrap.
CHAOS_GEOMETRY = DiskGeometry(cylinders=200, heads=8, sectors_per_track=48)
CHAOS_PARAMS = VolumeParams(
    nt_pages=1024, log_record_sectors=600, cache_pages=96
)

#: report schema version for ``BENCH_chaos.json`` / ``--json`` output.
CHAOS_SCHEMA_VERSION = 1

#: fault kinds and their selection weights.  ``nt_pair`` destroys both
#: home copies of one name-table page — deliberately past the paper's
#: single-fault model, so the escalation ladder's degraded rung and the
#: salvager actually get exercised.
FAULT_KINDS = (
    ("permanent", 0.30),
    ("transient", 0.20),
    ("latent", 0.15),
    ("wild_write", 0.20),
    ("nt_pair", 0.15),
)


def nt_page(layout, rng: random.Random) -> int:
    """A name-table page number, biased toward the low pages a small
    volume actually uses (uniform hits over thousands of blank pages
    would never stress anything)."""
    nt_pages = layout.params.nt_pages
    if rng.random() < 0.6:
        return rng.randrange(min(32, nt_pages))
    return rng.randrange(nt_pages)


def pick_fault_kind(rng: random.Random) -> str:
    """One kind from :data:`FAULT_KINDS` by weight."""
    roll = rng.random()
    cumulative = 0.0
    for name, weight in FAULT_KINDS:
        cumulative += weight
        if roll < cumulative:
            return name
    return FAULT_KINDS[-1][0]


def fault_target(
    layout, leader_addrs: dict, rng: random.Random
) -> int:
    """Pick a sector for a damage fault: name-table copies, the log,
    or a live file's sectors — the places recovery has to care about.
    ``leader_addrs`` maps live (name, version) pairs to their leader
    sectors."""
    choice = rng.random()
    if choice < 0.3:
        return layout.nt_a_start + nt_page(layout, rng)
    if choice < 0.5 and not layout.params.single_nt_copy:
        return layout.nt_b_start + nt_page(layout, rng)
    if choice < 0.75:
        return layout.log_start + rng.randrange(
            3 + layout.params.log_record_sectors
        )
    if leader_addrs and choice < 0.9:
        return rng.choice(sorted(leader_addrs.values()))
    area = layout.big_area if rng.random() < 0.5 else layout.small_area
    return area.start + rng.randrange(area.count)


def wild_write_target(
    layout, leader_addrs: dict, rng: random.Random
) -> int:
    """Wild writes model software scribbling over mapped metadata: they
    land only on name-table extents or leader sectors (paper §5.3's
    read-protection motivation)."""
    if leader_addrs and rng.random() < 0.4:
        return rng.choice(sorted(leader_addrs.values()))
    base = (
        layout.nt_a_start
        if layout.params.single_nt_copy or rng.random() < 0.5
        else layout.nt_b_start
    )
    return base + nt_page(layout, rng)


def inject_fault(
    disk: SimDisk, layout, leader_addrs: dict, rng: random.Random
) -> str:
    """Inject one weighted fault against ``disk``; returns its kind."""
    kind = pick_fault_kind(rng)
    if kind == "permanent":
        disk.faults.damage(
            fault_target(layout, leader_addrs, rng),
            count=rng.choice((1, 2)),
        )
    elif kind == "transient":
        disk.faults.damage_transient(
            fault_target(layout, leader_addrs, rng),
            failures=rng.choice((1, 2)),
        )
    elif kind == "latent":
        disk.faults.damage_latent(fault_target(layout, leader_addrs, rng))
    elif kind == "nt_pair":
        page_no = nt_page(layout, rng)
        address_a, address_b = layout.nt_page_addresses(page_no)
        disk.faults.damage(address_a)
        if not layout.params.single_nt_copy:
            disk.faults.damage(address_b)
    else:  # wild_write
        junk = bytes(rng.getrandbits(8) for _ in range(48))
        disk.write(wild_write_target(layout, leader_addrs, rng), [junk])
    return kind


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of the fault campaign riding on one traffic run."""

    faults: int = 60                 # total faults to inject
    fault_interval_ms: float = 120.0  # simulated ms between injections
    crash_cycles: int = 2            # mid-run crash/recover cycles
    crash_io_window: int = 40        # crash arms 1..window I/Os out
    mirror: bool = False             # run on a shadowed pair
    resilver_delay_ms: float = 2_500.0  # unit loss -> resilver start
    slo_ms: float = 50.0             # "restored" latency bar
    slo_window: int = 5              # consecutive ok ops under the bar

    def __post_init__(self) -> None:
        if self.faults < 0:
            raise FsError("faults must be >= 0")
        if self.fault_interval_ms <= 0.0:
            raise FsError("fault_interval_ms must be positive")
        if self.crash_cycles < 0:
            raise FsError("crash_cycles must be >= 0")
        if self.crash_io_window < 2:
            raise FsError("crash_io_window must be at least 2")
        if self.resilver_delay_ms < 0.0:
            raise FsError("resilver_delay_ms must be >= 0")
        if self.slo_ms <= 0.0 or self.slo_window < 1:
            raise FsError("slo_ms must be positive, slo_window >= 1")

    @property
    def crash_points(self) -> frozenset[int]:
        """Fault counts at which a crash is armed, spaced evenly."""
        if not self.crash_cycles or not self.faults:
            return frozenset()
        spacing = self.faults // (self.crash_cycles + 1)
        if spacing == 0:
            return frozenset()
        return frozenset(
            spacing * (cycle + 1) for cycle in range(self.crash_cycles)
        )

    @property
    def mirror_fail_point(self) -> int | None:
        """Fault count at which the shadow unit dies (mirror runs)."""
        if not self.mirror or not self.faults:
            return None
        return max(1, self.faults // 3)


class ChaosEngine(TrafficEngine):
    """The traffic engine with a fault campaign and crash recovery."""

    def __init__(
        self,
        disk: SimDisk,
        fs: FSD,
        config: TrafficConfig,
        chaos: ChaosConfig,
        mount_kwargs: dict | None = None,
    ):
        super().__init__(fs, config)
        self.disk = disk
        self.chaos = chaos
        #: kwargs every post-crash remount reuses, so recovery comes
        #: back with the same scheduler/cache/checkpoint posture.
        self.mount_kwargs = dict(mount_kwargs or {})
        self.mount_kwargs.setdefault("obs", self.obs)
        self._chaos_rng = random.Random(f"{config.seed}:chaos")
        # fault campaign state
        self._faults_injected = 0
        self._faults_by_kind: dict[str, int] = {}
        self._crashes = 0
        self._recoveries: list[dict] = []
        self._mirror_events: list[dict] = []
        self._volume_lost = False
        self._lost_reason: str | None = None
        self._run_start_ms = 0.0
        self.oracle = CampaignOracle()
        self.oracle.watch(fs)

    # ------------------------------------------------------------------
    # population + bodies (oracle-recording variants)
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Create the shared population and record it as the oracle's
        committed baseline (same RNG draws as the base engine)."""
        if self._prepared or self.config.population == 0:
            self._prepared = True
            return
        oracle = self.oracle
        rng = random.Random(f"{self.config.seed}:population")
        for rank in range(self.config.population):
            name = self._pop_name(rank)
            data = payload(self._sample_size(rng), seed=rank)
            oracle.may_hold(name, data)
            oracle.created(name, data, self.adapter.create(name, data).props)
        self.adapter.settle()
        oracle.committed = len(oracle.ops)
        self._prepared = True

    def _body(self, op) -> None:
        oracle = self.oracle
        if op.kind == "create":
            data = payload(op.size, op.seed)
            # Record the payload *before* the call: a create that fails
            # after materializing is then still a known content.
            oracle.may_hold(op.name, data)
            handle = self.adapter.create(op.name, data)
            oracle.created(op.name, data, handle.props)
        elif op.kind == "write":
            handle = self.adapter.open(op.name)
            data = payload(op.size, op.seed)
            result = data + oracle.content(op.name)[len(data):]
            oracle.may_hold(op.name, result)
            self.adapter.write(handle, 0, data)
            oracle.wrote(op.name, result)
        elif op.kind == "delete":
            self.adapter.delete(op.name)
            oracle.deleted(op.name)
        else:
            super()._body(op)

    # ------------------------------------------------------------------
    # crash-safe event plumbing
    # ------------------------------------------------------------------
    def _client_event(self, client, due_ms, fn) -> None:
        token = client.token

        def guarded() -> None:
            if client.token == token:
                fn()

        self._schedule(due_ms, guarded)

    def _loop(self) -> None:
        while self._heap:
            try:
                self._pump()
            except SimulatedCrash:
                self._recover()

    def _attempt(self, client) -> None:
        if self._volume_lost:
            self._resolve_lost(client)
            return
        super()._attempt(client)

    def _op_failed(self, client, op, error, in_bracket=False) -> bool:
        if in_bracket and op.kind in MUTATING:
            # The body raised partway: FSD logs metadata, not data, so
            # this name's content is no longer pinned by the oracle.
            self.oracle.torn.add(op.name)
        return super()._op_failed(client, op, error, in_bracket=in_bracket)

    def _resolve_lost(self, client) -> None:
        self._fail_inflight(
            client,
            DegradedVolumeError(self._lost_reason or "volume lost under chaos"),
        )

    def _fail_inflight(self, client, error: Exception) -> None:
        """Resolve the client's current op through the retry contract."""
        op = client.ops[client.index]
        if not self._op_failed(client, op, error):
            self._finish(client, op, self.fs.clock.now_ms - client.issue_ms)

    # ------------------------------------------------------------------
    # the fault campaign tick
    # ------------------------------------------------------------------
    def run(self) -> TrafficReport:
        self.prepare()
        self._run_start_ms = self.fs.clock.now_ms
        if self.chaos.faults:
            self._schedule(
                self._run_start_ms + self.chaos.fault_interval_ms,
                self._tick,
            )
        return super().run()

    def _tick(self) -> None:
        if self._volume_lost or self._faults_injected >= self.chaos.faults:
            return
        clock = self.fs.clock
        # Reschedule *before* injecting: a wild write can trip an armed
        # crash mid-tick, and the campaign must survive its own fault.
        if self._faults_injected + 1 < self.chaos.faults:
            self._schedule(
                clock.now_ms + self.chaos.fault_interval_ms, self._tick
            )
        clock.tick()
        kind = inject_fault(
            self.disk, self.fs.layout, self.oracle.leader_addrs,
            self._chaos_rng,
        )
        self._faults_injected += 1
        self._faults_by_kind[kind] = self._faults_by_kind.get(kind, 0) + 1
        self.obs.count("chaos.faults")
        self.obs.count(f"chaos.faults.{kind}")
        if (
            self._faults_injected in self.chaos.crash_points
            and self.disk.faults.crash_plan is None
        ):
            self.disk.faults.arm_crash(
                after_ios=self._chaos_rng.randrange(
                    1, self.chaos.crash_io_window
                )
            )
            self.obs.count("chaos.crashes_armed")
        if self._faults_injected == self.chaos.mirror_fail_point:
            self._fail_mirror()

    def _fail_mirror(self) -> None:
        if not isinstance(self.disk, MirroredDisk) or self.disk.degraded:
            return
        clock = self.fs.clock
        self.disk.massive_failure("b")
        self.obs.count("chaos.mirror_failures")
        self._mirror_events.append(
            {"event": "unit_b_lost", "at_ms": round(clock.now_ms, 3)}
        )
        self._schedule(
            clock.now_ms + self.chaos.resilver_delay_ms, self._resilver
        )

    def _resilver(self) -> None:
        if self._volume_lost or not isinstance(self.disk, MirroredDisk):
            return
        if not self.disk.degraded:
            return
        copied = self.disk.resilver()
        self.obs.count("chaos.resilvers")
        self._mirror_events.append(
            {
                "event": "resilvered",
                "at_ms": round(self.fs.clock.now_ms, 3),
                "sectors": copied,
            }
        )

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        clock = self.fs.clock
        at_ms = clock.now_ms
        self._crashes += 1
        self.obs.count("chaos.crashes")
        self.fs.crash()
        # The armed plan *was* this crash; it dies with the machine.
        self.disk.faults.disarm_crash()
        self._parked = 0
        self.oracle.crashed()
        interrupted = [c for c in self.clients if c.inflight]
        for client in interrupted:
            client.token += 1
            op = client.ops[client.index]
            if op.kind in MUTATING:
                self.oracle.torn.add(op.name)
        try:
            fs = FSD.mount(self.disk, **self.mount_kwargs)
        except (DegradedVolumeError, CorruptMetadata) as error:
            fs = None
            self._volume_lost = True
            self._lost_reason = str(error)
            self.oracle.honesty_flag = True
            self.obs.count("chaos.volume_lost")
        self._recoveries.append(
            {
                "at_ms": at_ms,
                "recover_ms": clock.now_ms - at_ms,
                "mounted": int(fs is not None),
                "records_replayed": (
                    fs.mount_report.log_records_replayed if fs else 0
                ),
            }
        )
        if fs is None:
            for client in interrupted:
                self._resolve_lost(client)
            return
        self.fs = fs
        self.adapter = FsdAdapter(fs)
        if self.recorder is not None:
            self.recorder.bind(fs)
        self.oracle.remounted(fs)
        if isinstance(self.disk, MirroredDisk) and self.disk.degraded:
            self._schedule(
                clock.now_ms + self.chaos.resilver_delay_ms,
                self._resilver,
            )
        # Re-drive every interrupted client through the contract: the
        # crash is a retryable, *typed* failure, never a hang.
        for client in interrupted:
            self._fail_inflight(
                client, NotMounted("crash interrupted the operation")
            )

    # ------------------------------------------------------------------
    # availability reporting
    # ------------------------------------------------------------------
    def _availability_section(self) -> dict:
        section = self._availability_body()
        section["faults"] = {
            "injected": self._faults_injected,
            "by_kind": dict(sorted(self._faults_by_kind.items())),
            "injector": self.disk.faults.counters(),
        }
        section["crashes"] = self._crashes
        section["volume_lost"] = self._volume_lost
        section["recoveries"] = [
            {
                "at_ms": round(entry["at_ms"], 3),
                "recover_ms": round(entry["recover_ms"], 3),
                "mounted": entry["mounted"],
                "records_replayed": entry["records_replayed"],
                "time_to_restored_slo_ms": self._ttr_slo(entry["at_ms"]),
            }
            for entry in self._recoveries
        ]
        section["epochs"] = self._epochs()
        section["goodput"] = self._goodput_timeline()
        if self._mirror_events:
            section["mirror"] = list(self._mirror_events)
        return section

    def _ttr_slo(self, at_ms: float) -> float | None:
        """Simulated ms from a recovery until ``slo_window``
        consecutive ops finished ok under ``slo_ms``; None when the
        run ended before service was restored to SLO."""
        streak = 0
        for finish_ms, _, outcome, latency in self._outcomes:
            if finish_ms < at_ms:
                continue
            if outcome == "ok" and latency <= self.chaos.slo_ms:
                streak += 1
                if streak >= self.chaos.slo_window:
                    return round(finish_ms - at_ms, 3)
            else:
                streak = 0
        return None

    def _epochs(self) -> list[dict]:
        """Per-epoch (between crashes) op counts and failures."""
        bounds = (
            [self._run_start_ms]
            + [entry["at_ms"] for entry in self._recoveries]
            + [self.fs.clock.now_ms]
        )
        epochs = []
        for i in range(len(bounds) - 1):
            low, high = bounds[i], bounds[i + 1]
            last = i == len(bounds) - 2
            ops = [
                o for o in self._outcomes
                if low <= o[0] and (o[0] < high or last)
            ]
            failed = sum(1 for o in ops if o[2] != "ok")
            epochs.append(
                {
                    "start_ms": round(low, 3),
                    "end_ms": round(high, 3),
                    "ops": len(ops),
                    "failed": failed,
                }
            )
        return epochs

    def _goodput_timeline(self, buckets: int = 12) -> list[dict]:
        if not self._outcomes:
            return []
        start = self._run_start_ms
        end = max(o[0] for o in self._outcomes)
        span = max(end - start, 1e-9)
        rows = [
            {
                "t_ms": round(start + span * (i + 1) / buckets, 3),
                "ok": 0,
                "failed": 0,
            }
            for i in range(buckets)
        ]
        for finish_ms, _, outcome, _ in self._outcomes:
            index = min(
                buckets - 1, int((finish_ms - start) / span * buckets)
            )
            rows[index]["ok" if outcome == "ok" else "failed"] += 1
        return rows


# ----------------------------------------------------------------------
# campaign report
# ----------------------------------------------------------------------
@dataclass
class ChaosReport:
    """One chaos campaign: the traffic run, the fault story, and the
    oracle's verdict."""

    seed: int
    clients: int
    ops_issued: int
    ops_completed: int
    faults_injected: int
    faults_by_kind: dict[str, int]
    crashes: int
    volume_lost: bool
    verdict: str = ""  # "recovered" | "degraded" | "salvaged"
    files_expected: int = 0
    files_verified: int = 0
    files_honestly_lost: int = 0
    silent_corruptions: list[str] = field(default_factory=list)
    salvage_summary: str | None = None
    traffic: dict = field(default_factory=dict)
    fingerprint: dict = field(default_factory=dict)
    schema_version: int = CHAOS_SCHEMA_VERSION

    @property
    def hung_ops(self) -> int:
        """Issued ops that never resolved — the contract demands 0."""
        return self.ops_issued - self.ops_completed

    @property
    def ok(self) -> bool:
        return (
            not self.silent_corruptions
            and self.hung_ops == 0
            and self.verdict in ("recovered", "degraded", "salvaged")
        )

    def as_dict(self) -> dict:
        """The campaign as a JSON-ready document (``--json`` output)."""
        return {
            "schema_version": self.schema_version,
            "seed": self.seed,
            "clients": self.clients,
            "ops_issued": self.ops_issued,
            "ops_completed": self.ops_completed,
            "hung_ops": self.hung_ops,
            "faults_injected": self.faults_injected,
            "faults_by_kind": dict(sorted(self.faults_by_kind.items())),
            "crashes": self.crashes,
            "volume_lost": self.volume_lost,
            "verdict": self.verdict,
            "files_expected": self.files_expected,
            "files_verified": self.files_verified,
            "files_honestly_lost": self.files_honestly_lost,
            "silent_corruptions": list(self.silent_corruptions),
            "salvage": self.salvage_summary,
            "ok": self.ok,
            "traffic": self.traffic,
            "fingerprint": self.fingerprint,
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialize :meth:`as_dict`; bit-identical for equal seeds."""
        return json.dumps(self.as_dict(), indent=indent)

    def summary_lines(self) -> list[str]:
        """Human-readable campaign summary (the CLI's default output)."""
        avail = self.traffic.get("availability") or {}
        failed = avail.get("ops_failed", {})
        failed_parts = ", ".join(
            f"{cls} x{count}" for cls, count in sorted(failed.items())
        ) or "none"
        status = "OK" if self.ok else "FAILED"
        lines = [
            f"chaos seed={self.seed}: {self.clients} clients, "
            f"{self.faults_injected} faults, {self.crashes} crashes "
            f"— {status}",
            f"ops {self.ops_completed}/{self.ops_issued} resolved "
            f"({self.hung_ops} hung), failures: {failed_parts}, "
            f"{avail.get('retries', 0)} retries",
            f"verdict {self.verdict}: {self.files_verified}/"
            f"{self.files_expected} files verified, "
            f"{self.files_honestly_lost} honestly lost, "
            f"{len(self.silent_corruptions)} silent corruptions",
        ]
        for recovery in avail.get("recoveries", []):
            ttr = recovery.get("time_to_restored_slo_ms")
            ttr_text = f"{ttr:.0f} ms" if ttr is not None else "not restored"
            lines.append(
                f"  crash at {recovery['at_ms']:.0f} ms: recovered in "
                f"{recovery['recover_ms']:.1f} ms "
                f"({recovery['records_replayed']} records), "
                f"SLO back in {ttr_text}"
            )
        for event in avail.get("mirror", []):
            lines.append(
                f"  mirror: {event['event']} at {event['at_ms']:.0f} ms"
            )
        if self.salvage_summary:
            lines.append(f"salvage: {self.salvage_summary}")
        for finding in self.silent_corruptions:
            lines.append(f"SILENT CORRUPTION: {finding}")
        return lines


# ----------------------------------------------------------------------
# the campaign
# ----------------------------------------------------------------------
def run_chaos(
    traffic: TrafficConfig | None = None,
    chaos: ChaosConfig | None = None,
    *,
    geometry: DiskGeometry | None = None,
    params: VolumeParams | None = None,
    sched: str = "fifo",
    data_cache_pages: int = 0,
    checkpoint_interval_ms: float | None = None,
    observer=None,
) -> ChaosReport:
    """One seeded chaos campaign: traffic + faults + final oracle."""
    traffic = traffic or TrafficConfig(max_retries=4)
    chaos = chaos or ChaosConfig()
    if traffic.settle:
        # The engine must never force a volume that may be degraded or
        # lost; the final classification settles things its own way.
        traffic = replace(traffic, settle=False)
    geometry = geometry or CHAOS_GEOMETRY
    params = params or CHAOS_PARAMS
    disk_cls = MirroredDisk if chaos.mirror else SimDisk
    disk = disk_cls(geometry=geometry)
    FSD.format(disk, params)
    obs = observer if observer is not None else Observer()
    mount_kwargs = {
        "params": params,
        "obs": obs,
        "sched": sched,
        "data_cache_pages": data_cache_pages,
        "checkpoint_interval_ms": checkpoint_interval_ms,
    }
    fs = FSD.mount(disk, **mount_kwargs)
    engine = ChaosEngine(disk, fs, traffic, chaos, mount_kwargs)
    traffic_report = engine.run()
    if not engine._volume_lost:
        engine.fs.crash()
    # A still-armed crash died with the final power-off; the oracle's
    # classification mounts must not trip over it.
    disk.faults.disarm_crash()
    report = ChaosReport(
        seed=traffic.seed,
        clients=traffic.clients,
        ops_issued=traffic_report.ops_issued,
        ops_completed=traffic_report.ops_completed,
        faults_injected=engine._faults_injected,
        faults_by_kind=dict(engine._faults_by_kind),
        crashes=engine._crashes,
        volume_lost=engine._volume_lost,
        traffic=traffic_report.as_dict(),
    )
    engine.oracle.classify(
        disk, report, mount_kwargs, volume_lost=engine._volume_lost
    )
    report.fingerprint = fingerprint(disk, obs).as_dict()
    return report


def chaos_bench_doc(report: ChaosReport) -> dict:
    """Flat gating document for ``BENCH_chaos.json``.  Key names are
    chosen for the bench-diff direction table: ``goodput_ops_per_s``
    gates higher-is-better, ``*_ms`` and ``errors_per_1k_ops`` gate
    lower-is-better, counts stay neutral."""
    avail = report.traffic.get("availability") or {}
    elapsed_ms = report.traffic.get("elapsed_ms", 0.0)
    ok_ops = avail.get("ops_ok", report.ops_completed)
    goodput = (
        ok_ops / (elapsed_ms / 1000.0) if elapsed_ms > 0 else 0.0
    )
    failed = sum(avail.get("ops_failed", {}).values())
    errors_per_1k = (
        1000.0 * failed / report.ops_completed
        if report.ops_completed
        else 0.0
    )
    ttrs = [
        entry["time_to_restored_slo_ms"]
        for entry in avail.get("recoveries", [])
        if entry.get("time_to_restored_slo_ms") is not None
    ]
    return {
        "schema_version": CHAOS_SCHEMA_VERSION,
        "seed": report.seed,
        "clients": report.clients,
        "faults_injected": report.faults_injected,
        "crashes": report.crashes,
        "verdict": report.verdict,
        "goodput_ops_per_s": round(goodput, 3),
        "errors_per_1k_ops": round(errors_per_1k, 3),
        "retry_amplification": avail.get("retry_amplification", 1.0),
        "mean_time_to_restored_slo_ms": (
            round(sum(ttrs) / len(ttrs), 3) if ttrs else 0.0
        ),
        "files_verified_share": (
            round(report.files_verified / report.files_expected, 4)
            if report.files_expected
            else 0.0
        ),
    }
