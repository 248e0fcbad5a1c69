"""Recovery oracles: what must hold after crash + remount.

Two layers, per the paper's durability contract:

* **structural** — the offline integrity sweep (:mod:`repro.core.verify`)
  passes in strict-VAM mode: the B-tree is valid, both home copies of
  every name-table page agree, every leader verifies, no sector is
  claimed twice, and the live VAM exactly matches a rebuild.

* **semantic** — every operation the workload saw committed (a group
  commit covering it returned before the crash point) is fully
  present, byte for byte; operations after the last returned commit
  are either absent or *atomically* applied — a file is never present
  with content that no create ever wrote.

The semantic oracle models FSD's versioned namespace as per-name
version stacks.  For uncommitted ops it accepts any per-name prefix
of the pending sequence (a strict superset of the globally consistent
prefixes recovery can actually produce, so it never false-alarms, but
partial or garbled content is still always caught).

Oracles are pluggable: anything with a ``name`` and a
``check(fs, ctx) -> list[str]`` fits the engine's oracle slot.

The fault campaigns (``repro chaos`` and its one-client preset
``repro soak``) judge a whole run instead of one crash point;
:class:`CampaignOracle` keeps their op log on the same namespace model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.core.fsd import FSD
from repro.core.salvage import salvage_volume
from repro.core.verify import verify_volume
from repro.crashcheck.workload import AppliedOp, Op, Recording
from repro.errors import (
    CorruptMetadata,
    DegradedVolumeError,
    DiskError,
    FileNotFound,
    FsError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.disk.disk import SimDisk
    from repro.workloads.chaos import ChaosReport

#: sentinel for "the name resolves to no file" in allowed-state sets.
ABSENT = "<absent>"


# ----------------------------------------------------------------------
# the namespace model
# ----------------------------------------------------------------------
def model_apply(stacks: dict[str, list[bytes]], op: Op) -> None:
    """Apply one op to the version-stack model of the namespace.

    Mirrors FSD semantics: a create pushes the next version (trimming
    the oldest past ``keep`` when retention is bounded); a write
    replaces the newest version's content; a delete pops the newest
    version, exposing the previous one if any.
    """
    if op.kind == "create":
        stack = stacks.setdefault(op.name, [])
        stack.append(op.data)
        if op.keep > 0 and len(stack) > op.keep:
            del stack[: len(stack) - op.keep]
    elif op.kind == "write":
        stack = stacks.get(op.name)
        if stack:
            stack[-1] = op.data
    elif op.kind == "delete":
        stack = stacks.get(op.name)
        if stack:
            stack.pop()
            if not stack:
                del stacks[op.name]
    # "force" and "checkpoint" have no namespace effect


def model_state(ops: list[Op]) -> dict[str, list[bytes]]:
    """The version stacks after applying ``ops`` to an empty volume."""
    stacks: dict[str, list[bytes]] = {}
    for op in ops:
        model_apply(stacks, op)
    return stacks


# ----------------------------------------------------------------------
# oracle context
# ----------------------------------------------------------------------
@dataclass
class OracleContext:
    """Everything an oracle may consult about one crash point."""

    boundary: int
    variant: str
    committed: dict[str, list[bytes]]      # version stacks, oldest first
    pending: list[AppliedOp]

    _allowed: dict[str, set] = field(default_factory=dict, repr=False)

    @classmethod
    def at(cls, recording: Recording, boundary: int, variant: str) -> "OracleContext":
        done = recording.committed_ops_at(boundary)
        committed = model_state(
            list(recording.scenario.setup)
            + [a.op for a in recording.applied[:done]]
        )
        return cls(
            boundary=boundary,
            variant=variant,
            committed=committed,
            pending=recording.pending_ops_at(boundary),
        )

    def allowed_states(self) -> dict[str, set]:
        """Per name: the set of contents (or :data:`ABSENT`) recovery
        may legitimately expose.  Committed-only names map to exactly
        their committed content; names touched by pending ops also
        admit each intermediate pending state."""
        if self._allowed:
            return self._allowed
        allowed: dict[str, set] = {}

        def top(stacks: dict[str, list[bytes]], name: str):
            stack = stacks.get(name)
            return stack[-1] if stack else ABSENT

        for name in self.committed:
            allowed[name] = {top(self.committed, name)}
        stacks = {name: list(stack) for name, stack in self.committed.items()}
        for applied in self.pending:
            op = applied.op
            if op.kind in ("force", "checkpoint"):
                continue
            allowed.setdefault(op.name, {top(stacks, op.name)})
            model_apply(stacks, op)
            allowed[op.name].add(top(stacks, op.name))
        self._allowed = allowed
        return allowed


@runtime_checkable
class Oracle(Protocol):
    """The pluggable oracle surface the engine fans out to."""

    name: str

    def check(self, fs: FSD, ctx: OracleContext) -> list[str]:
        """Return a problem string per violated invariant (empty = ok)."""
        ...


# ----------------------------------------------------------------------
# structural oracle
# ----------------------------------------------------------------------
class StructuralOracle:
    """The offline verify sweep, in strict-VAM mode by default.

    After crash recovery the VAM is freshly rebuilt from the name
    table, so even strict mode must find zero leaked sectors; any
    report at all is a recovery bug.
    """

    name = "structural"

    def __init__(self, strict_vam: bool = True):
        self.strict_vam = strict_vam

    def check(self, fs: FSD, ctx: OracleContext) -> list[str]:
        """Every verifier problem is a structural violation."""
        report = verify_volume(fs, strict_vam=self.strict_vam)
        return list(report.problems)


# ----------------------------------------------------------------------
# semantic oracle
# ----------------------------------------------------------------------
class SemanticOracle:
    """Committed ops fully present; pending ops atomic or absent."""

    name = "semantic"

    def check(self, fs: FSD, ctx: OracleContext) -> list[str]:
        """Compare the recovered namespace against the allowed states."""
        problems: list[str] = []
        allowed = ctx.allowed_states()
        present = {props.name for props in fs.list()}

        for name in sorted(present - set(allowed)):
            problems.append(f"unexpected file {name!r} after recovery")

        for name, states in sorted(allowed.items()):
            if name not in present:
                if ABSENT not in states:
                    problems.append(
                        f"committed file {name!r} lost by recovery"
                    )
                continue
            try:
                content = fs.read(fs.open(name))
            except Exception as error:
                problems.append(f"file {name!r} unreadable: {error}")
                continue
            if content not in states:
                kind = (
                    "committed content corrupted"
                    if ABSENT not in states
                    else "partial/garbled uncommitted state"
                )
                expected = sorted(
                    f"{len(s)}B" for s in states if s is not ABSENT
                )
                problems.append(
                    f"{kind} for {name!r}: recovered {len(content)} bytes, "
                    f"expected one of {expected or ['absent']}"
                )
        return problems


# ----------------------------------------------------------------------
# cache-coherence oracle
# ----------------------------------------------------------------------
class CacheCoherenceOracle:
    """A post-crash read must never observe cached pre-crash data.

    The data-page cache is volatile, so a recovered mount must start
    cold — any page already cached when the oracles run would be a leak
    of pre-crash state across the crash boundary.  When the remount
    enables the cache, the oracle also reads every surviving file twice
    and requires the warm (cache-served) pass to be byte-identical to
    the cold pass straight off the platter.

    Runs before :class:`SemanticOracle` (whose reads warm the cache);
    the structural sweep only touches leaders via ``fs.io``, so the
    cache is still exactly as ``FSD.mount`` left it here.
    """

    name = "cache-coherence"

    def check(self, fs: FSD, ctx: OracleContext) -> list[str]:
        """Flag a warm cache at mount; cross-check cold vs warm reads."""
        problems: list[str] = []
        if len(fs.data_cache):
            problems.append(
                f"data cache holds {len(fs.data_cache)} page(s) at mount "
                "— pre-crash cached data survived the crash"
            )
        if not fs.data_cache.enabled:
            return problems
        for props in fs.list():
            try:
                handle = fs.open(props.name)
                cold = fs.read(handle)
                warm = fs.read(handle)
            except Exception:
                continue  # the semantic oracle reports unreadable files
            if cold != warm:
                problems.append(
                    f"cached re-read of {props.name!r} diverges from the "
                    f"platter copy after recovery ({len(cold)} vs "
                    f"{len(warm)} bytes or content mismatch)"
                )
        return problems


def default_oracles(strict_vam: bool = True) -> list[Oracle]:
    """The standard oracle stack: structural first, then the cache
    check (while the cache is still untouched), then semantic."""
    return [
        StructuralOracle(strict_vam=strict_vam),
        CacheCoherenceOracle(),
        SemanticOracle(),
    ]


# ----------------------------------------------------------------------
# fault-campaign oracle
# ----------------------------------------------------------------------
class CampaignOracle:
    """What a fault campaign knows, and its final verdict.

    A campaign run must end in exactly one honest state — ``recovered``
    (the final mount is clean), ``degraded`` (the volume says it lost
    something and refuses writes; salvage must then succeed) or
    ``salvaged`` (the volume would not mount; the salvager's rebuild is
    checked instead).  Every committed file must read back as some
    content once written to it, or fail with an explicit error.  What
    is never acceptable is **silent corruption**: junk content, or a
    committed file gone from a mount that claims health.

    FSD logs metadata only, so data sectors are not crash-atomic.  A
    name touched by an op that failed partway, was interrupted by a
    crash, or sat past the commit watermark when a crash hit is
    **torn**: its content may honestly be a blend.
    """

    def __init__(self) -> None:
        #: completed mutations, in order; the first ``committed`` are
        #: covered by a returned group commit.
        self.ops: list[Op] = []
        self.committed = 0
        #: every content ever written per name — all a read may return.
        self.history: dict[str, set[bytes]] = {}
        #: a mount reported log damage or lost records, or the volume
        #: went degraded: a missing committed file is then admitted.
        self.honesty_flag = False
        self.torn: set[str] = set()
        #: leader sectors of live versions (the wild-write targets).
        self.leader_addrs: dict[tuple[str, int], int] = {}
        self._stacks: dict[str, list[bytes]] = {}  # model of ``ops``

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def watch(self, fs: FSD) -> None:
        """Follow a mount's commits; raise the honesty flag when the
        mount admitted a loss."""
        fs.coordinator.add_commit_hook(self._commit_hook)
        report = fs.mount_report
        if report.log_damage or report.log_records_lost or fs.degraded:
            self.honesty_flag = True

    def _commit_hook(self) -> None:
        # Operation bodies are atomic and a force runs between them, so
        # every op logged when a commit returns is durable.
        self.committed = max(self.committed, len(self.ops))

    def _log(self, op: Op) -> None:
        self.ops.append(op)
        model_apply(self._stacks, op)

    def content(self, name: str) -> bytes:
        """The newest content the op log gives ``name`` (b"" if none)."""
        stack = self._stacks.get(name)
        return stack[-1] if stack else b""

    def may_hold(self, name: str, data: bytes) -> None:
        """``name`` may from now on legitimately read back ``data``."""
        self.history.setdefault(name, set()).add(data)

    def created(self, name: str, data: bytes, props) -> None:
        """Log a completed create and its version's leader sector."""
        self._log(Op("create", name, data, keep=FSD.DEFAULT_KEEP))
        self.leader_addrs[(name, props.version)] = props.leader_addr
        # Versions past the keep limit were trimmed: their leaders are
        # free and must never be wild-write targets again.
        for key in [
            k
            for k in self.leader_addrs
            if k[0] == name and k[1] <= props.version - FSD.DEFAULT_KEEP
        ]:
            del self.leader_addrs[key]

    def wrote(self, name: str, content: bytes) -> None:
        """Log a completed in-place write; ``content`` is the whole
        file after it."""
        self._log(Op("write", name, content))

    def deleted(self, name: str) -> None:
        """Log a completed delete of the newest version."""
        self._log(Op("delete", name))
        live = [k for k in self.leader_addrs if k[0] == name]
        if live:
            del self.leader_addrs[max(live, key=lambda k: k[1])]

    def crashed(self) -> None:
        """Ops past the watermark died with the crash — and because
        data sectors are written in place outside the log, their names
        are torn, not merely rolled back."""
        self.torn.update(op.name for op in self.ops[self.committed:])
        del self.ops[self.committed:]
        self._stacks = model_state(self.ops)

    def remounted(self, fs: FSD) -> None:
        """Re-derive the leader sectors from what survived a crash."""
        self.watch(fs)
        try:
            self.leader_addrs = {
                (props.name, props.version): props.leader_addr
                for props in fs.list()
            }
        except (FsError, DiskError):
            self.leader_addrs = {}

    # ------------------------------------------------------------------
    # the verdict
    # ------------------------------------------------------------------
    def _unpinned(self, name: str) -> bool:
        # Torn, or touched past the watermark: the last power-off left
        # that op's unlogged data sectors half-applied.
        return name in self.torn or any(
            op.name == name for op in self.ops[self.committed:]
        )

    def classify(
        self,
        disk: "SimDisk",
        report: "ChaosReport",
        mount_kwargs: dict,
        volume_lost: bool = False,
    ) -> None:
        """Mount the crashed ``disk`` and fill in ``report``'s verdict,
        file counts and silent-corruption findings."""
        report.verdict = "salvaged"
        if not volume_lost:
            try:
                fs = FSD.mount(disk, **mount_kwargs)
            except (DegradedVolumeError, CorruptMetadata):
                pass
            else:
                # Checking only reads, so the watermark cannot move.
                self.watch(fs)
                report.verdict = "degraded" if fs.degraded else "recovered"
                self._check_files(fs, report)
                fs.crash()
                if report.verdict == "recovered":
                    return
        # Salvage the lost volume — or prove a degraded one still
        # salvages.  The params hint lets salvage locate the layout even
        # when both root-page copies are gone (the worst allowed outcome).
        try:
            destination, salvage_report = salvage_volume(
                disk, params_hint=mount_kwargs.get("params")
            )
        except (DegradedVolumeError, CorruptMetadata) as error:
            report.silent_corruptions.append(f"salvage failed: {error}")
            return
        report.salvage_summary = salvage_report.summary()
        fs = FSD.mount(destination)
        self._check_files(fs, report, salvaged=True)
        fs.crash()

    def _check_files(
        self, fs: FSD, report: "ChaosReport", salvaged: bool = False
    ) -> None:
        expected = model_state(self.ops[: self.committed])
        report.files_expected = len(expected)
        for name, stack in sorted(expected.items()):
            try:
                got = fs.read(fs.open(name))
            except FileNotFound:
                # Salvage is best-effort: a file whose every trace was
                # destroyed is honestly absent.
                if salvaged or self.honesty_flag or self._unpinned(name):
                    report.files_honestly_lost += 1
                else:
                    report.silent_corruptions.append(
                        f"committed file {name} vanished from a mount "
                        "that claims to be healthy"
                    )
                continue
            except (DiskError, CorruptMetadata):
                # Explicit failure: destroyed data sectors and
                # wild-written leaders are reported, never papered over.
                report.files_honestly_lost += 1
                continue
            if (
                got == stack[-1]
                or got in self.history.get(name, ())
                or self._unpinned(name)
            ):
                report.files_verified += 1
            else:
                where = "salvaged file" if salvaged else "file"
                report.silent_corruptions.append(
                    f"{where} {name} returned {len(got)} bytes that were "
                    "never written to it"
                )
