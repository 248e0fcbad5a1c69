"""The benchmark command: run one workload and print its metrics.

``perfbench/run.py`` puts the checkout's ``src/`` on the import path and
calls :func:`main`.  ``--trace 0`` repeats the workload, tracing off, for
``--seconds`` host seconds and prints the end-to-end metrics, host
timings scaled to a host of fixed speed (:func:`reference_s`); ``--trace
1`` runs it once untraced, once traced and once untraced again, checks
that tracing left every simulated output unchanged, writes the spans to
``perfbench/out/`` and prints the per-layer metrics.  Every repetition
ends in a crash and a recovery mount; the first is checked, and every
later one must reproduce its simulated outputs.

Each metric prints as ``name value unit``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every check and property guard held.
"""

from __future__ import annotations

import argparse
import gc
import json
import struct
import time
from statistics import median
from pathlib import Path

from perfbench.tracing import SpanRecorder
from perfbench.workloads import SCALE, WORKLOADS, repetition

#: where ``--trace 1`` writes its spans.
SPAN_DIR = Path(__file__).resolve().parent / "out"

#: end-to-end metrics: name -> unit.  Host timings are medians over the
#: run's repetitions; simulated figures repeat exactly for one seed.
END_TO_END = {
    "host_ops_per_s": "ops/s",
    "setup_s": "s",
    "sim_p50_ms": "ms",
    "sim_p99_ms": "ms",
    "sim_ops_per_s": "ops/s",
    "disk_ios_per_op": "IOs/op",
    "recovery_sim_ms": "ms",
    "ops_ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

#: per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "disk.calls_per_op": "calls/op",
    "disk.self_us_per_op": "us/op",
    "disk.reads_per_op": "IOs/op",
    "disk.writes_per_op": "IOs/op",
    "disk.sectors_written_per_op": "sectors/op",
    "disk.write_amp": "ratio",
    "disk.seek_ms_per_op": "ms/op",
    "disk.rotational_ms_per_op": "ms/op",
    "disk.busy_frac": "ratio",
    "disk.sched.self_us_per_op": "us/op",
    "disk.sched.read_merged_per_op": "reqs/op",
    "disk.sched.coalesced_per_op": "reqs/op",
    "disk.sched.max_queue_depth": "reqs",
    "disk.clock.calls_per_op": "calls/op",
    "disk.clock.self_us_per_op": "us/op",
    "btree.calls_per_op": "calls/op",
    "btree.self_us_per_op": "us/op",
    "core.name_table.calls_per_op": "calls/op",
    "core.name_table.self_us_per_op": "us/op",
    "core.cache.hit_ratio": "ratio",
    "core.cache.misses_per_op": "pages/op",
    "core.cache.evictions_per_op": "pages/op",
    "core.cache.home_writes_per_op": "pages/op",
    "core.cache.self_us_per_op": "us/op",
    "core.wal.pages_logged_per_op": "pages/op",
    "core.wal.sectors_logged_per_op": "sectors/op",
    "core.wal.third_entries": "count",
    "core.wal.stall_ms": "ms",
    "core.wal.self_us_per_op": "us/op",
    "core.group_commit.forces": "count",
    "core.group_commit.batching_factor": "updates/force",
    "core.group_commit.empty_force_frac": "ratio",
    "core.group_commit.self_us_per_op": "us/op",
    "core.txn.admission_waits_per_op": "waits/op",
    "core.txn.commit_waits_per_op": "waits/op",
    "core.txn.self_us_per_op": "us/op",
    "core.vam.calls_per_op": "calls/op",
    "core.vam.self_us_per_op": "us/op",
    "core.allocator.calls_per_op": "calls/op",
    "core.allocator.self_us_per_op": "us/op",
    "core.data_cache.hit_ratio": "ratio",
    "core.data_cache.readahead_accuracy": "ratio",
    "core.data_cache.evictions_per_op": "pages/op",
    "core.data_cache.self_us_per_op": "us/op",
    "core.checkpoint.ticks": "count",
    "core.checkpoint.pages_written": "pages",
    "core.checkpoint.self_us_per_op": "us/op",
    "core.recovery.host_ms": "ms",
    "core.recovery.records_replayed": "records",
    "core.recovery.replay_ms": "ms",
    "core.recovery.vam_ms": "ms",
    "core.fsd.self_us_per_op": "us/op",
    "core.fsd.create.sim_p99_ms": "ms",
    "core.fsd.read.sim_p99_ms": "ms",
    "core.fsd.write.sim_p99_ms": "ms",
    "core.fsd.delete.sim_p99_ms": "ms",
    "core.fsd.list.sim_p99_ms": "ms",
    "workloads.self_us_per_op": "us/op",
    "trace.overhead_frac": "ratio",
}

#: repetitions a ``--trace 0`` run makes at least, and set-ups it
#: times alone after each repetition, so that the set-up samples are
#: many and spread over the run like the repetitions.
MIN_REPETITIONS = 3
EXTRA_SETUPS = 2

#: the reference loop's size, and the host seconds it takes on the
#: nominal host to which host timings are scaled.
REFERENCE_NODES = 1 << 18
REFERENCE_RECORDS = 60_000
REFERENCE_S = 0.3
RECORD = struct.Struct("<IIQ")


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def reference_s() -> float:
    """Host seconds of a fixed pure-Python loop that shares no code with
    the program: build 2**18 small tuples, follow a chain through them
    in scattered order (a full-period linear congruential step), then
    pack and unpack records through a dict and a bytearray.

    The host's speed moves by 20-40% over tens of seconds with its other
    load, and the loop, which like the program misses the processor's
    caches, slows with it.  A ``--trace 0`` run times the loop after
    every repetition and scales the host timings between two loops by
    ``REFERENCE_S`` over their mean: the host metrics are what the
    program would take on a host where the loop takes ``REFERENCE_S``.
    A change to the program moves them in full; a change in the host's
    speed largely cancels out."""
    start = time.perf_counter()
    mask = REFERENCE_NODES - 1
    nodes = [(index, (index * 1103515245 + 12345) & mask)
             for index in range(REFERENCE_NODES)]
    at = total = 0
    for _ in range(REFERENCE_NODES):
        value, at = nodes[at]
        total += value
    records, page = {}, bytearray(1 << 16)
    for index in range(REFERENCE_RECORDS):
        key = index * 2654435761 % 100_003
        records[key] = RECORD.pack(index, key, total)
        at = index * 16 & 0xFFF0
        page[at:at + 16] = records[key]
        at = key * 16 & 0xFFF0
        RECORD.unpack(bytes(page[at:at + 16]))
    return time.perf_counter() - start


def end_to_end(reps, scales, setup_samples) -> tuple[dict, list[str]]:
    """The end-to-end metrics of a ``--trace 0`` run, plus notes.
    ``scales[i]`` is the host's slowness around repetition ``i``
    relative to the nominal host; ``setup_samples`` are scaled
    already."""
    first = reps[0]
    ops = first.attempted
    counters = first.counters
    tail = first.sim_tail
    rates = [rep.attempted / rep.run_s for rep in reps]
    metrics = {
        "host_ops_per_s": median(
            [rate * scale for rate, scale in zip(rates, scales)]),
        "setup_s": median(setup_samples),
        "sim_p50_ms": first.sim_p50_ms,
        "sim_p99_ms": tail.value if tail else 0.0,
        "sim_ops_per_s": ratio(ops, first.sim_elapsed_ms / 1000.0),
        "disk_ios_per_op": ratio(
            counters["disk.reads"] + counters["disk.writes"], ops),
        "recovery_sim_ms": first.recovery["total_ms"],
        "ops_ok_frac": ratio(ops - first.failed, ops),
        "peak_rss_mb": first.peak_rss_mb,
    }
    notes = [
        f"repetitions: {len(reps)} measured, "
        f"{len(setup_samples)} set-ups timed",
        "unscaled host ops/s by repetition: "
        + ", ".join(f"{rate:.0f}" for rate in rates),
        f"host slowness by repetition (reference loop / {REFERENCE_S} s): "
        + ", ".join(f"{scale:.3f}" for scale in scales),
        f"sim_p99_ms is the {tail.describe() if tail else 'tail of too few samples'}",
    ]
    return metrics, notes


def per_layer(rep, recorder, overhead: float, plain) -> dict:
    """The per-layer metrics of a ``--trace 1`` run."""
    ops = rep.attempted
    c = rep.counters
    totals = recorder.layer_totals()

    def calls(layer: str) -> float:
        return ratio(totals[layer].calls, ops) if layer in totals else 0.0

    def self_us(layer: str) -> float:
        if layer not in totals:
            return 0.0
        return ratio(totals[layer].self_ns / 1000.0, ops)

    sector_bytes = SCALE.geometry.sector_bytes
    forces = c["commit.forces"]
    all_forces = forces + c["commit.empty_forces"]
    metrics = {
        "disk.reads_per_op": ratio(c["disk.reads"], ops),
        "disk.writes_per_op": ratio(c["disk.writes"], ops),
        "disk.sectors_written_per_op": ratio(c["disk.sectors_written"], ops),
        "disk.write_amp": ratio(c["disk.sectors_written"] * sector_bytes,
                                rep.user_bytes_written),
        "disk.seek_ms_per_op": ratio(c["disk.seek_ms"], ops),
        "disk.rotational_ms_per_op": ratio(c["disk.rotational_ms"], ops),
        "disk.busy_frac": ratio(c["disk.busy_ms"], rep.sim_elapsed_ms),
        "disk.sched.read_merged_per_op": ratio(c["sched.read_merged"], ops),
        "disk.sched.coalesced_per_op": ratio(c["sched.coalesced"], ops),
        "disk.sched.max_queue_depth": c["sched.max_queue_depth"],
        "core.cache.hit_ratio": ratio(
            c["cache.hits"], c["cache.hits"] + c["cache.misses"]),
        "core.cache.misses_per_op": ratio(c["cache.misses"], ops),
        "core.cache.evictions_per_op": ratio(c["cache.evictions"], ops),
        "core.cache.home_writes_per_op": ratio(c["cache.home_writes"], ops),
        "core.wal.pages_logged_per_op": ratio(c["wal.pages_logged"], ops),
        "core.wal.sectors_logged_per_op": ratio(c["wal.sectors_logged"], ops),
        "core.wal.third_entries": c["wal.third_entries"],
        "core.wal.stall_ms": c["wal.stall_ms"],
        "core.group_commit.forces": forces,
        "core.group_commit.batching_factor": ratio(
            c["commit.updates_absorbed"], forces),
        "core.group_commit.empty_force_frac": ratio(
            c["commit.empty_forces"], all_forces),
        "core.txn.admission_waits_per_op": ratio(c["txn.admission_waits"], ops),
        "core.txn.commit_waits_per_op": ratio(c["txn.commit_waits"], ops),
        "core.data_cache.hit_ratio": ratio(
            c["data_cache.hits"], c["data_cache.hits"] + c["data_cache.misses"]),
        "core.data_cache.readahead_accuracy": ratio(
            c["data_cache.readahead_used"], c["data_cache.readahead_issued"]),
        "core.data_cache.evictions_per_op": ratio(
            c["data_cache.evictions"], ops),
        "core.checkpoint.ticks": c["checkpoint.ticks"],
        "core.checkpoint.pages_written": c["checkpoint.pages_written"],
        "core.recovery.host_ms": plain.recovery_host_s * 1000.0,
        "core.recovery.records_replayed": rep.recovery["records_replayed"],
        "core.recovery.replay_ms": rep.recovery["replay_ms"],
        "core.recovery.vam_ms": rep.recovery["vam_ms"],
        "trace.overhead_frac": overhead,
    }
    for kind, tail in rep.kind_tails.items():
        metrics[f"core.fsd.{kind}.sim_p99_ms"] = tail.value if tail else 0.0
    for name in PER_LAYER:
        layer, _, metric = name.rpartition(".")
        if metric == "calls_per_op":
            metrics[name] = calls(layer)
        elif metric == "self_us_per_op":
            metrics[name] = self_us(layer)
    return metrics


def measure(workload, seed: int, seconds: float):
    """``--trace 0``: repetitions until ``seconds`` of host time have
    passed.  The first is checked; each later one must reproduce its
    simulated outputs, and so its final state.  The reference loop runs
    after each repetition's set-ups, never before the first repetition,
    whose peak memory must be the workload's own."""
    reps, setups, references = [], [], []
    start = time.perf_counter()
    while len(reps) < MIN_REPETITIONS or time.perf_counter() - start < seconds:
        gc.collect()
        reps.append(repetition(workload, seed, check=not reps))
        samples = [reps[-1].setup_s]
        for _ in range(EXTRA_SETUPS):
            gc.collect()
            begin = time.perf_counter()
            workload.setup(seed)
            samples.append(time.perf_counter() - begin)
        setups.append(samples)
        gc.collect()
        references.append(reference_s())
    # Repetition i and its set-ups ran between loops i - 1 and i.
    scales = [(references[max(index - 1, 0)] + reference) / 2 / REFERENCE_S
              for index, reference in enumerate(references)]
    setups = [sample / scale for samples, scale in zip(setups, scales)
              for sample in samples]
    first = reps[0]
    problems = list(first.problems)
    if any(rep.fingerprint != first.fingerprint for rep in reps):
        problems.append("simulated outputs differ between repetitions "
                        "of one seed")
    metrics, notes = end_to_end(reps, scales, setups)
    return first, metrics, notes, problems


def trace(workload, seed: int, out: Path):
    """``--trace 1``: untraced, traced, untraced; the traced run's
    simulated outputs must equal the untraced runs'."""
    reference = repetition(workload, seed)
    recorder = SpanRecorder()
    recorder.install()
    try:
        gc.collect()
        traced = repetition(workload, seed, recorder=recorder)
    finally:
        recorder.uninstall()
    gc.collect()
    plain = repetition(workload, seed, check=False)
    problems = reference.problems + traced.problems
    if not (traced.fingerprint == reference.fingerprint == plain.fingerprint):
        problems.append("tracing changed the simulated outputs")
    overhead = traced.run_s / plain.run_s - 1.0
    metrics = per_layer(traced, recorder, overhead, plain)
    recorder.write(out)
    notes = [f"spans: {len(recorder.span_name)} written to {out}",
             f"traced measured phase {traced.run_s:.3f} s, untraced "
             f"{plain.run_s:.3f} s"]
    return traced, metrics, notes, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if args.trace:
        out = SPAN_DIR / f"{args.workload}.spans"
        rep, metrics, notes, problems = trace(workload, args.seed, out)
        units = PER_LAYER
    else:
        rep, metrics, notes, problems = measure(
            workload, args.seed, args.seconds)
        units = END_TO_END
    failed_guards = [name for name, held in rep.guards.items() if not held]
    problems += [f"property guard failed: {name}" for name in failed_guards]
    for name, held in rep.guards.items():
        print(f"guard {'ok  ' if held else 'FAIL'} {name}")
    for note in notes:
        print(note)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1
