"""Capture bit-identity fingerprints for the four canonical scenarios.

Usage: PYTHONPATH=src python tools/capture_fingerprints.py [out.json]

Run before and after a speed refactor; the two JSON documents must be
byte-identical (the contract harness/fingerprint.py encodes).

The committed golden copy, which the tier-1 test
``tests/harness/test_golden_fingerprints.py`` compares against, is
regenerated only with

    PYTHONPATH=src python tools/capture_fingerprints.py tests/golden/fingerprints.json

and only for a change that is meant to move simulated behaviour; each
regeneration is logged with its reason in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

from repro.core.fsd import FSD
from repro.disk.disk import SimDisk
from repro.harness.fingerprint import fingerprint, makedo_fingerprint
from repro.harness.scenarios import FULL
from repro.obs import Observer
from repro.workloads.chaos import run_chaos
from repro.workloads.traffic import TrafficConfig, TrafficEngine


def traffic_fingerprint(clients: int = 1000, ops_per_client: int = 2) -> dict:
    disk = SimDisk(geometry=FULL.geometry)
    FSD.format(disk, FULL.fsd_params)
    obs = Observer(disk.clock)
    fs = FSD.mount(disk, obs=obs)
    config = TrafficConfig(
        clients=clients,
        ops_per_client=ops_per_client,
        seed=1987,
        arrival="poisson",
        mean_think_ms=200.0,
        hold_ms=1.0,
        sync_fraction=0.1,
        population=40,
        shared_fraction=0.5,
    )
    report = TrafficEngine(fs, config).run()
    fs.unmount()
    doc = fingerprint(disk, obs).as_dict()
    doc["report_elapsed_ms"] = report.elapsed_ms
    doc["report_batching"] = report.batching_factor
    return doc


def traffic_cached_fingerprint() -> dict:
    """The read-hot shape at a quarter of its length: four clients
    re-reading 70 small shared files in 2 KiB chunks through a 512-page
    data cache with read-ahead, scan scheduling and checkpoints.  The
    only golden scenario that mounts the data cache; it evicts, and it
    issues and uses read-ahead."""
    disk = SimDisk(geometry=FULL.geometry)
    FSD.format(disk, FULL.fsd_params)
    obs = Observer(disk.clock)
    fs = FSD.mount(
        disk,
        obs=obs,
        sched="scan",
        data_cache_pages=512,
        readahead_pages=16,
        checkpoint_interval_ms=500.0,
    )
    config = TrafficConfig(
        clients=4,
        ops_per_client=1500,
        seed=1987,
        population=70,
        max_file_bytes=8192,
        read_chunk_bytes=2048,
        shared_fraction=0.9,
        weights={"create": 0.0, "write": 0.10, "read": 0.85,
                 "delete": 0.0, "list": 0.05},
    )
    report = TrafficEngine(fs, config).run()
    data = fs.data_cache
    cache = {
        "hits": data.hits,
        "misses": data.misses,
        "evictions": data.evictions,
        "readahead_issued": data.readahead_issued,
        "readahead_used": data.readahead_used,
    }
    fs.unmount()
    doc = fingerprint(disk, obs).as_dict()
    doc["report_elapsed_ms"] = report.elapsed_ms
    doc["data_cache"] = cache
    return doc


def render() -> str:
    """The fingerprint document, exactly as written to disk."""
    doc = {
        "makedo": makedo_fingerprint().as_dict(),
        "traffic_1000": traffic_fingerprint(),
        "chaos_default": run_chaos().as_dict(),
        "traffic_cached": traffic_cached_fingerprint(),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def main() -> None:
    out = sys.argv[1] if len(sys.argv) > 1 else "fingerprints.json"
    text = render()
    with open(out, "w") as fh:
        fh.write(text)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
