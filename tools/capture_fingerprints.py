"""Capture bit-identity fingerprints for the three canonical scenarios.

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


def render() -> str:
    """The fingerprint document, exactly as written to disk."""
    doc = {
        "makedo": makedo_fingerprint().as_dict(),
        "traffic_1000": traffic_fingerprint(),
        "chaos_default": run_chaos().as_dict(),
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
