"""Seeded multi-fault soak campaigns: a one-client chaos preset.

The crash-point explorer (:mod:`repro.crashcheck.engine`) is
exhaustive over *where* a single crash lands.  A soak campaign is the
complementary axis: ``runs`` independent, seeded campaigns of the
chaos engine (:mod:`repro.workloads.chaos`), each one client doing a
serial create/delete/force mix on the crashcheck scale while media
faults **beyond the paper's single-fault model** land between its
ops — permanent 1–2-sector damage, transient and latent read
failures, wild writes into the name table and leaders, both copies of
a name-table page — and crashes fire mid-I/O.

Every run is judged by :class:`~repro.crashcheck.oracles.CampaignOracle`
and must end ``recovered``, ``degraded`` or ``salvaged`` with no
silent corruption.  Runs are deterministic, so a campaign is a
reproducible regression artifact (``python -m repro soak --json``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

from repro.crashcheck.scenarios import CRASH_SCALE
from repro.workloads.chaos import ChaosConfig, run_chaos
from repro.workloads.traffic import TrafficConfig

#: one run: 30 serial ops, 55% creates and 20% deletes; a quarter of
#: the mutations wait for their group commit.
TRAFFIC = TrafficConfig(
    clients=1,
    ops_per_client=30,
    mean_think_ms=50.0,
    population=0,
    sync_fraction=0.25,
    max_file_bytes=2_000,
    settle=False,
    weights={"create": 0.55, "delete": 0.20, "write": 0.0, "read": 0.0,
             "list": 0.0},
    max_retries=2,
)
#: 18 faults 80 simulated ms apart (spread over the whole run), with
#: a crash armed 1–5 I/Os out after every second fault: ~216 faults and
#: ~36 mid-I/O crash/remount cycles per 12-run campaign.
CHAOS = ChaosConfig(
    faults=18, fault_interval_ms=80.0, crash_cycles=8, crash_io_window=6
)


def run_campaign(seed: int = 1987, runs: int = 12) -> dict:
    """A whole campaign as a JSON-ready document; deterministic for a
    given ``(seed, runs)``.  Run *i* is a chaos campaign seeded
    ``seed * 100_003 + i`` on the crashcheck scale."""
    results = [
        run_chaos(
            replace(TRAFFIC, seed=seed * 100_003 + index),
            CHAOS,
            geometry=CRASH_SCALE.geometry,
            params=CRASH_SCALE.fsd_params,
        ).as_dict()
        for index in range(runs)
    ]
    verdicts = Counter(result["verdict"] for result in results)
    silent = [
        f"run {index}: {finding}"
        for index, result in enumerate(results)
        for finding in result["silent_corruptions"]
    ]
    return {
        "seed": seed,
        "runs": runs,
        "faults_injected": sum(r["faults_injected"] for r in results),
        "verdicts": dict(sorted(verdicts.items())),
        "silent_corruptions": silent,
        "ok": all(result["ok"] for result in results),
        "results": results,
    }
