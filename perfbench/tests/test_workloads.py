"""Property guards, correctness checks and tracing neutrality, on tiny
versions of the workloads (and the full ones on a held-out seed)."""

from dataclasses import replace

import pytest

from perfbench.tracing import SpanRecorder
from perfbench.workloads import ONE_CLIENT, WORKLOADS, repetition

HELD_OUT_SEED = 1987


def tiny(name: str, **config):
    workload = WORKLOADS[name]
    if name == "makedo":
        return replace(workload, modules=12, **config)
    merged = {**dict(workload.config), **config}
    return replace(workload, config=tuple(merged.items()))


def test_tiny_makedo_reads_back_and_repeats_exactly():
    workload = tiny("makedo")
    first = repetition(workload, seed=3)
    again = repetition(workload, seed=3)
    assert first.problems == [] and first.guards == {ONE_CLIENT: True}
    assert first.failed == 0 and first.attempted > 12 * 20
    assert first.fingerprint == again.fingerprint
    assert repetition(workload, seed=4).fingerprint != first.fingerprint


def test_spill_guard_fails_when_the_namespace_fits_the_cache():
    rep = repetition(tiny("traffic-spill", clients=40), seed=5)
    assert rep.problems == []
    assert rep.failed == 0
    assert list(rep.guards.values()) == [False]


def test_read_hot_guards_track_the_population():
    small = repetition(tiny("read-hot", ops_per_client=40, population=8),
                       seed=5)
    assert small.problems == []
    held = dict(small.guards)
    # 8 files fit the NT cache but not a 512-sector data working set.
    assert [held[k] for k in held if k.startswith("NT")] == [True]
    assert [held[k] for k in held if k.startswith("data")] == [False]


def test_tracing_leaves_simulated_outputs_unchanged():
    workload = tiny("traffic-spill", clients=30)
    plain = repetition(workload, seed=9)
    recorder = SpanRecorder()
    recorder.install()
    try:
        traced = repetition(workload, seed=9, recorder=recorder)
    finally:
        recorder.uninstall()
    assert traced.fingerprint == plain.fingerprint
    totals = recorder.layer_totals()
    assert totals["core.fsd"].calls > 0 and totals["disk"].calls > 0
    assert set(recorder.span_op) != {0}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_full_workloads_hold_their_guards_on_a_held_out_seed(name):
    rep = repetition(WORKLOADS[name], seed=HELD_OUT_SEED)
    assert rep.problems == []
    assert rep.guards and all(rep.guards.values()), rep.guards
