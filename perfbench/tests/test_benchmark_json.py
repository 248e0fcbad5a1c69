"""BENCHMARK.json describes exactly what the command prints."""

import json
from pathlib import Path

from perfbench.cli import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS

DOC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_the_command():
    assert {m["name"]: m["unit"] for m in DOC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in DOC["per_layer"]} == PER_LAYER
    assert all(m["bound"] <= 0.25 for m in DOC["end_to_end"])


def test_workloads_match_the_command():
    assert [w["name"] for w in DOC["workloads"]] == list(WORKLOADS)
