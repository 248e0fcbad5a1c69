"""Golden fingerprints: simulated behaviour is bit-identical to the
committed reference.

``tests/golden/fingerprints.json`` holds the makedo, traffic@1000,
default-chaos and cached-traffic fingerprints (simulated clock, disk
image digest, metrics digest, disk statistics).  A change that claims to leave simulated
behaviour alone must reproduce it byte for byte.  The only way to
regenerate it is

    PYTHONPATH=src python tools/capture_fingerprints.py tests/golden/fingerprints.json

and every regeneration is logged with its reason in CHANGES.md.
"""

from __future__ import annotations

import difflib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "golden" / "fingerprints.json"


def _capture_tool():
    path = ROOT / "tools" / "capture_fingerprints.py"
    spec = importlib.util.spec_from_file_location("capture_fingerprints", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fingerprints_match_golden():
    fresh = _capture_tool().render()
    golden = GOLDEN.read_text()
    if fresh != golden:
        diff = "".join(
            difflib.unified_diff(
                golden.splitlines(keepends=True),
                fresh.splitlines(keepends=True),
                "golden",
                "fresh",
                n=2,
            )
        )
        raise AssertionError(f"fingerprints moved:\n{diff[:4000]}")
