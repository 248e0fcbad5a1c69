"""The repository's benchmark: three seeded FSD workloads, end-to-end
host and simulated metrics, and an outside-in per-layer span trace.

Run it from the repository root as ``python3 perfbench/run.py``; see
``perfbench/README.md``.
"""
