"""Seeded end-to-end benchmark: five workloads, host and simulated clocks.

See README.md in this directory; ``run.py`` runs one workload and
``python -m benchmarks.e2e`` runs them all.
"""
