"""End-to-end benchmark of mtalk: CLI compile, watch folds and VM serving.

Run from the repository root: ``python3 perfbench/run.py --workload NAME``.
See perfbench/README.md for the workloads, metrics and the metric-to-layer map.
"""
