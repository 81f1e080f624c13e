"""End-to-end and per-layer benchmark of the layerr CLI presets.

Run ``python3 perfbench/run.py --workload <name>`` from the repository root;
see ``perfbench/README.md`` for the workloads and metrics.
"""
