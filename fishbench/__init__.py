"""End-to-end and per-layer benchmark of the fishdbc engine.

Entry point: ``python3 fishbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``, run from the repository root. See
``fishbench/README.md`` for the workloads, metrics and layer predictions.
"""
