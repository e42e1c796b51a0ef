"""Benchmark of the gibbslab package: four workloads, checked outputs, a traced run.

Run one workload with ``python3 -m gibbsbench --workload <name> --seed <n>``
from the repository root; see ``README.md`` in this directory.
"""
