"""The repository benchmark: seeded workloads, correctness gate, layer tracing.

Run it from the repository root with ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; ``BENCHMARK.json`` lists the
workloads and metrics.
"""
