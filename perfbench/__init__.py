"""The repository benchmark: ``cake_matmul`` and the remote fleet against ``a @ b``.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a source checkout and prints, as its
last line, one JSON object with the end-to-end metrics (``--trace 0``)
or the per-layer metrics (``--trace 1``). ``BENCHMARK.json`` at the root
lists the workloads and metrics; ``perfbench/README.md`` describes them.
"""
