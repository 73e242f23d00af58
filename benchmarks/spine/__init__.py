"""The benchmark spine: end-to-end and per-layer numbers for the whole flow.

Run ``PYTHONPATH=src python -m benchmarks.spine`` for all six workloads, or
``python3 benchmarks/spine/run.py --workload NAME --seed N --seconds S
--trace 0|1`` for one (the form ``BENCHMARK.json`` names).  See README.md.
"""
