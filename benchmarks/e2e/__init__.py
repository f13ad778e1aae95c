"""End-to-end figure-regeneration benchmark (see README.md in this directory).

Run it through ``BENCHMARK.json``'s command or, for the full ledger,
``PYTHONPATH=src python -m benchmarks.e2e --seed 42``.
"""
