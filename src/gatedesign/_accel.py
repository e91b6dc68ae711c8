"""Provenance flag recorded by the benchmark (``bench/worker.py``): no kernel
is compiled, the package runs as plain Python/numpy."""
NUMBA_ENABLED = False
