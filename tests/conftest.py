"""Shared fixtures of the test suite."""
import sys

import pytest


@pytest.fixture(scope="module", autouse=True)
def _cold_symmetric_caches():
    """Clear the two caches of the symmetric master bound after each module,
    the per-(label, delta) entries and the per-label gamma rows, so no later
    module (such as bench/test_bench.py, which counts the Bessel calls of a
    traced pass) starts warm."""
    yield
    bounds = sys.modules.get("gatedesign.bounds")
    if bounds is not None:
        bounds._sym_cache.clear()
        bounds.repcore._signed_gamma_row.cache_clear()
