"""Shared fixtures of the test suite."""
import functools
import sys

import pytest


@pytest.fixture(scope="module", autouse=True)
def _cold_symmetric_caches():
    """Clear the two memos of the symmetric master bound after each module,
    the per-label entries of the last delta (bounds._sym_table) and the
    per-label gamma rows (repcore._gamma_row), so no later module (such as
    bench/test_bench.py, which counts the Bessel calls of a traced pass)
    starts warm."""
    yield
    bounds = sys.modules.get("gatedesign.bounds")
    if bounds is not None:
        bounds._sym_table.cache_clear()
        bounds.repcore._gamma_row.cache_clear()


@pytest.fixture
def gamma_row_builds(monkeypatch):
    """The labels whose gamma rows get built, in build order: a cold copy of
    the memo repcore._gamma_row stands in for it and records each miss."""
    from gatedesign import repcore

    built = []
    build = repcore._gamma_row.__wrapped__
    memo = functools.lru_cache(maxsize=None)(lambda ent: built.append(ent) or build(ent))
    monkeypatch.setattr(repcore, "_gamma_row", memo)
    return built
