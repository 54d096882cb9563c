"""Shared test setup."""

import gc

import pytest

from ma_multicast import posopt


@pytest.fixture(autouse=True)
def clear_solve_cache():
    """Start every test without memoised position solves, so order cannot matter."""
    posopt.multi_start_sca.cache_clear()


@pytest.fixture(autouse=True)
def unfreeze_heap():
    """Thaw what a main() call froze, so no test hands frozen objects to the next."""
    yield
    gc.unfreeze()
