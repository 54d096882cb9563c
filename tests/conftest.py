"""Shared test setup."""

import pytest

from ma_multicast import posopt


@pytest.fixture(autouse=True)
def clear_solve_cache():
    """Start every test without memoised position solves, so order cannot matter."""
    posopt._solve_positions.cache_clear()
