"""Shared test setup."""

import gc
import signal

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


@pytest.fixture(autouse=True)
def fail_a_test_past_60_s():
    """Turn a test that hangs, such as a sweep listing 1e15 points, into a failure after 60 s."""

    def hang(_signum, _frame):
        raise TimeoutError("test ran past 60 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
