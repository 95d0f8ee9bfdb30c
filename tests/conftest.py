"""Fixtures shared by the test modules."""

import tracemalloc

import pytest
from hypothesis import settings

# a failing property prints the @reproduce_failure blob that replays it
settings.register_profile("phaselock", print_blob=True)
settings.load_profile("phaselock")


def _traced_peak(fn, *args, **kwargs):
    """Call ``fn(*args, **kwargs)`` with tracemalloc on; return its result
    and the peak traced memory in bytes, counted from the call's start."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args, **kwargs) -> (result, peak_bytes)``."""
    return _traced_peak
