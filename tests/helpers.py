"""Shared helpers of the test modules."""

import tracemalloc

import numpy as np


def active_slots(m: int, max_degree: int) -> np.ndarray:
    """Flat indices i = n*(m+1) + j of the slots with j <= n <= max_degree, in increasing order.

    The slots with j > n hold structurally zero vectors and are left out.
    """
    return np.array([n * (m + 1) + j for n in range(max_degree + 1) for j in range(min(n, m) + 1)], dtype=int)


def traced_peak(fn, *args) -> int:
    """Peak bytes traced by tracemalloc during fn(*args), after one untraced warm-up call."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
