"""Shared helpers of the test modules."""

import math
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


def g_reference(mp, n: int, lam, m: int):
    """G(n) from the normalized ladder closed form, in mpmath arithmetic.

    Entry (j + k, j) is C(N, k) (j+1)_k (2 lam_j + k)_{N-k} / sqrt((2 lam_j)_N N!)
    with N = n - j.  The rising factorials are explicit products, since mp.rf
    loses its argument past about 1e300; (2 lam_j + k)_{N-k} is read as
    (2 lam_j)_N / (2 lam_j)_k, so each column costs one product of length N.
    """
    out = mp.zeros(m + 1, m + 1)
    for j in range(min(n, m) + 1):
        big_n, two_lj = n - j, 2 * mp.mpf(lam) - m + 2 * j
        full = mp.fprod(two_lj + i for i in range(big_n))  # (2 lam_j)_N
        norm = mp.sqrt(full * mp.factorial(big_n))
        head, low = mp.mpf(1), mp.mpf(1)  # (j+1)_k and (2 lam_j)_k
        for k in range(min(big_n, m - j) + 1):
            out[j + k, j] = math.comb(big_n, k) * head * (full / low) / norm
            head *= j + 1 + k
            low *= two_lj + k
    return out
