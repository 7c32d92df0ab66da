"""Property tests of the batched basis evaluations `basis_values` and `ladder_values`."""

import cmath

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cdhom import ModelParams, e_basis, kernel_series, shift_block  # noqa: E402
from cdhom.basis import basis_values, ladder_values  # noqa: E402

TOL = 1e-12


@st.composite
def cases(draw):
    m = draw(st.integers(0, 4))
    excess = draw(st.floats(0.2, 3.0))  # 2*lam - m
    mu = tuple(draw(st.floats(0.5, 2.0)) for _ in range(m + 1))
    z = cmath.rect(draw(st.floats(0.0, 0.6)), draw(st.floats(0.0, 2.0 * np.pi)))
    n = draw(st.integers(0, 25))
    return ModelParams(lam=(m + excess) / 2.0, m=m, mu=mu), z, n


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(cases())
def test_basis_values_properties(case):
    p, z, n = case
    m = p.m
    vals = basis_values([z], np.arange((n + 2) * (m + 1)), p)
    assert vals.shape == (1, m + 1, (n + 2) * (m + 1))
    blocks = vals[0].reshape(m + 1, n + 2, m + 1).transpose(1, 0, 2)  # blocks[k] = B_k(z)
    for k in range(min(n + 2, m + 1)):
        assert np.all(blocks[k][:, k + 1:] == 0.0)  # slots with j > k are exactly zero
    scale = max(1.0, float(np.max(np.abs(blocks[n:]))))
    # column action of the multiplication operator: z B_n(z) = B_{n+1}(z) W(n)
    assert np.max(np.abs(z * blocks[n] - blocks[n + 1] @ shift_block(n, p))) <= TOL * scale
    # the independent ladder path: column j of B_n(z) is mu_j e^j_{n-j}(z)
    ladder = np.array([p.mu[j] * e_basis(j, n, p)(z) for j in range(m + 1)]).T
    assert np.max(np.abs(blocks[n] - ladder)) <= TOL * scale


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(cases(), st.floats(0.0, 0.6), st.floats(0.0, 2.0 * np.pi))
def test_ladder_values_properties(case, w_radius, w_angle):
    p, z, n = case
    m = p.m
    w = cmath.rect(w_radius, w_angle)
    vals = ladder_values([z, w], n, p)
    assert vals.shape == (2, n + 1, m + 1, m + 1)
    scale = max(1.0, float(np.max(np.abs(vals))))
    for deg in range(n + 1):
        # [s, deg, l, j] is component l of mu_j e^j_{deg-j} at the s-th point
        ladder = np.array([p.mu[j] * e_basis(j, deg, p)(z) for j in range(m + 1)]).T
        assert np.max(np.abs(vals[0, deg] - ladder)) <= TOL * scale
    k_zw = kernel_series(z, w, p, n)
    assert np.max(np.abs(k_zw - kernel_series(w, z, p, n).conj().T)) <= TOL * max(1.0, float(np.max(np.abs(k_zw))))


@pytest.mark.parametrize("lam,m", [(1.6, 2), (3.7, 6)])
@pytest.mark.parametrize("n", [150, 300, 400])
def test_e_basis_matches_mpmath_at_high_degree(lam, m, n):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    p = ModelParams(lam=lam, m=m, mu=(1.0,) * (m + 1))
    for j in range(m + 1):
        coeffs = e_basis(j, n, p).coeffs
        big_n, two_lj = n - j, 2 * mp.mpf(lam) - m + 2 * j
        norm = mp.sqrt(mp.rf(two_lj, big_n) * mp.factorial(big_n))
        for k in range(m - j + 1):
            # u^j_N has the single coefficient C(N,k) (j+1)_k (2*lam_j + k)_{N-k} at z^(N-k), component j+k
            ref = mp.binomial(big_n, k) * mp.rf(j + 1, k) * mp.rf(two_lj + k, big_n - k) / norm
            assert abs(coeffs[big_n - k, j + k] - float(ref)) <= 1e-12 * abs(float(ref)), (j, k)
