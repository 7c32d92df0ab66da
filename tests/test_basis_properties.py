"""Property tests of the batched basis evaluation `basis_values` and of the coefficient table behind it."""

import cmath
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cdhom import ModelParams, e_basis, g_matrix, kernel_series, shift_block  # noqa: E402
from cdhom.basis import basis_values, g_table  # noqa: E402
from helpers import g_reference  # noqa: E402

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
    # column j of B_n(z) is mu_j e^j_{n-j}(z), evaluated as a polynomial
    ladder = np.array([p.mu[j] * e_basis(j, n, p)(z) for j in range(m + 1)]).T
    assert np.max(np.abs(blocks[n] - ladder)) <= TOL * scale


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(cases(), st.floats(0.0, 0.6), st.floats(0.0, 2.0 * np.pi))
def test_series_values_properties(case, w_radius, w_angle):
    p, z, n = case
    m = p.m
    w = cmath.rect(w_radius, w_angle)
    vals = basis_values([z, w], np.arange((n + 1) * (m + 1)), p)
    assert vals.shape == (2, m + 1, (n + 1) * (m + 1))
    by_degree = vals.reshape(2, m + 1, n + 1, m + 1)  # [s, l, deg, j]
    for deg in range(min(n, m) + 1):
        assert np.all(by_degree[:, :, deg, deg + 1:] == 0.0)  # slots with j > deg are exactly zero
    k_zw = kernel_series(z, w, p, n)
    scale = max(1.0, float(np.max(np.abs(k_zw))))
    # the series is the sum over all slots of b(z) b(w)^*
    assert np.max(np.abs(k_zw - vals[0] @ vals[1].conj().T)) <= TOL * scale
    assert np.max(np.abs(k_zw - kernel_series(w, z, p, n).conj().T)) <= TOL * scale


def _max_relative_error(mp, got, ref):
    worst = 0.0
    for ell in range(ref.rows):
        for j in range(ref.cols):
            if ref[ell, j] == 0:
                assert got[ell, j] == 0.0, (ell, j)
            else:
                worst = max(worst, float(abs((got[ell, j] - ref[ell, j]) / ref[ell, j])))
    return worst


@pytest.mark.parametrize("lam,m", [(1.0, 1), (1.6, 2), (3.5, 5), (3.7, 6), (5.0, 8)])
def test_g_matrix_matches_mpmath(lam, m):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    p = ModelParams(lam=lam, m=m, mu=(1.0,) * (m + 1))
    for n in range(61):
        assert _max_relative_error(mp, g_matrix(n, p), g_reference(mp, n, lam, m)) <= 1e-13, n


def test_g_matrix_at_huge_lambda():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    p = ModelParams(lam=1e300, m=1, mu=(1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # entries past the float range stay silent inside the table
        for n in range(3):
            assert _max_relative_error(mp, g_matrix(n, p), g_reference(mp, n, 1e300, 1)) <= 1e-13, n
        assert g_matrix(2, p)[0, 0] == pytest.approx(2.0**0.5 * 1e300, rel=1e-13)
        with pytest.raises(OverflowError):
            g_matrix(3, p)  # G(3)[0, 0] = sqrt((2 lam - 1)_3 / 3!) is about 1e450


def test_g_table_rows_do_not_depend_on_its_length():
    p = ModelParams(lam=3.7, m=6, mu=(1.0,) * 7)
    table = g_table(120, p)
    for n in (0, 5, 40, 119, 120):
        assert np.array_equal(table[n], g_matrix(n, p))
        assert np.array_equal(g_table(n, p), table[: n + 1])


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
