"""Property tests of the batched basis evaluation `basis_values`."""

import cmath

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cdhom import ModelParams, e_basis, shift_block  # noqa: E402
from cdhom.basis import basis_values  # noqa: E402

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
