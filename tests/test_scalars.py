import cmath
import math

import numpy as np
import pytest

from cdhom import ModelParams, ZeroBaseError, u_closed
from cdhom.scalars import VectorPolynomial, cpow_principal, pochhammer


def test_pochhammer_empty_product():
    for x in (-3.0, -0.5, 0.0, 0.7, 2.0, 11.25):
        assert pochhammer(x, 0) == 1.0


def test_pochhammer_factorial():
    assert pochhammer(1.0, 4) == 24.0


def test_pochhammer_sigma_product():
    # (2)_2 (1)_2 must equal the brute-force product of (2*lam_j + k - 1)*k
    # for k = 1, 2 with lam_j = 1.
    assert pochhammer(2.0, 2) == 6.0
    brute = math.prod((2.0 * 1.0 + k - 1.0) * k for k in (1, 2))
    assert brute == pochhammer(2.0, 2) * pochhammer(1.0, 2) == 12.0


@pytest.mark.parametrize("x", [-2.5, -1.0, 0.3, 1.0, 4.75])
def test_pochhammer_recurrence(x):
    for n in range(51):
        assert pochhammer(x, n + 1) == pytest.approx(pochhammer(x, n) * (x + n), rel=1e-14, abs=1e-300)


def test_cpow_one_base():
    for eta in (-2.0, -0.5, 0.0, 0.31, 7.0):
        assert cpow_principal(1.0, eta) == 1.0


def test_cpow_sqrt():
    assert cpow_principal(4.0, 0.5) == pytest.approx(2.0, abs=1e-15)


def test_cpow_unit_circle():
    got = cpow_principal(cmath.exp(0.25j * cmath.pi), 2.0)
    assert got == pytest.approx(1j, abs=1e-15)
    assert abs(got) == pytest.approx(1.0, abs=1e-15)


def test_cpow_zero_base_raises():
    with pytest.raises(ZeroBaseError):
        cpow_principal(0.0, 0.5)


def test_cpow_additive_right_half_plane():
    rng = np.random.default_rng(7)
    for _ in range(50):
        b = complex(rng.uniform(0.05, 3.0), rng.uniform(-3.0, 3.0))
        s, t = rng.uniform(-2.0, 2.0, size=2)
        lhs = cpow_principal(b, s) * cpow_principal(b, t)
        assert lhs == pytest.approx(cpow_principal(b, s + t), rel=1e-12)


def test_poly_eval_constant_unit_vectors():
    for m in (0, 1, 3):
        for j in range(m + 1):
            p = VectorPolynomial.monomial(m, j, 0)
            got = p(0.3 - 0.4j)
            expect = np.zeros(m + 1)
            expect[j] = 1.0
            assert np.array_equal(got, expect)


def test_poly_eval_component_powers_at_zero():
    # component l holds z^l: at z = 0 only component 0 survives
    m = 3
    coeffs = np.zeros((m + 1, m + 1), dtype=complex)
    for ell in range(m + 1):
        coeffs[ell, ell] = 1.0
    got = VectorPolynomial(coeffs)(0.0)
    assert np.array_equal(got, np.array([1.0, 0.0, 0.0, 0.0]))


def test_poly_eval_ladder_vector():
    # u^0_1 for m=1, lam=1 is ((2*lam - 1) z, 1) = (z, 1)
    p = ModelParams(lam=1.0, m=1, mu=(1.0, 1.0))
    got = VectorPolynomial(u_closed(0, 1, p))(0.5)
    assert got == pytest.approx(np.array([0.5, 1.0]))


def test_polynomial_trims_trailing_zeros():
    arr = np.zeros((5, 2), dtype=complex)
    arr[1, 0] = 2.0
    p = VectorPolynomial(arr)
    assert p.degree == 1
    assert p.m == 1


def test_polynomial_rejects_nonfinite():
    arr = np.zeros((2, 2))
    arr[0, 0] = np.nan
    with pytest.raises(ValueError):
        VectorPolynomial(arr)

