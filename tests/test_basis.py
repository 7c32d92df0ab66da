import math

import numpy as np
import pytest

from cdhom import (
    ModelParams,
    NormalizationError,
    e_basis,
    g_matrix,
    op_E,
    op_F,
    op_H,
    u_closed,
)
from cdhom.basis import g_table
from cdhom.scalars import VectorPolynomial, pochhammer


def make(lam, m, mu=None):
    return ModelParams(lam=lam, m=m, mu=mu or tuple([1.0] * (m + 1)))


def random_poly(m, degree, rng):
    return rng.standard_normal((degree + 1, m + 1)) + 1j * rng.standard_normal((degree + 1, m + 1))


def monomial(m, component, degree, coefficient=1.0):
    return VectorPolynomial.monomial(m, component, degree, coefficient).coeffs


# ------------------------------------------------------------------ operators


def test_op_e_kills_constants():
    p = make(1.2, 2)
    for j in range(3):
        out = op_E(monomial(2, j, 0))
        assert out.shape == (1, 3) and np.all(out == 0.0)


def test_op_e_monomial():
    out = op_E(monomial(1, 0, 2))
    assert np.array_equal(out, monomial(1, 0, 1, -2.0))


def test_op_e_on_first_ladder_vector():
    # u^0_1 = ((2*lam - 1) z, 1); E differentiates: (-(2*lam - 1), 0)
    for lam in (1.0, 1.75):
        p = make(lam, 1)
        got = op_E(u_closed(0, 1, p))
        expect = monomial(1, 0, 0, -(2 * lam - 1))
        assert np.max(np.abs(got - expect)) <= 1e-14


def test_op_h_monomial_eigenvalues():
    p = make(1.3, 2)
    eta = p.eta
    for j in range(3):
        for n in (0, 1, 4):
            mono = monomial(2, j, n)
            got = op_H(mono, p)
            assert np.max(np.abs(got - mono * (-(eta + j + n)))) <= 1e-13


def test_op_h_lowest_vector():
    p = make(1.0, 1)
    got = op_H(monomial(1, 0, 0), p)
    assert np.array_equal(got, monomial(1, 0, 0, -p.eta))


def test_op_h_explicit_value():
    # m=1, lam=1 (eta = 1/2): H(eps_1 z) = -2.5 eps_1 z
    p = make(1.0, 1)
    mono = monomial(1, 1, 1)
    assert np.array_equal(op_H(mono, p), mono * (-2.5))


def minus_F(f, p):
    """-F: op_F followed by an exact negation."""
    return -op_F(f, p)


def test_minus_f_zero():
    p = make(1.0, 1)
    out = minus_F(np.zeros((1, 2), dtype=complex), p)
    assert out.shape == (2, 2) and np.all(out == 0.0)


def test_minus_f_on_eps0_m1():
    for lam in (1.0, 2.25):
        p = make(lam, 1)
        got = minus_F(monomial(1, 0, 0), p)
        expect = np.array([[0.0, 1.0], [2 * lam - 1, 0.0]], dtype=complex)
        assert np.max(np.abs(got - expect)) <= 1e-14


def test_minus_f_advances_ladder_m1():
    # minus_F(u^0_1) = u^0_2 = (2 z^2, 4 z) at m=1, lam=1
    p = make(1.0, 1)
    got = minus_F(u_closed(0, 1, p), p)
    expect = np.array([[0, 0], [0, 4.0], [2.0, 0]], dtype=complex)
    assert np.max(np.abs(got - expect)) <= 1e-13
    assert np.max(np.abs(got - u_closed(0, 2, p))) <= 1e-13


# --------------------------------------------------------------- ladder/basis


def test_u_closed_base_case():
    p = make(1.5, 2)
    for j in range(3):
        assert np.array_equal(u_closed(j, 0, p), monomial(2, j, 0))


def test_u_closed_m1_n1():
    for lam in (1.0, 1.6):
        p = make(lam, 1)
        got = u_closed(0, 1, p)
        expect = np.array([[0.0, 1.0], [2 * lam - 1, 0.0]], dtype=complex)
        assert np.max(np.abs(got - expect)) <= 1e-14


def test_u_closed_m2_by_double_recursion():
    # independent oracle: apply minus_F twice to eps_1 and compare
    p = make(1.5, 2)
    stepped = minus_F(minus_F(monomial(2, 1, 0), p), p)
    closed = u_closed(1, 2, p)
    assert np.max(np.abs(stepped - closed)) <= 1e-13
    # frozen expected values from the recursion: component 1 = (2*lam)_2 z^2,
    # component 2 = C(2,1) (2)_1 (2*lam + 1)_1 z = 16 z at lam = 1.5
    expect = np.array([[0, 0, 0], [0, 0, 16.0], [0, 12.0, 0]], dtype=complex)
    assert np.max(np.abs(closed - expect)) <= 1e-13


def test_u_closed_zero_slots():
    p = make(2.0, 3)
    arr = u_closed(2, 1, p)
    assert np.all(arr[:, :2] == 0)  # components below j vanish
    # component l is a monomial of degree n - (l - j); n=1, j=2: l=3 -> degree 0
    assert arr[0, 3] != 0.0


def test_u_closed_raises_past_the_float_range():
    # u^0_2 holds (2 lam - 1)(2 lam), finite at lam = 1e150 and past the float range at lam = 1e300.
    assert np.isfinite(u_closed(0, 2, make(1e150, 1))).all()
    with pytest.raises(OverflowError, match="overflows at lam = 1e\\+300"):
        u_closed(0, 2, make(1e300, 1))


@pytest.mark.parametrize(
    "m,lam", [(1, 1.0), (1, 0.75), (2, 1.5), (2, 2.5), (3, 1.8), (4, 2.25), (4, 3.5)]
)
def test_ladder_recursion_agreement(m, lam):
    p = make(lam, m)
    for j in range(m + 1):
        current = u_closed(j, 0, p)
        for n in range(15):
            current = minus_F(current, p)
            ref = u_closed(j, n + 1, p)
            assert np.max(np.abs(current - ref)) <= 1e-10 * max(np.max(np.abs(ref)), 1.0)


def _composed_ops(p):
    """E, H, F and -F composed term by term as their formulas read, on coefficient arrays c[d, l].

    f', z^k f and a constant matrix acting on the components are built here, and so are
    rho0(h) = diag(-l), D_m = rho0(h) + (m/2) I and S_m (entry (l, l-1) = l) as matrices.
    """
    m = p.m
    rho0_h = np.diag(-np.arange(m + 1, dtype=float))
    d_m = rho0_h + (m / 2.0) * np.eye(m + 1)
    s_m = np.diag(np.arange(1.0, m + 1), -1)

    def deriv(c):
        return c[1:] * np.arange(1, c.shape[0])[:, None]  # one degree fewer: no row for a constant

    def times_z(c, k):
        return np.vstack([np.zeros((k, m + 1)), c])

    def apply_matrix(a, c):
        return c @ a.T

    def op_e(c):
        return -deriv(c) if c.shape[0] > 1 else np.zeros_like(c)

    def op_h(c):
        return apply_matrix(rho0_h - p.eta * np.eye(m + 1), c) - times_z(deriv(c), 1)

    def op_minus_f(c):
        # z (2 lam - 2 D_m) f + z^2 f' reaches one degree above f; S_m f keeps the degrees of f.
        out = times_z(2.0 * p.lam * c - 2.0 * apply_matrix(d_m, c) + times_z(deriv(c), 1), 1)
        out[:-1] += apply_matrix(s_m, c)
        return out

    return op_e, op_h, lambda c: -op_minus_f(c), op_minus_f


@pytest.mark.parametrize("m,lam", [(0, 0.75), (1, 1.0), (2, 1.6), (3, 1.8), (5, 3.5), (6, 3.7)])
def test_direct_ladder_operators_match_their_composition(m, lam):
    p = make(lam, m)
    op_e, op_h, op_f, op_minus_f = _composed_ops(p)
    rng = np.random.default_rng(20 + m)
    for degree in (0, 1, 4, 15):
        f = random_poly(m, degree, rng)
        for direct, composed in (
            (op_E(f), op_e(f)),
            (op_H(f, p), op_h(f)),
            (op_F(f, p), op_f(f)),
            (minus_F(f, p), op_minus_f(f)),
        ):
            assert direct.shape == composed.shape
            assert np.max(np.abs(direct - composed)) <= 1e-14 * max(1.0, np.max(np.abs(composed)))


@pytest.mark.parametrize("m,lam", [(0, 0.75), (2, 1.6), (6, 3.7)])
def test_operators_and_ladders_act_on_a_stack_as_on_each_polynomial(m, lam):
    # c[b, d, l] and c[a, b, d, l] give, bit for bit, the results for each c[d, l] stacked.
    p = make(lam, m)
    rng = np.random.default_rng(7 + m)
    for degree in (0, 1, 15):
        stack = np.array([random_poly(m, degree, rng) for _ in range(4)])
        for op in (op_E, lambda c: op_H(c, p), lambda c: op_F(c, p)):
            singles = np.array([op(c) for c in stack])
            assert np.array_equal(op(stack), singles)
            square = (2, 2) + stack.shape[1:]
            assert np.array_equal(op(stack.reshape(square)), singles.reshape((2, 2) + singles.shape[1:]))
    js = np.arange(m + 1)
    for n in (0, 1, 7):
        singles = np.array([u_closed(j, n, p) for j in js])
        assert np.array_equal(u_closed(js, n, p), singles)
        assert np.array_equal(u_closed(js[::-1, None], n, p), singles[::-1, None])


@pytest.mark.parametrize("m,lam", [(0, 0.75), (1, 1.0), (2, 1.6), (4, 3.5), (8, 5.0)])
def test_u_closed_equals_its_pochhammer_products(m, lam):
    # Each entry is C(n, k) (j+1)_k (2 lam - m + 2j + k)_{n-k}; the products differ in order, so by n+1 roundings.
    p = make(lam, m)
    for j in range(m + 1):
        for n in (0, 1, 2, 7, 20):
            ref = np.zeros((n + 1, m + 1))
            for k in range(min(n, m - j) + 1):
                rising = pochhammer(2.0 * lam - m + 2 * j + k, n - k)
                ref[n - k, j + k] = math.comb(n, k) * pochhammer(j + 1.0, k) * rising
            got = u_closed(j, n, p)
            assert np.array_equal(got == 0, ref == 0)
            assert np.all(np.abs(got - ref) <= 2 * (n + 1) * np.finfo(float).eps * np.abs(ref))


def test_e_basis_lowest_k_types():
    p = make(1.5, 2)
    for j in range(3):
        assert np.array_equal(e_basis(j, j, p).coeffs, monomial(2, j, 0))


def test_e_basis_m1_n1():
    p = make(1.0, 1)
    got = e_basis(0, 1, p)
    expect = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert np.max(np.abs(got.coeffs - expect)) <= 1e-14


def test_e_basis_structural_zero():
    p = make(1.5, 2)
    assert np.all(e_basis(2, 1, p).coeffs == 0.0)


def test_e_basis_entry_matches_g_matrix():
    # coefficient of z^{n-l} in component l of e^j_{n-j} equals G(n)_{l,j}
    p = make(1.0, 1)
    e = e_basis(0, 2, p)
    g2 = g_matrix(2, p)
    assert e.coeffs[1, 1] == pytest.approx(g2[1, 0])  # component 1, degree n-1
    assert g2[1, 0] == pytest.approx(2.0)
    for m, lam in ((2, 1.6), (3, 2.2)):
        p = make(lam, m)
        for n in (2, 5):
            g = g_matrix(n, p)
            for j in range(m + 1):
                e = e_basis(j, n, p)
                arr = e_basis(j, n, p).coeffs  # one zero degree when n < j
                for ell in range(m + 1):
                    coeff = arr[n - ell, ell] if 0 <= n - ell < len(arr) else 0.0
                    assert coeff == pytest.approx(g[ell, j], abs=1e-13)


def test_e_basis_degenerate_raises():
    p = ModelParams(lam=0.5, m=1, mu=(1.0, 1.0), allow_degenerate=True)
    with pytest.raises(NormalizationError):
        e_basis(0, 1, p)


def test_g_matrix_m1_values():
    p = make(1.0, 1)
    assert np.allclose(g_matrix(1, p), np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert np.allclose(g_matrix(2, p), np.array([[1.0, 0.0], [2.0, np.sqrt(3.0)]]))


def test_g_matrix_degree_zero_m2():
    p = make(1.6, 2)
    g0 = g_matrix(0, p)
    assert g0[0, 0] == 1.0
    assert np.all(g0[1:, :] == 0.0)
    assert np.all(g0[:, 1:] == 0.0)


@pytest.mark.parametrize("m,lam", [(1, 1.0), (2, 1.6), (3, 2.2)])
def test_g_matrix_triangular_positive(m, lam):
    p = make(lam, m)
    for n in range(m, 25):
        g = g_matrix(n, p)
        assert np.allclose(g, np.tril(g))
        assert np.all(np.diag(g) > 0.0)


def test_g_matrix_read_only_cache():
    p = make(1.0, 1)
    g = g_matrix(3, p)
    with pytest.raises(ValueError):
        g[0, 0] = 5.0


def test_g_matrix_owns_its_row():
    # A view would keep the whole g_table(n) alive for as long as the caller keeps G(n).
    p = make(1.6, 2)
    g = g_matrix(40, p)
    assert g.base is None and g.shape == (3, 3)
    assert np.array_equal(g, g_table(40, p)[40])


# ------------------------------------------------------- structural invariants


@pytest.mark.parametrize("m,lam", [(1, 1.0), (2, 1.4), (3, 2.0)])
def test_sl2_commutation_relations(m, lam):
    p = make(lam, m)
    rng = np.random.default_rng(42 + m)
    for _ in range(3):
        f = random_poly(m, 15, rng)
        scale = np.max(np.abs(f))
        he = op_H(op_E(f), p) - op_E(op_H(f, p))
        assert np.max(np.abs(he - op_E(f))) <= 1e-10 * scale
        hf = op_H(op_F(f, p), p) - op_F(op_H(f, p), p)
        assert np.max(np.abs(hf + op_F(f, p))) <= 1e-10 * scale
        ef = op_E(op_F(f, p)) - op_F(op_E(f), p)
        assert np.max(np.abs(ef + 2.0 * op_H(f, p))) <= 1e-10 * scale


def test_kernel_of_e_is_constants():
    p = make(1.2, 2)
    rng = np.random.default_rng(5)
    const = rng.standard_normal((1, 3)) + 0j
    assert np.all(op_E(const) == 0.0)
    f = random_poly(2, 4, rng)
    if np.max(np.abs(f[1:])) > 1e-12:
        assert np.max(np.abs(op_E(f))) > 0.0


@pytest.mark.parametrize("m,lam", [(1, 1.0), (2, 1.6)])
def test_h_eigenvalue_ladder(m, lam):
    p = make(lam, m)
    for j in range(m + 1):
        for n in range(j, j + 6):
            e = e_basis(j, n, p).coeffs
            got = op_H(e, p)
            assert np.max(np.abs(got - e * (-(p.eta + n)))) <= 1e-12 * max(np.max(np.abs(e)), 1.0)
