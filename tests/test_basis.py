import numpy as np
import pytest

from cdhom import (
    ModelParams,
    NormalizationError,
    TriangularRep,
    e_basis,
    g_matrix,
    minus_F,
    op_E,
    op_F,
    op_H,
    u_closed,
)
from cdhom.basis import g_table
from cdhom.scalars import VectorPolynomial, poly_distance


def make(lam, m, mu=None):
    p = ModelParams(lam=lam, m=m, mu=mu or tuple([1.0] * (m + 1)))
    return p, TriangularRep.from_params(p)


def random_poly(m, degree, rng):
    return VectorPolynomial(
        rng.standard_normal((degree + 1, m + 1)) + 1j * rng.standard_normal((degree + 1, m + 1))
    )


# ------------------------------------------------------------------ operators


def test_op_e_kills_constants():
    p, rep = make(1.2, 2)
    for j in range(3):
        out = op_E(VectorPolynomial.monomial(2, j, 0))
        assert out.max_abs() == 0.0


def test_op_e_monomial():
    out = op_E(VectorPolynomial.monomial(1, 0, 2))
    assert poly_distance(out, VectorPolynomial.monomial(1, 0, 1, -2.0)) == 0.0


def test_op_e_on_first_ladder_vector():
    # u^0_1 = ((2*lam - 1) z, 1); E differentiates: (-(2*lam - 1), 0)
    for lam in (1.0, 1.75):
        p, rep = make(lam, 1)
        got = op_E(u_closed(0, 1, p))
        expect = VectorPolynomial.monomial(1, 0, 0, -(2 * lam - 1))
        assert poly_distance(got, expect) <= 1e-14


def test_op_h_monomial_eigenvalues():
    p, rep = make(1.3, 2)
    eta = p.eta
    for j in range(3):
        for n in (0, 1, 4):
            mono = VectorPolynomial.monomial(2, j, n)
            got = op_H(mono, p, rep)
            assert poly_distance(got, mono * (-(eta + j + n))) <= 1e-13


def test_op_h_lowest_vector():
    p, rep = make(1.0, 1)
    got = op_H(VectorPolynomial.monomial(1, 0, 0), p, rep)
    assert poly_distance(got, VectorPolynomial.monomial(1, 0, 0, -p.eta)) == 0.0


def test_op_h_explicit_value():
    # m=1, lam=1 (eta = 1/2): H(eps_1 z) = -2.5 eps_1 z
    p, rep = make(1.0, 1)
    mono = VectorPolynomial.monomial(1, 1, 1)
    assert poly_distance(op_H(mono, p, rep), mono * (-2.5)) == 0.0


def test_minus_f_zero():
    p, rep = make(1.0, 1)
    assert minus_F(VectorPolynomial.zero(1), p, rep).max_abs() == 0.0


def test_minus_f_on_eps0_m1():
    for lam in (1.0, 2.25):
        p, rep = make(lam, 1)
        got = minus_F(VectorPolynomial.monomial(1, 0, 0), p, rep)
        expect = VectorPolynomial(np.array([[0.0, 1.0], [2 * lam - 1, 0.0]], dtype=complex))
        assert poly_distance(got, expect) <= 1e-14


def test_minus_f_advances_ladder_m1():
    # minus_F(u^0_1) = u^0_2 = (2 z^2, 4 z) at m=1, lam=1
    p, rep = make(1.0, 1)
    got = minus_F(u_closed(0, 1, p), p, rep)
    expect = VectorPolynomial(np.array([[0, 0], [0, 4.0], [2.0, 0]], dtype=complex))
    assert poly_distance(got, expect) <= 1e-13
    assert poly_distance(got, u_closed(0, 2, p)) <= 1e-13


# --------------------------------------------------------------- ladder/basis


def test_u_closed_base_case():
    p, _ = make(1.5, 2)
    for j in range(3):
        assert poly_distance(u_closed(j, 0, p), VectorPolynomial.monomial(2, j, 0)) == 0.0


def test_u_closed_m1_n1():
    for lam in (1.0, 1.6):
        p, _ = make(lam, 1)
        got = u_closed(0, 1, p)
        expect = VectorPolynomial(np.array([[0.0, 1.0], [2 * lam - 1, 0.0]], dtype=complex))
        assert poly_distance(got, expect) <= 1e-14


def test_u_closed_m2_by_double_recursion():
    # independent oracle: apply minus_F twice to eps_1 and compare
    p, rep = make(1.5, 2)
    stepped = minus_F(minus_F(VectorPolynomial.monomial(2, 1, 0), p, rep), p, rep)
    closed = u_closed(1, 2, p)
    assert poly_distance(stepped, closed) <= 1e-13
    # frozen expected values from the recursion: component 1 = (2*lam)_2 z^2,
    # component 2 = C(2,1) (2)_1 (2*lam + 1)_1 z = 16 z at lam = 1.5
    expect = VectorPolynomial(np.array([[0, 0, 0], [0, 0, 16.0], [0, 12.0, 0]], dtype=complex))
    assert poly_distance(closed, expect) <= 1e-13


def test_u_closed_zero_slots():
    p, _ = make(2.0, 3)
    u = u_closed(2, 1, p)
    arr = u.padded(1)
    assert np.all(arr[:, :2] == 0)  # components below j vanish
    # component l is a monomial of degree n - (l - j); n=1, j=2: l=3 -> degree 0
    assert arr[0, 3] != 0.0


@pytest.mark.parametrize(
    "m,lam", [(1, 1.0), (1, 0.75), (2, 1.5), (2, 2.5), (3, 1.8), (4, 2.25), (4, 3.5)]
)
def test_ladder_recursion_agreement(m, lam):
    p, rep = make(lam, m)
    for j in range(m + 1):
        current = u_closed(j, 0, p)
        for n in range(15):
            current = minus_F(current, p, rep)
            ref = u_closed(j, n + 1, p)
            assert poly_distance(current, ref) <= 1e-10 * max(ref.max_abs(), 1.0)


def test_e_basis_lowest_k_types():
    p, _ = make(1.5, 2)
    for j in range(3):
        assert poly_distance(e_basis(j, j, p), VectorPolynomial.monomial(2, j, 0)) == 0.0


def test_e_basis_m1_n1():
    p, _ = make(1.0, 1)
    got = e_basis(0, 1, p)
    expect = VectorPolynomial(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert poly_distance(got, expect) <= 1e-14


def test_e_basis_structural_zero():
    p, _ = make(1.5, 2)
    assert e_basis(2, 1, p).max_abs() == 0.0


def test_e_basis_entry_matches_g_matrix():
    # coefficient of z^{n-l} in component l of e^j_{n-j} equals G(n)_{l,j}
    p, _ = make(1.0, 1)
    e = e_basis(0, 2, p)
    g2 = g_matrix(2, p)
    assert e.coeffs[1, 1] == pytest.approx(g2[1, 0])  # component 1, degree n-1
    assert g2[1, 0] == pytest.approx(2.0)
    for m, lam in ((2, 1.6), (3, 2.2)):
        p, _ = make(lam, m)
        for n in (2, 5):
            g = g_matrix(n, p)
            for j in range(m + 1):
                e = e_basis(j, n, p)
                arr = e.padded(n)
                for ell in range(m + 1):
                    coeff = arr[n - ell, ell] if n - ell >= 0 else 0.0
                    assert coeff == pytest.approx(g[ell, j], abs=1e-13)


def test_e_basis_degenerate_raises():
    p = ModelParams(lam=0.5, m=1, mu=(1.0, 1.0), allow_degenerate=True)
    with pytest.raises(NormalizationError):
        e_basis(0, 1, p)


def test_g_matrix_m1_values():
    p, _ = make(1.0, 1)
    assert np.allclose(g_matrix(1, p), np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert np.allclose(g_matrix(2, p), np.array([[1.0, 0.0], [2.0, np.sqrt(3.0)]]))


def test_g_matrix_degree_zero_m2():
    p, _ = make(1.6, 2)
    g0 = g_matrix(0, p)
    assert g0[0, 0] == 1.0
    assert np.all(g0[1:, :] == 0.0)
    assert np.all(g0[:, 1:] == 0.0)


@pytest.mark.parametrize("m,lam", [(1, 1.0), (2, 1.6), (3, 2.2)])
def test_g_matrix_triangular_positive(m, lam):
    p, _ = make(lam, m)
    for n in range(m, 25):
        g = g_matrix(n, p)
        assert np.allclose(g, np.tril(g))
        assert np.all(np.diag(g) > 0.0)


def test_g_matrix_read_only_cache():
    p, _ = make(1.0, 1)
    g = g_matrix(3, p)
    with pytest.raises(ValueError):
        g[0, 0] = 5.0


def test_g_matrix_owns_its_row():
    # A view would keep the whole g_table(n) alive for as long as the caller keeps G(n).
    p, _ = make(1.6, 2)
    g = g_matrix(40, p)
    assert g.base is None and g.shape == (3, 3)
    assert np.array_equal(g, g_table(40, p)[40])


# ------------------------------------------------------- structural invariants


@pytest.mark.parametrize("m,lam", [(1, 1.0), (2, 1.4), (3, 2.0)])
def test_sl2_commutation_relations(m, lam):
    p, rep = make(lam, m)
    rng = np.random.default_rng(42 + m)
    for _ in range(3):
        f = random_poly(m, 15, rng)
        scale = f.max_abs()
        he = op_H(op_E(f), p, rep) - op_E(op_H(f, p, rep))
        assert poly_distance(he, op_E(f)) <= 1e-10 * scale
        hf = op_H(op_F(f, p, rep), p, rep) - op_F(op_H(f, p, rep), p, rep)
        assert poly_distance(hf, op_F(f, p, rep) * (-1.0)) <= 1e-10 * scale
        ef = op_E(op_F(f, p, rep)) - op_F(op_E(f), p, rep)
        assert poly_distance(ef, op_H(f, p, rep) * (-2.0)) <= 1e-10 * scale


def test_kernel_of_e_is_constants():
    p, rep = make(1.2, 2)
    rng = np.random.default_rng(5)
    const = VectorPolynomial(rng.standard_normal((1, 3)) + 0j)
    assert op_E(const).max_abs() == 0.0
    f = random_poly(2, 4, rng)
    if np.max(np.abs(f.coeffs[1:])) > 1e-12:
        assert op_E(f).max_abs() > 0.0


@pytest.mark.parametrize("m,lam", [(1, 1.0), (2, 1.6)])
def test_h_eigenvalue_ladder(m, lam):
    p, rep = make(lam, m)
    for j in range(m + 1):
        for n in range(j, j + 6):
            e = e_basis(j, n, p)
            got = op_H(e, p, rep)
            assert poly_distance(got, e * (-(p.eta + n))) <= 1e-12 * max(e.max_abs(), 1.0)
