import dataclasses
import itertools
import math

import numpy as np
import pytest

from cdhom import (
    BranchWarning,
    ConfigError,
    GroupElement,
    ModelParams,
    TriangularRep,
    act_U,
    check_cocycle,
    check_homogeneity,
    check_quasi_invariance,
    default_grid,
    exp_basis,
    multiplier_J,
)
from cdhom.basis import op_F
from cdhom.mobius import X, X0, X1, Y, Y_LOWER
from cdhom.scalars import VectorPolynomial


def make(lam, m, mu=None, **kw):
    mu = mu or tuple([1.0] * (m + 1))
    p = ModelParams(lam=lam, m=m, mu=mu, **kw)
    return p, TriangularRep.from_params(p)


def test_params_positivity_enforced():
    with pytest.raises(ValueError):
        ModelParams(lam=0.5, m=1, mu=(1.0, 1.0))
    ModelParams(lam=0.5, m=1, mu=(1.0, 1.0), allow_degenerate=True)
    with pytest.raises(ValueError):
        ModelParams(lam=1.0, m=1, mu=(1.0, -2.0))
    with pytest.raises(ValueError):
        ModelParams(lam=1.0, m=1, mu=(1.0,))
    for lam, mu in ((1.0, (1.0, float("inf"))), (1.0, (1.0, float("nan"))), (float("inf"), (1.0, 1.0)), (1.7e308, (1.0, 1.0))):
        with pytest.raises(ValueError):
            ModelParams(lam=lam, m=1, mu=mu, allow_degenerate=True)


def test_params_derived_quantities():
    p = ModelParams(lam=1.6, m=2, mu=(1.0, 0.7, 1.3))
    assert p.eta == pytest.approx(0.6)
    assert [p.lambda_j(j) for j in range(3)] == pytest.approx([0.6, 1.6, 2.6])


@pytest.mark.parametrize("lam,m", [(1.0, 1), (1.5, 2), (2.2, 3), (0.75, 0)])
def test_triangular_rep_structure(lam, m):
    p, rep = make(lam, m)
    # (lam, m) fix the representation, so the rep keeps only m and exp(S_m).
    assert [f.name for f in dataclasses.fields(rep)] == ["m", "pascal"]
    assert rep.m == m and not rep.pascal.flags.writeable
    assert rep.pascal.tolist() == [[float(math.comb(i, k)) for k in range(m + 1)] for i in range(m + 1)]
    # The diagonals the sl(2) operators read from ModelParams realize [rho(h), rho(y)] = -rho(y).
    rho_h, rho_y = np.diag(-(p.eta + np.arange(m + 1))), np.diag(np.arange(1.0, m + 1), -1)
    assert np.max(np.abs(rho_h @ rho_y - rho_y @ rho_h + rho_y), initial=0.0) <= 1e-14


# The J0 factor of J = (g')^eta J0 is read where g' = 1 (c = 0, d = 1, or z = 0 with d = 1), so J = J0 there.


def test_multiplier_j0_identity():
    p, rep = make(1.2, 2)
    for z in (0.0, 0.3 - 0.2j):
        assert np.allclose(multiplier_J(GroupElement.identity(), z, p, rep), np.eye(3))


def test_multiplier_j0_upper_subgroup_trivial():
    # c = 0, d = 1: both factors collapse to the identity
    p, rep = make(1.3, 2)
    g = exp_basis(X, 0.4)
    assert np.allclose(multiplier_J(g, 0.2 + 0.1j, p, rep), np.eye(3))


def test_multiplier_j0_lower_subgroup():
    # exp(t y), z = 0, m = 1: cz + d = 1, so J = J0 = exp(-t S_1) diag(1, 1) = [[1, 0], [-t, 1]]
    p, rep = make(1.0, 1)
    t = 0.35
    got = multiplier_J(exp_basis(Y_LOWER, t), 0.0, p, rep)
    assert np.allclose(got, np.array([[1.0, 0.0], [-t, 1.0]]), atol=1e-15)


def test_multiplier_j0_branch_warning():
    p, rep = make(1.0, 1)
    g = GroupElement(0.0, 1j, 1j, -1.0)  # c*0 + d = -1: left half-plane
    with pytest.warns(BranchWarning):
        multiplier_J(g, 0.0, p, rep)


def test_multiplier_j_identity_and_rotation_scalar():
    p, rep = make(1.0, 1)
    assert np.allclose(multiplier_J(GroupElement.identity(), 0.17j, p, rep), np.eye(2))
    # scalar case m = 0, eta = lam = 1: J_g(0) = (g'(0))^1 = e^{i theta}
    p0, rep0 = make(1.0, 0)
    theta = 0.4
    got = multiplier_J(GroupElement.rotation(theta), 0.0, p0, rep0)
    assert got[0, 0] == pytest.approx(np.exp(1j * theta), abs=1e-15)


def test_multiplier_j_diag_part_is_derivative_powers():
    # exp(t S_m) has a unit diagonal, so the diagonal of J is (g'(z))^eta (cz+d)^(-2j) = (cz+d)^(-2(eta + j))
    p, rep = make(1.8, 3)
    g = exp_basis(X1, 0.3)
    z = 0.25 - 0.15j
    den = g.c * z + g.d
    assert np.allclose(np.diag(multiplier_J(g, z, p, rep)), den ** (-2.0 * (p.eta + np.arange(4))))


def test_cocycle_trivial_cases():
    p, rep = make(1.0, 1)
    e = GroupElement.identity()
    # the identity, and two upper-triangular elements: every multiplier is I, so the scale is ||I||_F^2 = m + 1
    for g, h, z in ((e, e, 0.2), (exp_basis(X, 0.2), exp_basis(X, -0.5), 0.1j)):
        residual, scale = check_cocycle(g, h, z, p, rep)
        assert residual == 0.0 and scale == pytest.approx(2.0, rel=1e-15)


def test_cocycle_lower_pair():
    p, rep = make(1.5, 2)
    r, _ = check_cocycle(exp_basis(Y_LOWER, 0.1), exp_basis(Y_LOWER, 0.15), 0.2, p, rep)
    assert r <= 1e-12


def test_cocycle_spot_value_mixed():
    from cdhom.mobius import act

    p, rep = make(1.0, 1)
    g = h = exp_basis(Y_LOWER, 0.1)
    z = 0.3
    lhs = multiplier_J(g @ h, z, p, rep)
    rhs = multiplier_J(h, z, p, rep) @ multiplier_J(g, act(h, z), p, rep)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_cocycle_sweep_acceptance_grid():
    p, rep = make(1.5, 2)
    elements = [exp_basis(e, t) for e in (X, Y_LOWER, X0, X1, Y) for t in (0.2, -0.2, 0.08)]
    zs = [complex(zr, zi) for zr in np.linspace(-0.35, 0.35, 5) for zi in np.linspace(-0.35, 0.35, 5)]
    worst = 0.0
    for g, h in itertools.product(elements, repeat=2):
        for z in zs[:: max(1, len(zs) // 8)]:
            worst = max(worst, check_cocycle(g, h, z, p, rep)[0])
    assert worst <= 1e-10


def test_act_u_identity():
    p, rep = make(1.2, 2)
    f = VectorPolynomial(np.array([[1.0, 0.2, 0.0], [0.0, -0.5, 1.0]], dtype=complex))
    moved = act_U(GroupElement.identity(), f, p, rep)
    for z in (0.0, 0.4, -0.2 + 0.3j):
        assert np.allclose(moved(z), f(z), atol=1e-14)


def test_act_u_rotation_k_type():
    # rotations scale each monomial eps_j z^n by a unimodular constant
    p, rep = make(1.3, 2)
    g = GroupElement.rotation(0.5)
    for j, n in ((0, 0), (1, 2), (2, 4)):
        mono = VectorPolynomial.monomial(2, j, n)
        moved = act_U(g, mono, p, rep)
        for z in (0.3, 0.1 - 0.25j):
            ref = mono(z)
            keep = np.abs(ref) > 1e-14
            ratio = moved(z)[keep] / ref[keep]
            assert np.max(np.abs(np.abs(ratio) - 1.0)) <= 1e-12


def test_act_u_matches_minus_y_generator():
    # finite difference of t -> U_{exp(-t y)} f at t = 0 equals F f
    p, rep = make(1.0, 1)
    f = VectorPolynomial(np.array([[0.4, 1.0], [0.7, 0.0], [0.0, -0.3]], dtype=complex))
    h = 1e-6
    for z in (0.2, -0.1 + 0.3j):
        up = act_U(exp_basis(Y_LOWER, -h), f, p, rep)(z)
        dn = act_U(exp_basis(Y_LOWER, h), f, p, rep)(z)
        fd = (up - dn) / (2 * h)
        assert np.max(np.abs(fd - VectorPolynomial(op_F(f.coeffs, p))(z))) <= 1e-6


def test_rotation_multiplier_constant_in_z():
    p, rep = make(1.6, 2, mu=(1.0, 0.7, 1.3))
    k = GroupElement.rotation(0.3)
    j0 = multiplier_J(k, 0.0, p, rep)
    for z in (0.2, 0.4j, -0.3 + 0.2j):
        dev = multiplier_J(k, z, p, rep) @ np.linalg.inv(j0) - np.eye(3)
        assert np.max(np.abs(dev)) <= 1e-10


def test_multiplier_holomorphy():
    p, rep = make(1.2, 2)
    g = exp_basis(X1, 0.15)
    h = 1e-6
    for z in (0.1, 0.2 - 0.3j):
        dx = (multiplier_J(g, z + h, p, rep) - multiplier_J(g, z - h, p, rep)) / (2 * h)
        dy = (multiplier_J(g, z + 1j * h, p, rep) - multiplier_J(g, z - 1j * h, p, rep)) / (2j * h)
        assert np.max(np.abs(dx - dy)) <= 1e-6


def test_array_forms_raise_at_one_pole():
    # c*z + d = 1j*z vanishes at z = 0 only; one pole among the points is enough.
    from cdhom import PoleError
    from cdhom.mobius import act

    p, rep = make(1.0, 1)
    g = GroupElement(0.0, 1j, 1j, 0.0)
    zs = np.array([0.3 - 0.1j, 0.0, -0.2j])  # Re(c*z + d) > 0 away from the pole
    for fn in (
        lambda z: act(g, z),
        lambda z: multiplier_J(g, z, p, rep),
        lambda z: check_cocycle(g, GroupElement.identity(), z, p, rep),
    ):
        with pytest.raises(PoleError):
            fn(zs)
        fn(zs[[0, 2]])


def test_array_forms_warn_when_one_point_leaves_the_branch_half_plane():
    import warnings

    p, rep = make(1.0, 1)
    g = GroupElement(1.0, -0.9, 1.0, 0.1)  # c*z + d = z + 0.1: Re <= 0 for Re z <= -0.1 only
    with pytest.warns(BranchWarning):
        multiplier_J(g, np.array([0.3, -0.5, 0.2j]), p, rep)
    with warnings.catch_warnings():
        warnings.simplefilter("error", BranchWarning)
        multiplier_J(g, np.array([0.3, 0.2j]), p, rep)


def test_multiplier_past_float_range_raises_overflow():
    # eta = 1e300 - 0.5 and |g'(z)| > 1 (|c*z + d| < 1 at z = -0.4): (g'(z))^eta leaves the float range.
    p, rep = make(1e300, 1)
    g = exp_basis(X1, 0.3)
    with pytest.raises(OverflowError, match="not finite"):
        multiplier_J(g, np.array([0.1, -0.4]), p, rep)
    with pytest.raises(OverflowError, match="not finite"):  # cmath's own 'math range error' would name nothing
        multiplier_J(g, -0.4, p, rep)


def _series_shift_exp(s, scale):
    """exp(scale * s) for nilpotent s as the finite series sum_k (scale s)^k / k!, one matrix product per term."""
    n = s.shape[0]
    out = np.zeros(np.shape(scale) + s.shape, dtype=complex)
    term = np.eye(n, dtype=complex)
    out += term
    for k in range(1, n):
        term = np.asarray(scale / k)[..., None, None] * (term @ s)
        if not term.any():
            break
        out += term
    return out


@pytest.mark.parametrize("m", range(13))
def test_shift_exp_closed_form_matches_the_series(m):
    from cdhom.representation import _shift_exp

    _, rep = make(m / 2.0 + 0.6, m)
    s_m = np.diag(np.arange(1.0, m + 1), -1)  # the lower shift with (j, j-1) entry j
    ts = (0.0, 0j, 0.37 - 0.21j, -1.3, np.array([0.0, 0.5j, -0.8 + 0.1j]), np.array([[0.2], [-0.05 - 0.9j]]))
    for t in ts:
        got, ref = _shift_exp(rep, t), _series_shift_exp(s_m, t)
        assert got.shape == ref.shape == np.shape(t) + (m + 1, m + 1)
        assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, float(np.max(np.abs(ref))))
    assert np.array_equal(_shift_exp(rep, 0.0), np.eye(m + 1))  # 0^0 = 1 on the diagonal, exact zeros below
    assert np.array_equal(rep.pascal, _series_shift_exp(s_m, 1.0).real)  # integers C(i, k), exact


def test_cocycle_over_element_sequences_has_the_pair_axes():
    p, rep = make(1.6, 2, mu=(1.0, 0.7, 1.3))
    gs = [exp_basis(X1, 0.2), exp_basis(Y_LOWER, -0.1), GroupElement.rotation(0.4)]
    hs = [exp_basis(Y, 0.15), exp_basis(X0, 0.3)]
    zs = np.array([[0.1, -0.2j, 0.3 + 0.1j], [0.0, -0.4, 0.25j]])

    def shapes(g, h, z):  # of the residual and of its scale
        return [np.shape(part) for part in check_cocycle(g, h, z, p, rep)]

    assert shapes(gs, hs, zs) == [(3, 2) + zs.shape] * 2
    assert shapes(gs[0], hs, zs) == [(2,) + zs.shape] * 2
    assert shapes(gs, hs[0], zs) == [(3,) + zs.shape] * 2
    assert shapes(gs, hs, 0.2j) == [(3, 2)] * 2
    assert all(isinstance(part, float) for part in check_cocycle(gs[0], hs[0], 0.2j, p, rep))


def test_a_rep_built_for_another_m_is_a_config_error():
    # Unchecked, an m = 2 rep gave an m = 6 model a 3 x 3 multiplier, or a bare numpy ValueError further on.
    p6, rep6 = make(3.7, 6)
    p2, rep2 = make(1.6, 2, mu=(1.0, 0.7, 1.3))
    g = exp_basis(X1, 0.1)
    for p, rep in ((p6, rep2), (p2, rep6)):
        with pytest.raises(ConfigError, match=f"rep is built for m = {rep.m}, the model has m = {p.m}"):
            multiplier_J(g, 0.2, p, rep)
        with pytest.raises(ConfigError, match="rep is built for"):
            check_cocycle(g, g, 0.2, p, rep)
        with pytest.raises(ConfigError, match="rep is built for"):
            check_homogeneity(g, p, rep, 20)
        with pytest.raises(ConfigError, match="rep is built for"):
            check_quasi_invariance(g, default_grid(), p, rep)
    assert multiplier_J(g, 0.2, p6, rep6).shape == (7, 7)
