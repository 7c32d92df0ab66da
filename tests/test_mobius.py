import cmath

import numpy as np
import pytest

from cdhom import GroupElement, ModelParams, PoleError, TriangularRep, act, exp_basis, multiplier_J
from cdhom.mobius import H, X, X0, X1, Y, Y_LOWER

REAL_BASIS = [("X0", X0), ("X1", X1), ("Y", Y)]
ALL_BASIS = [("x", X), ("y", Y_LOWER), ("h", H)] + REAL_BASIS


def derivative(g, z):
    """g'(z), read off the multiplier: at m = 0 and lam = eta = 1, J_g(z) = (g'(z))^1."""
    p = ModelParams(lam=1.0, m=0, mu=(1.0,))
    return complex(multiplier_J(g, z, p, TriangularRep.from_params(p))[0, 0])


def random_disc_elements(rng, count):
    """Products of one-parameter elements; stays in the SU(1,1) form."""
    out = []
    for _ in range(count):
        g = GroupElement.identity()
        for _ in range(3):
            name, elem = REAL_BASIS[rng.integers(0, 3)]
            g = g @ exp_basis(elem, rng.uniform(-0.5, 0.5))
        out.append(g)
    return out


def test_act_identity():
    for z in (0.0, 0.5, -0.3 + 0.2j):
        assert act(GroupElement.identity(), z) == z


def test_act_rotation():
    theta = 0.7
    g = GroupElement.rotation(theta)
    for z in (0.2, -0.1 + 0.4j):
        assert act(g, z) == pytest.approx(cmath.exp(1j * theta) * z, abs=1e-15)


def test_act_translation_subgroup():
    # exp(t x) = [[1, t], [0, 1]] acts by z -> z + t
    for t in (0.3, -0.12):
        g = exp_basis(X, t)
        assert g.matrix() == pytest.approx(np.array([[1.0, t], [0.0, 1.0]]))
        assert act(g, 0.1 + 0.2j) == pytest.approx(0.1 + t + 0.2j)


def test_act_pole():
    g = GroupElement(0.0, 1j, 1j, 0.0)  # z -> -1/z... wait det = 0 - (1j)(1j) = 1
    with pytest.raises(PoleError):
        act(g, 0.0)


def test_unitary_disc_preserves_disc():
    rng = np.random.default_rng(3)
    for g in random_disc_elements(rng, 10):
        # SU(1,1): d = conj(a), c = conj(b) and |a|^2 - |b|^2 = 1
        assert abs(g.d - g.a.conjugate()) <= 1e-12 and abs(g.c - g.b.conjugate()) <= 1e-12
        assert abs(abs(g.a) ** 2 - abs(g.b) ** 2 - 1.0) <= 1e-12
        for z in (0.0, 0.89, -0.4 + 0.7j):
            assert abs(act(g, z)) < 1.0


def test_derivative_identity_and_rotation():
    assert derivative(GroupElement.identity(), 0.3) == 1.0
    theta = 0.5
    assert derivative(GroupElement.rotation(theta), 0.2 + 0.1j) == pytest.approx(
        cmath.exp(1j * theta), abs=1e-15
    )


def test_derivative_lower_subgroup_at_zero():
    # exp(t y) = [[1, 0], [t, 1]]; (c*0 + d)^(-2) = 1
    g = exp_basis(Y_LOWER, 0.4)
    assert g.matrix() == pytest.approx(np.array([[1.0, 0.0], [0.4, 1.0]]))
    assert derivative(g, 0.0) == pytest.approx(1.0)


def test_exp_basis_diagonal():
    t = 0.6
    g = exp_basis(H, t)
    assert g.matrix() == pytest.approx(np.diag([np.exp(t / 2), np.exp(-t / 2)]))


def test_exp_basis_zero_time():
    for _, elem in ALL_BASIS:
        assert exp_basis(elem, 0.0).matrix() == pytest.approx(np.eye(2))


def test_exp_basis_inverse_and_det():
    rng = np.random.default_rng(5)
    for name, elem in ALL_BASIS:
        t = rng.uniform(-0.8, 0.8)
        g = exp_basis(elem, t)
        assert np.allclose(g.matrix() @ exp_basis(elem, -t).matrix(), np.eye(2), atol=1e-14)


def test_exp_basis_generator_finite_difference():
    h = 1e-6
    for name, elem in ALL_BASIS:
        fd = (exp_basis(elem, h).matrix() - exp_basis(elem, -h).matrix()) / (2 * h)
        assert np.max(np.abs(fd - elem.matrix())) < 1e-9, name


def test_rotation_subgroup_is_x0():
    theta = 0.37
    assert np.allclose(exp_basis(X0, theta).matrix(), GroupElement.rotation(theta).matrix())


def test_group_law():
    rng = np.random.default_rng(17)
    gs = random_disc_elements(rng, 6)
    zs = [0.0, 0.5, -0.9, 0.4 + 0.6j]
    for g in gs:
        for h in gs:
            for z in zs:
                assert act(g, act(h, z)) == pytest.approx(act(g @ h, z), abs=1e-12)


def test_chain_rule():
    rng = np.random.default_rng(23)
    gs = random_disc_elements(rng, 6)
    for g in gs:
        for h in gs:
            for z in (0.1, -0.6 + 0.25j):
                lhs = derivative(g @ h, z)
                rhs = derivative(h, z) * derivative(g, act(h, z))
                assert lhs == pytest.approx(rhs, rel=1e-12)


def flow_velocity(elem, z, h=1e-6):
    """d/dt exp(t*elem).z at t = 0, by central differences."""
    return (act(exp_basis(elem, h), z) - act(exp_basis(elem, -h), z)) / (2 * h)


def test_infinitesimal_action_triangular_basis():
    # x, h, y generate the vector fields 1, z, -z^2 on the disc
    for elem, field in ((X, lambda z: 1.0), (H, lambda z: z), (Y_LOWER, lambda z: -z * z)):
        for z in (0.0, 0.3, -0.2 + 0.4j):
            assert abs(flow_velocity(elem, z) - field(z)) < 1e-6


def test_infinitesimal_action_matches_flow():
    # M = [[alpha, beta], [gamma, -alpha]] generates the field beta + 2*alpha*z - gamma*z^2
    for name, elem in ALL_BASIS:
        (alpha, beta), (gamma, _) = elem.matrix()
        for z in (0.0, 0.3, -0.2 + 0.4j):
            assert abs(flow_velocity(elem, z) - (beta + 2 * alpha * z - gamma * z * z)) < 1e-6, name


def test_group_element_rejects_bad_determinant():
    with pytest.raises(ValueError):
        GroupElement(1.0, 0.0, 0.0, 2.0)
