import cmath

import numpy as np
import pytest

from cdhom import (
    GroupElement,
    ModelParams,
    SingularResolventError,
    TriangularRep,
    check_homogeneity,
    exp_basis,
    mobius_calculus,
    representation_matrix,
    shift_block,
    truncate,
)
from cdhom import goldens
from cdhom.errors import NormalizationError
from cdhom.basis import basis_value_matrix, basis_values
from cdhom.mobius import X1, Y, act
from cdhom.operator import DEFAULT_SAMPLE_RADIUS, active_slots, reproducing_coefficients, shift_table
from cdhom.representation import multiplier_J
from cdhom.verify import RunConfig, check_homog_interior, check_unitarity

REF_M6 = (3.7, 6, (1.0, 0.8, 1.2, 0.9, 1.1, 1.3, 0.7))


def make(lam, m, mu=None):
    p = ModelParams(lam=lam, m=m, mu=mu or tuple([1.0] * (m + 1)))
    return p, TriangularRep.from_params(p)


# ----------------------------------------------------------------- shift blocks


def test_shift_block_m1_value():
    p, _ = make(1.0, 1)
    got = shift_block(1, p)
    expect = np.array([[1.0, 0.0], [-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)]])
    assert np.max(np.abs(got - expect)) <= 1e-14


def test_shift_block_scalar_case_unweighted():
    # m=0, lam=1/2 is the unweighted shift: W(n) = 1 for every n
    p = ModelParams(lam=0.5, m=0, mu=(1.0,))
    for n in range(6):
        assert shift_block(n, p)[0, 0] == pytest.approx(1.0)


@pytest.mark.parametrize("lam", [0.75, 1.0, 2.0])
@pytest.mark.parametrize("mu1", [0.5, 1.0, 2.0])
def test_shift_block_golden_m1(lam, mu1):
    p = ModelParams(lam=lam, m=1, mu=(1.0, mu1))
    for n in range(21):
        ref = goldens.shift_block_m1(n, lam, mu1)
        assert np.max(np.abs(shift_block(n, p) - ref)) <= 1e-12


@pytest.mark.parametrize("lam", [1.25, 1.6, 2.5])
@pytest.mark.parametrize("mu1,mu2", [(0.5, 2.0), (1.0, 1.0), (2.0, 0.5)])
def test_shift_block_golden_m2(lam, mu1, mu2):
    p = ModelParams(lam=lam, m=2, mu=(1.0, mu1, mu2))
    for n in range(21):
        ref = goldens.shift_block_m2(n, lam, mu1, mu2)
        assert np.max(np.abs(shift_block(n, p) - ref)) <= 1e-12


def test_shift_block_diagonal_tends_to_one():
    p, _ = make(1.6, 2)
    diag = np.diag(shift_block(4000, p))
    assert np.max(np.abs(diag - 1.0)) <= 1e-3


def _w_reference(mp, lam, m, mu, n_max):
    """W(n) = D(mu)^-1 G(n+1)^-1 G(n) D(mu) for n <= n_max, by forward substitution in mpmath."""

    def g_ref(n):
        out = mp.zeros(m + 1, m + 1)
        for j in range(min(n, m) + 1):
            big_n, two_lj = n - j, 2 * mp.mpf(lam) - m + 2 * j
            norm = mp.sqrt(mp.rf(two_lj, big_n) * mp.factorial(big_n))
            for k in range(min(big_n, m - j) + 1):
                out[j + k, j] = mp.binomial(big_n, k) * mp.rf(j + 1, k) * mp.rf(two_lj + k, big_n - k) / norm
        return out

    mus = [mp.mpf(v) for v in mu]
    g_next, blocks = g_ref(0), []
    for n in range(n_max + 1):
        g_cur, g_next = g_next, g_ref(n + 1)
        x = mp.zeros(m + 1, m + 1)
        for col in range(m + 1):
            for row in range(min(n + 1, m) + 1):
                acc = g_cur[row, col] - mp.fsum(g_next[row, q] * x[q, col] for q in range(row))
                x[row, col] = acc / g_next[row, row]
        blocks.append([[x[r, c] * mus[c] / mus[r] for c in range(m + 1)] for r in range(m + 1)])
    return blocks


@pytest.mark.parametrize("lam, m", [(1.0, 1), (1.6, 2), (3.5, 5), (3.7, 6), (5.0, 8), (8.0, 12)])
def test_shift_block_matches_mpmath(lam, m):
    # The [E, T] = -I construction against G(n+1)^-1 G(n) in 40 digits; the float
    # G(n+1) solve it replaced erred by 1.0e-11 at m = 12.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    mu = tuple(np.random.default_rng(m).uniform(0.6, 1.4, m + 1))
    p = ModelParams(lam=lam, m=m, mu=mu)
    for n, ref in enumerate(_w_reference(mp, lam, m, mu, 60)):
        got = shift_block(n, p)
        ref_f = np.array([[float(v) for v in row] for row in ref])
        assert np.array_equal(got == 0.0, ref_f == 0.0), n  # the exact zero pattern
        assert np.max(np.abs(got - ref_f)) <= 2e-12 * np.max(np.abs(ref_f)), n


@pytest.mark.parametrize("lam, m", [(1.0, 1), (1.6, 2), (3.7, 6), (8.0, 12)])
def test_shift_table_rows_do_not_depend_on_its_length(lam, m):
    p = ModelParams(lam=lam, m=m, mu=tuple(1.0 + 0.05 * j for j in range(m + 1)))
    table, t_op = shift_table(450, p), truncate(p, 41)
    for n in (0, m - 1, m, 40, 400):
        for n_max in (n, n + 1, n + 7):
            assert np.array_equal(shift_table(n_max, p)[n], table[n]), (n, n_max)
        assert np.array_equal(shift_block(n, p), table[n])
        if n <= 40:
            assert np.array_equal(t_op.blocks[n], table[n])


def test_shift_block_typed_errors_in_the_degenerate_regime():
    # Exactly the inputs with 2*lam <= m raise NormalizationError, as with the
    # G(n+1) solve; everything else is finite.
    for lam in np.arange(-3.0, 2.001, 0.25):
        for m in range(5):
            p = ModelParams(lam=float(lam), m=m, mu=tuple(1.0 + 0.1 * j for j in range(m + 1)), allow_degenerate=True)
            for n in range(12):
                if 2 * lam <= m:
                    with pytest.raises(NormalizationError):
                        shift_block(n, p)
                else:
                    assert np.all(np.isfinite(shift_block(n, p))), (lam, m, n)


def test_shift_table_refuses_weights_outside_the_normal_range():
    # W(0)[1, 0] = -1/(2*lam - 1) is subnormal at lam = 8e307; W(1)[2, 0] ~ (2*lam)^(-5/2) underflows at 1e300.
    for lam, m in ((8e307, 1), (1e300, 2)):
        with pytest.raises(OverflowError):
            shift_table(2, ModelParams(lam=lam, m=m, mu=(1.0,) * (m + 1)))


# ------------------------------------------------------------------ truncation


def test_truncate_block_structure():
    p, _ = make(1.6, 2, (1.0, 0.7, 1.3))
    mat = truncate(p, 6).matrix
    blocks = mat.reshape(7, 3, 7, 3).copy()  # blocks[q, :, n, :] maps degree n to degree q
    for n in range(6):
        assert np.max(np.abs(blocks[n + 1, :, n, :] - shift_block(n, p))) <= 1e-14
        blocks[n + 1, :, n, :] = 0.0
    # everything else vanishes
    assert np.max(np.abs(blocks)) == 0.0
    # nilpotency of the truncated shift
    power = np.linalg.matrix_power(mat, 8)
    assert np.max(np.abs(power)) == 0.0


@pytest.mark.parametrize("m, lam", [(1, 1.0), (6, 3.7)])
@pytest.mark.parametrize("n_trunc", [20, 80])
def test_truncated_apply_matches_dense_product(m, lam, n_trunc):
    # The block form of T U in check_homogeneity against the dense product.
    p, rep = make(lam, m)
    t_op = truncate(p, n_trunc)
    keep = active_slots(m, n_trunc - 5)
    for u in (representation_matrix(exp_basis(X1, 0.05), p, rep, n_trunc).matrix[:, keep],
              np.random.default_rng(m + n_trunc).standard_normal((t_op.matrix.shape[0], 7))):
        ref = t_op.matrix @ u
        got = t_op.apply(u)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert all(np.array_equal(t_op.blocks[n], shift_block(n, p)) for n in range(n_trunc))


def test_truncate_column_action_identity():
    # z G(mu, n, z) = G(mu, n+1, z) W(n) at sample points
    p, _ = make(1.3, 2, (1.0, 0.9, 1.2))
    for n in (0, 1, 2, 5, 9):
        w_blk = shift_block(n, p)
        for z in (0.4, 0.3 - 0.2j):
            lhs = z * basis_value_matrix(n, z, p)
            rhs = basis_value_matrix(n + 1, z, p) @ w_blk
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_truncate_norm_bounded_by_block_sup():
    p, _ = make(1.0, 1, (1.0, 0.8))
    op = truncate(p, 30)
    block_sup = max(np.linalg.norm(shift_block(n, p), 2) for n in range(30))
    assert np.linalg.norm(op.matrix, 2) <= block_sup + 1e-12


def test_adjoint_reproducing_relation():
    # M^* applied to the coefficients of K_w xi multiplies them by conj(w)
    p, _ = make(1.0, 1, (1.0, 0.8))
    t_mat = truncate(p, 60).matrix
    rng = np.random.default_rng(9)
    for w in (0.3, 0.2 + 0.1j, -0.25j):
        xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c = reproducing_coefficients(w, xi, p, 60)
        resid = t_mat.conj().T @ c - np.conj(w) * c
        assert np.linalg.norm(resid) <= 1e-6 * np.linalg.norm(c)


# ------------------------------------------------------------------- calculus


def test_calculus_identity():
    p, _ = make(1.0, 1)
    t_mat = truncate(p, 10).matrix
    assert np.max(np.abs(mobius_calculus(GroupElement.identity(), t_mat) - t_mat)) <= 1e-14


def test_calculus_rotation():
    p, _ = make(1.6, 2)
    t_mat = truncate(p, 12).matrix
    theta = 0.7
    got = mobius_calculus(GroupElement.rotation(theta), t_mat)
    assert np.max(np.abs(got - cmath.exp(1j * theta) * t_mat)) <= 1e-12


def test_calculus_small_time_taylor():
    # g_t = exp(t X1): g_t(T) = T + t (I - T^2)/2 + O(t^2)
    p, _ = make(1.0, 1, (1.0, 0.8))
    t_mat = truncate(p, 20).matrix
    eye = np.eye(t_mat.shape[0])
    for t in (1e-4, 1e-5):
        got = mobius_calculus(exp_basis(X1, t), t_mat)
        pred = t_mat + t * (eye - t_mat @ t_mat) / 2.0
        assert np.max(np.abs(got - pred)) <= 5.0 * t**2


def test_calculus_singular_resolvent():
    p, _ = make(1.0, 1)
    t_op = truncate(p, 5)
    bad = GroupElement(0.0, 1j, 1j, 0.0)  # c T + d I = i T is nilpotent: singular
    with pytest.raises(SingularResolventError):
        mobius_calculus(bad, t_op.matrix)
    with pytest.raises(SingularResolventError):
        mobius_calculus(bad, t_op)


CALCULUS_ELEMENTS = [
    GroupElement.identity(),
    GroupElement.rotation(-0.7),
    exp_basis(X1, 0.3),
    exp_basis(Y, -0.5),
    exp_basis(X1, 0.2) @ exp_basis(Y, 0.4),
]


@pytest.mark.parametrize("lam, m", [(1.0, 1), (3.7, 6), (5.0, 8)])
@pytest.mark.parametrize("n_trunc", [20, 40, 80])
def test_block_calculus_matches_dense_solve(lam, m, n_trunc):
    # The block Taylor sum on a TruncatedOperator against the dense solve on its matrix.
    p = ModelParams(lam=lam, m=m, mu=tuple(1.0 + 0.1 * j for j in range(m + 1)))
    t_op = truncate(p, n_trunc)
    for g in CALCULUS_ELEMENTS:
        dense = mobius_calculus(g, t_op.matrix)
        blocks = mobius_calculus(g, t_op)
        assert np.max(np.abs(blocks - dense)) <= 1e-14 * max(1.0, np.max(np.abs(dense))), g


# --------------------------------------------------------- representation of U


def test_representation_identity():
    p, rep = make(1.0, 1, (1.0, 0.8))
    res = representation_matrix(GroupElement.identity(), p, rep, 12)
    keep = active_slots(1, 12)
    sub = res.matrix[np.ix_(keep, keep)]
    assert np.max(np.abs(sub - np.eye(len(keep)))) <= 1e-12
    assert res.conditioning < 1e4


def test_representation_rotation_diagonal_phases():
    p, rep = make(1.0, 1, (1.0, 0.8))
    theta = 0.3
    res = representation_matrix(GroupElement.rotation(theta), p, rep, 15)
    mat = res.matrix
    for i in active_slots(1, 15):
        n = i // 2
        expect = cmath.exp(-1j * theta * (p.eta + n))
        assert abs(mat[i, i] - expect) <= 1e-11
        row = mat[i].copy()
        row[i] = 0.0
        assert np.max(np.abs(row)) <= 1e-11


@pytest.mark.parametrize("m, lam, mu", [(1, 1.0, (1.0, 0.8)), (2, 1.6, (1.0, 0.7, 1.3))])
def test_representation_matches_least_squares(m, lam, mu):
    # The per-degree Fourier solve against a dense least-squares fit of the same samples.
    p, rep = make(lam, m, mu)
    n_trunc = 12
    slots = active_slots(m, n_trunc)
    zs = DEFAULT_SAMPLE_RADIUS * np.exp(2j * np.pi * np.arange(2 * (n_trunc + 1)) / (2 * (n_trunc + 1)))
    for g in (GroupElement.rotation(0.3), exp_basis(X1, 0.1), exp_basis(Y, -0.1)):
        ginv = g.inverse()
        jmats = np.array([multiplier_J(ginv, z, p, rep) for z in zs])
        ys = np.array([act(ginv, z) for z in zs])
        images = np.einsum("skl,slK->skK", jmats, basis_values(ys, slots, p)).reshape(-1, len(slots))
        a_mat = basis_values(zs, slots, p).reshape(-1, len(slots))
        ref = np.linalg.lstsq(a_mat, images, rcond=None)[0]
        got = representation_matrix(g, p, rep, n_trunc).matrix[np.ix_(slots, slots)]
        assert np.max(np.abs(got - ref)) <= 1e-11, g


def test_representation_rotation_phases_reference_m6():
    lam, m, mu = REF_M6
    p, rep = make(lam, m, mu)
    theta, n_trunc = 0.3, 80
    mat = representation_matrix(GroupElement.rotation(theta), p, rep, n_trunc).matrix
    slots = active_slots(m, n_trunc)
    expect = np.exp(-1j * theta * (p.eta + slots // (m + 1)))
    sub = mat[np.ix_(slots, slots)]
    assert np.max(np.abs(sub - np.diag(expect))) <= 1e-8


def test_operator_checks_pass_at_m8():
    cfg = RunConfig(lam=5.0, m=8, mu=(1.0,) * 9)
    residual, params, _ = check_unitarity(cfg)
    assert residual <= 1e-6
    assert params["conditioning"] > 1.0
    assert check_homog_interior(cfg)[0] <= 1e-4


def test_unitarity_record_carries_conditioning():
    p, rep = make(1.0, 1, (1.0, 0.8))
    _, params, _ = check_unitarity(RunConfig(lam=1.0, m=1, mu=(1.0, 0.8)))
    conds = [
        representation_matrix(g, p, rep, 40).conditioning
        for g in (GroupElement.rotation(0.3), exp_basis(X1, 0.1), exp_basis(Y, -0.1))
    ]
    assert params["conditioning"] == max(conds)


def test_representation_unitary_on_interior():
    # guard band 10 keeps the truncation tail below the stated tolerance
    p, rep = make(1.0, 1, (1.0, 0.8))
    n_trunc, guard = 40, 10
    keep = active_slots(1, n_trunc - guard)
    for g in (GroupElement.rotation(0.3), exp_basis(X1, 0.1), exp_basis(Y, -0.1)):
        u = representation_matrix(g, p, rep, n_trunc).matrix
        gram = (u.conj().T @ u - np.eye(u.shape[0]))[np.ix_(keep, keep)]
        assert np.linalg.norm(gram) <= 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="with a 5-degree guard band the mass of U_g beyond the truncation "
    "is ~1e-3 at |t| = 0.1 (coherent spread ~ t*n states), so the 1e-6 target "
    "is unattainable at N = 40; a 10-degree band achieves it (test above)",
)
def test_representation_unitarity_narrow_guard_band():
    p, rep = make(1.0, 1, (1.0, 0.8))
    n_trunc, guard = 40, 5
    keep = active_slots(1, n_trunc - guard)
    u = representation_matrix(exp_basis(X1, 0.1), p, rep, n_trunc).matrix
    gram = (u.conj().T @ u - np.eye(u.shape[0]))[np.ix_(keep, keep)]
    assert np.linalg.norm(gram) <= 1e-6


def test_representation_truncation_loss_reported():
    p, rep = make(1.0, 1, (1.0, 0.8))
    res = representation_matrix(exp_basis(X1, 0.1), p, rep, 20)
    assert res.truncation_loss > 0.0
    res_id = representation_matrix(GroupElement.identity(), p, rep, 20)
    assert res_id.truncation_loss <= 1e-12


def test_representation_warns_when_under_truncated():
    from cdhom import TruncationLossWarning

    p, rep = make(1.0, 1, (1.0, 0.8))
    with pytest.warns(TruncationLossWarning):
        representation_matrix(exp_basis(X1, 1.2), p, rep, 8)


# ----------------------------------------------------------------- homogeneity


def test_homogeneity_identity():
    p, rep = make(1.0, 1, (1.0, 0.8))
    assert check_homogeneity(GroupElement.identity(), p, rep, 20) <= 1e-12


def test_homogeneity_rotation_exact():
    p, rep = make(1.0, 1, (1.0, 0.8))
    for theta in (0.3, -0.45):
        r = check_homogeneity(GroupElement.rotation(theta), p, rep, 40)
        assert r <= 1e-10


def test_homogeneity_interior_block():
    p, rep = make(1.0, 1, (1.0, 0.8))
    r = check_homogeneity(exp_basis(X1, 0.05), p, rep, 40)
    assert r <= 1e-4


def test_homogeneity_other_directions_and_m():
    p, rep = make(1.6, 2, (1.0, 0.7, 1.3))
    assert check_homogeneity(exp_basis(Y, 0.05), p, rep, 40) <= 1e-4


def test_homogeneity_monotone_fixed_window():
    p, rep = make(1.0, 1, (1.0, 0.8))
    g = exp_basis(X1, 0.05)
    seq = [check_homogeneity(g, p, rep, n, window=15) for n in (20, 40, 60)]
    for a, b in zip(seq, seq[1:]):
        assert b <= a + 1e-12
