import cmath
import itertools

import numpy as np
import pytest

from cdhom import (
    DomainError,
    GroupElement,
    ModelParams,
    NormalizationError,
    SampleGrid,
    TriangularRep,
    check_positive_definite,
    check_quasi_invariance,
    default_grid,
    exp_basis,
    kernel_full,
    kernel_series,
    normalize_kernel,
)
from cdhom import goldens
from cdhom.kernel import d_j_diagonal, kernel_Bj_closed, kernel_Kj
from cdhom.mobius import X0, X1, Y, act
from cdhom.representation import multiplier_J
from cdhom.scalars import cpow_principal
from cdhom.verify import RunConfig, run_suite
from helpers import g_reference, traced_peak

ORACLE_TUPLES = [
    (1, 1.0, (1.0, 1.0)),
    (1, 2.0, (1.0, 0.5)),
    (2, 1.6, (1.0, 0.7, 1.3)),
    (3, 2.25, (1.0, 1.0, 1.0, 1.0)),
]


def make(lam, m, mu=None):
    p = ModelParams(lam=lam, m=m, mu=mu or tuple([1.0] * (m + 1)))
    return p, TriangularRep.from_params(p)


def seeded_pairs(seed, count, r=0.5):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        z = complex(*rng.uniform(-r, r, 2))
        w = complex(*rng.uniform(-r, r, 2))
        if abs(z) <= r and abs(w) <= r:
            out.append((z, w))
    return out


# ------------------------------------------------------------ derivative block


def test_bj_corner_is_plain_power():
    p, _ = make(1.3, 2)
    for j in range(3):
        beta = 2.0 * p.lambda_j(j)
        for z, w in seeded_pairs(1, 4):
            got = kernel_Bj_closed(j, z, w, p)[j, j]
            assert got == pytest.approx(cpow_principal(1 - z * np.conj(w), -beta), rel=1e-13)


def test_bj_first_diagonal_at_origin():
    p, _ = make(1.3, 2)
    for j in range(2):
        got = kernel_Bj_closed(j, 0.0, 0.0, p)[j + 1, j + 1]
        assert got == pytest.approx(2.0 * p.lambda_j(j), rel=1e-14)


def test_bj_rejects_outside_disc():
    p, _ = make(1.0, 1)
    for z in (1.1, complex("nan")):
        with pytest.raises(DomainError):
            kernel_Bj_closed(0, z, 0.0, p)


def test_bj_block_zero_outside_range():
    p, _ = make(1.6, 2)
    mat = kernel_Bj_closed(1, 0.2, 0.1j, p)
    assert np.all(mat[0, :] == 0.0)
    assert np.all(mat[:, 0] == 0.0)


def test_b0_matches_explicit_m1_first_summand():
    # for m=1, j=0: D_0 B D_0 equals the mu-independent part of the kernel
    lam = 1.0
    p, _ = make(lam, 1)
    for z, w in seeded_pairs(2, 6):
        k0 = kernel_Kj(0, z, w, p)
        ref = goldens.kernel_m1(z, w, lam, 1.0) - np.diag([0.0, 1.0]) * cpow_principal(
            1 - z * np.conj(w), -(2 * lam + 1)
        )
        assert np.max(np.abs(k0 - ref)) <= 1e-13


# ------------------------------------------------------------------- diagonals


def test_dj_unit_corner():
    p, _ = make(1.7, 3)
    for j in range(4):
        assert d_j_diagonal(j, p)[j, j] == 1.0


def test_dj_m1_value():
    p, _ = make(1.0, 1)
    d0 = d_j_diagonal(0, p)
    assert d0[1, 1] == pytest.approx(1.0)  # 1/(2*lam-1) * (1)_1/(1)_1 at lam=1


def test_dj_m2_value():
    p, _ = make(1.5, 2)
    d0 = d_j_diagonal(0, p)
    # 2*lam_0 = 1: entry (2,2) = 1/(1)_2 * (1)_2/(1)_2 = 1/2
    assert d0[2, 2] == pytest.approx(0.5)
    assert np.all(d0[0, 1:] == 0.0)


def test_dj_degenerate_raises():
    p = ModelParams(lam=0.5, m=1, mu=(1.0, 1.0), allow_degenerate=True)
    with pytest.raises(NormalizationError):
        d_j_diagonal(0, p)


# -------------------------------------------------------------- block kernels


def test_kj_at_origin_structure():
    p, _ = make(1.6, 2)
    for j in range(3):
        k = kernel_Kj(j, 0.0, 0.0, p)
        assert k[j, j] == pytest.approx(1.0)
        # off-diagonals vanish at the origin: series keeps only equal indices
        off = k - np.diag(np.diag(k))
        assert np.max(np.abs(off)) <= 1e-14


def test_k1_m1_is_pure_corner_power():
    lam = 1.0
    p, _ = make(lam, 1)
    for z, w in seeded_pairs(3, 5):
        k1 = kernel_Kj(1, z, w, p)
        assert k1[0, 0] == 0.0 and k1[0, 1] == 0.0 and k1[1, 0] == 0.0
        assert k1[1, 1] == pytest.approx(
            cpow_principal(1 - z * np.conj(w), -(2 * lam + 1)), rel=1e-13
        )


def test_k0_m1_matches_transcription_random_points():
    lam = 1.0
    p, _ = make(lam, 1)
    mu_part = np.zeros((2, 2), dtype=complex)
    for z, w in seeded_pairs(4, 10):
        ref = goldens.kernel_m1(z, w, lam, 1.0)
        ref[1, 1] -= cpow_principal(1 - z * np.conj(w), -(2 * lam + 1))  # strip mu_1^2 block
        assert np.max(np.abs(kernel_Kj(0, z, w, p) - ref)) <= 1e-13


# ----------------------------------------------------------------- full kernel


def test_full_kernel_origin_m1():
    for lam, mu1 in ((1.0, 1.0), (2.0, 0.5)):
        p, _ = make(lam, 1, (1.0, mu1))
        got = kernel_full(0.0, 0.0, p)
        expect = np.diag([1.0, 1.0 / (2 * lam - 1) + mu1**2])
        assert np.max(np.abs(got - expect)) <= 1e-14


def test_full_kernel_matches_m2_transcription():
    lam, mu = 1.6, (1.0, 0.7, 1.3)
    p, _ = make(lam, 2, mu)
    for z, w in seeded_pairs(5, 10):
        ref = goldens.kernel_m2(z, w, lam, 0.7, 1.3)
        assert np.max(np.abs(kernel_full(z, w, p) - ref)) <= 1e-10


def test_full_kernel_hermitian_symmetry():
    for m, lam, mu in ORACLE_TUPLES:
        p, _ = make(lam, m, mu)
        for z, w in seeded_pairs(6, 4):
            lhs = kernel_full(z, w, p)
            rhs = kernel_full(w, z, p).conj().T
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


# ---------------------------------------------------------------- series oracle


def test_series_terminates_at_origin():
    p, _ = make(1.6, 2)
    full = kernel_full(0.0, 0.0, p)
    assert np.max(np.abs(kernel_series(0.0, 0.0, p, 2) - full)) <= 1e-14


def test_series_degree_zero_term():
    p, _ = make(1.6, 2, (1.0, 0.7, 1.3))
    got = kernel_series(0.3, 0.2j, p, 0)
    expect = np.zeros((3, 3), dtype=complex)
    expect[0, 0] = 1.0  # mu_0^2 eps_0 eps_0^*
    assert np.max(np.abs(got - expect)) <= 1e-15


def test_series_close_at_half_radius():
    p, _ = make(1.0, 1)
    dev = np.max(np.abs(kernel_series(0.5, 0.5, p, 60) - kernel_full(0.5, 0.5, p)))
    assert dev <= 1e-8


@pytest.mark.parametrize("m,lam,mu", ORACLE_TUPLES)
def test_series_oracle_default_grid(m, lam, mu):
    p, _ = make(lam, m, mu)
    grid = default_grid()
    worst = 0.0
    for z in grid.points:
        for w in grid.points:
            dev = np.max(np.abs(kernel_series(z, w, p, 60) - kernel_full(z, w, p)))
            worst = max(worst, dev)
    assert worst <= 1e-8


def _kernel_reference(mp, pairs, lam, m, mu):
    """sum_n sum_j mu_j^2 e^j_{n-j}(z) e^j_{n-j}(w)^* at each pair (z, w), in mpmath arithmetic.

    Component l of e^j_{n-j}(z) is G(n)[l, j] z^(n-l), so degree n adds
    A[l, q] z^(n-l) conj(w)^(n-q) with A = G(n) diag(mu^2) G(n)^T.  Past their
    peak the degrees shrink geometrically (by about |z w| per degree), and the sum
    stops after the first degree above m whose terms are all below 1e-20.
    """
    mu2 = [mp.mpf(v) ** 2 for v in mu]
    points = [(mp.mpc(z), mp.conj(mp.mpc(w))) for z, w in pairs]
    moduli = np.array([(abs(z), abs(w)) for z, w in pairs])
    sums = [[[mp.mpc(0)] * (m + 1) for _ in range(m + 1)] for _ in pairs]
    for n in itertools.count():
        top = min(n, m)  # G(n)[l, j] vanishes for l > n
        g = g_reference(mp, n, lam, m).tolist()
        weighted = [[mu2[j] * g[l][j] for j in range(l + 1)] for l in range(top + 1)]
        a = [[mp.fdot(weighted[min(l, q)], g[max(l, q)][: min(l, q) + 1]) for q in range(top + 1)] for l in range(top + 1)]
        for (z, wbar), total in zip(points, sums):
            zp, wp = [z ** (n - l) for l in range(top + 1)], [wbar ** (n - q) for q in range(top + 1)]
            for l in range(top + 1):
                for q in range(top + 1):
                    total[l][q] += a[l][q] * zp[l] * wp[q]
        # The size of each term of degree n, in floats: |A[l, q]| |z|^(n-l) |w|^(n-q).
        exps = n - np.arange(top + 1)
        sizes = np.abs(np.array(a, dtype=float))[None] * (moduli[:, :1] ** exps)[:, :, None] * (moduli[:, 1:] ** exps)[:, None, :]
        if n > m and sizes.max() < 1e-20:
            return [np.array(total, dtype=complex) for total in sums]


@pytest.mark.parametrize("lam,m", [(3.5, 5), (3.7, 6), (8.0, 12)])
def test_kernel_full_matches_the_mpmath_series(lam, m):
    # No golden kernel exists at m >= 3; this pins kernel_full there at double precision.
    mp = pytest.importorskip("mpmath")
    mu = (1.0, 0.8, 1.2, 0.9, 1.1, 1.3, 0.7, 1.05, 0.95, 1.15, 0.85, 1.25, 0.75)[: m + 1]
    p, _ = make(lam, m, mu)
    pairs = [(cmath.rect(0.45, 0.4), cmath.rect(0.12, -1.1)), (cmath.rect(0.2, -2.5), cmath.rect(0.45, 1.3))]
    with mp.workdps(30):
        refs = _kernel_reference(mp, pairs, lam, m, mu)
    for (z, w), ref in zip(pairs, refs):
        got = kernel_full(z, w, p)
        assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, float(np.max(np.abs(ref)))), (z, w)


def test_series_truncation_monotone():
    p, _ = make(1.0, 1)
    z, w = 0.45, 0.3 - 0.3j
    ref = kernel_full(z, w, p)
    devs = [np.max(np.abs(kernel_series(z, w, p, n) - ref)) for n in range(5, 61, 5)]
    for a, b in zip(devs, devs[1:]):
        assert b <= a + 1e-12


@pytest.mark.parametrize("m,lam,mu", [(2, 1.6, (1.0, 0.7, 1.3)), (6, 3.7, (1.0, 0.8, 1.2, 0.9, 1.1, 1.3, 0.7))])
def test_series_batched_matches_pairwise(m, lam, mu):
    p, _ = make(lam, m, mu)
    pts = np.array(default_grid().points[::2] + (0.0, 0.6 - 0.7j))
    got = kernel_series(pts[:, None], pts[None, :], p, 60)
    assert got.shape == (len(pts), len(pts), m + 1, m + 1)
    for i, z in enumerate(pts):
        for k, w in enumerate(pts):
            ref = kernel_series(complex(z), complex(w), p, 60)
            assert np.max(np.abs(got[i, k] - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))
    assert kernel_series(pts, 0.2j, p, 60).shape == (len(pts), m + 1, m + 1)


def test_series_memory_bounded_on_default_grid():
    # Degrees are summed a few at a time over the 144 pairs; a stack of all degrees of all pairs took 14.9 MB.
    p, _ = make(3.7, 6, (1.0, 0.8, 1.2, 0.9, 1.1, 1.3, 0.7))
    pts = np.array(default_grid().points)
    assert traced_peak(kernel_series, pts[:, None], pts[None, :], p, 60) < 4e6


@pytest.mark.parametrize("bad", [1.0, 0.8 + 0.8j, complex("nan"), complex(0.1, float("nan"))])
def test_series_array_rejects_points_outside_disc(bad):
    p, _ = make(1.0, 1)
    pts = np.array([0.1, 0.2j, bad])
    with pytest.raises(DomainError):
        kernel_series(pts[:, None], pts[None, :], p, 10)
    with pytest.raises(DomainError):
        kernel_series(0.1, pts, p, 10)


@pytest.mark.parametrize("lam,m", [(0.5, 1), (0.75, 2)])
def test_series_degenerate_raises_and_oracle_reports_inf(lam, m):
    mu = (1.0,) * (m + 1)
    p = ModelParams(lam=lam, m=m, mu=mu, allow_degenerate=True)
    pts = np.array(default_grid().points)
    with pytest.raises(NormalizationError):
        kernel_series(pts[:, None], pts[None, :], p, 60)
    report = run_suite(RunConfig(lam=lam, m=m, mu=mu, allow_degenerate=True), "kernel")
    record = next(c for c in report.checks if c.name == "kernel_oracle")
    assert record.residual == float("inf") and not record.passed
    assert record.note.startswith("degenerate normalization")


# ---------------------------------------------------------- positive definite


def test_pd_single_point_origin():
    p, _ = make(1.0, 1)
    report = check_positive_definite(p, SampleGrid(points=(0.0,), r_max=0.5))
    assert report.min_eigenvalue == pytest.approx(1.0)  # min(1, 1/(2lam-1)+mu1^2) = 1


def test_pd_default_grid():
    for m, lam, mu in ORACLE_TUPLES:
        p, _ = make(lam, m, mu)
        report = check_positive_definite(p, default_grid())
        assert report.min_eigenvalue >= -1e-10, (m, lam, report.min_eigenvalue)
        assert report.gram_size == 12 * (m + 1)


def test_pd_degenerate_negative():
    p = ModelParams(lam=0.5, m=1, mu=(1.0, 1.0), allow_degenerate=True)
    with pytest.raises(NormalizationError):
        check_positive_definite(p, default_grid())


# --------------------------------------------------------------- invariance


def test_quasi_invariance_identity():
    p, rep = make(1.0, 1)
    assert check_quasi_invariance(GroupElement.identity(), default_grid(), p, rep) <= 1e-14


def test_quasi_invariance_rotation():
    p, rep = make(1.0, 1)
    r = check_quasi_invariance(GroupElement.rotation(0.3), default_grid(), p, rep)
    assert r <= 1e-9


def test_quasi_invariance_generic_element():
    p, rep = make(1.6, 2, (1.0, 0.7, 1.3))
    r = check_quasi_invariance(exp_basis(X1, 0.1), default_grid(), p, rep)
    assert r <= 1e-8


@pytest.mark.parametrize("elem", [X0, X1, Y], ids=["X0", "X1", "Y"])
@pytest.mark.parametrize("t", [0.2, -0.2, 0.07])
def test_quasi_invariance_subgroup_sweep(elem, t):
    p, rep = make(1.0, 1)
    r = check_quasi_invariance(exp_basis(elem, t), default_grid(), p, rep)
    assert r <= 1e-8


def test_quasi_invariance_sequence_matches_single_calls():
    p, rep = make(1.6, 2, (1.0, 0.7, 1.3))
    elements = [GroupElement.identity(), GroupElement.rotation(0.3), exp_basis(X1, 0.1), exp_basis(Y, -0.2)]
    together = check_quasi_invariance(elements, default_grid(), p, rep)
    assert together == [check_quasi_invariance(g, default_grid(), p, rep) for g in elements]
    assert check_quasi_invariance(iter(elements[2:]), default_grid(), p, rep) == together[2:]


def test_quasi_invariance_is_relative_to_the_product_scale():
    # At mu = 1e-8, 1e8 max |K| is about 2e16, so the absolute residual is rounding far above 1;
    # each pair is relative to max(1, ||J_g(z)||_F ||K(g.z, g.w)||_F ||J_g(w)||_F).
    p, rep = make(1.0, 1, (1e-8, 1e8))
    g, pts = exp_basis(Y, 0.2), default_grid().points
    jz, gz = multiplier_J(g, pts, p, rep), act(g, pts)
    absolute, relative = 0.0, 0.0
    for i, k in itertools.product(range(len(pts)), repeat=2):
        moved = kernel_full(complex(gz[i]), complex(gz[k]), p)
        diff = np.linalg.norm(jz[i] @ moved @ jz[k].conj().T - kernel_full(pts[i], pts[k], p))
        scale = max(1.0, np.linalg.norm(jz[i]) * np.linalg.norm(moved) * np.linalg.norm(jz[k]))
        absolute, relative = max(absolute, diff), max(relative, diff / scale)
    assert absolute > 1.0
    assert check_quasi_invariance(g, default_grid(), p, rep) == pytest.approx(relative, rel=1e-12, abs=0.0)
    assert relative <= 1e-14


def test_quasi_invariance_passes_at_extreme_mu_and_m12():
    # Absolute, these residuals read 6.7e-4 and 6.5e-8 against the 1e-8 tolerance.
    p, rep = make(3.7, 6, (1e-5, 1.0, 1.0, 1.0, 1.0, 1.0, 1e5))
    assert check_quasi_invariance(exp_basis(X1, 0.11), default_grid(), p, rep) <= 1e-14
    p, rep = make(8.0, 12)
    assert check_quasi_invariance(exp_basis(X0, 0.11), SampleGrid(default_grid().points[::3]), p, rep) <= 1e-14


# --------------------------------------------------------------- normalization


def test_normalize_scalar_case():
    p, _ = make(1.0, 0)
    report = normalize_kernel(p, default_grid())
    assert report.residual == 0.0
    assert report.phi0 == pytest.approx(np.eye(1))


def test_normalize_m1():
    p, _ = make(1.0, 1)
    assert normalize_kernel(p, default_grid()).residual <= 1e-10


def test_normalize_phi0_is_inverse_root():
    p, _ = make(1.6, 2, (1.0, 0.7, 1.3))
    report = normalize_kernel(p, default_grid())
    k00 = kernel_full(0.0, 0.0, p)
    got = report.phi0 @ k00 @ report.phi0.conj().T
    assert np.max(np.abs(got - np.eye(3))) <= 1e-13


# ---------------------------------------------------------------------- grids


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid.points) == 12
    assert len(set(grid.points)) == 12
    assert max(abs(z) for z in grid.points) <= 0.45 + 1e-15


def test_default_grid_radii_scale_with_r_max():
    for r_max in (0.5, 0.3, 0.05):
        radii = np.abs(np.array(default_grid(r_max).points)).reshape(3, 4)  # one row per radius
        assert np.allclose(radii, r_max * np.array([[0.3], [0.6], [0.9]]), rtol=1e-15, atol=0.0)
    # At the default radius 0.5 the radii are the doubles 0.15, 0.3 and 0.45, so the points do not move.
    angles = [0.4 + 2.0 * np.pi * k / 4 for k in range(4)]
    fixed = tuple(r * complex(np.cos(t), np.sin(t)) for r in (0.15, 0.3, 0.45) for t in angles)
    assert default_grid().points == fixed


def test_grid_rejects_duplicates():
    with pytest.raises(ValueError):
        SampleGrid(points=(0.1, 0.1), r_max=0.5)


def test_grid_rejects_points_outside_radius():
    for z in (0.6, complex("nan")):
        with pytest.raises(ValueError):
            SampleGrid(points=(0.1, z), r_max=0.5)
