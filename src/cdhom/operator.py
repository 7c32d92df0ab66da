"""The multiplication operator as a block weighted shift, and its checks.

In the orthonormal basis {mu_j e^j_{n-j}} the multiplication operator
sends the degree-n block to the degree-(n+1) block through

    W(n) = D(mu)^(-1) G(n+1)^(-1) G(n) D(mu),

realized here by a triangular solve on the leading invertible corner of
G(n+1) (columns j > n act on structurally zero basis slots and stay
zero).  Finite truncations keep degrees 0..N; fractional-linear maps of
the truncated matrix are evaluated exactly as (aT + bI)(cT + dI)^(-1),
which agrees with the infinite functional calculus on every retained
block because the shift only propagates downward in degree.

The unitary group action is recovered in one batched solve: every basis
vector and its image under U_g are sampled on a circle (one basis_values
call each), and all columns are expanded back in the basis at once by an
equilibrated least-squares solve; equispaced samples make blocks of
different degree exactly orthogonal, so the solve is benign and its
residual measures the mass leaked past degree N.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .basis import basis_values, g_matrix
from .errors import SingularGError, SingularResolventError, TruncationLossWarning
from .mobius import GroupElement, act
from .representation import ModelParams, TriangularRep, multiplier_J

# Radius of the sampling circle for the least-squares expansion.  Coefficient
# recovery at degree d amplifies evaluation noise by radius**(-d); at 0.9 the
# noise floor over 60 degrees stays near 1e-13, which smaller radii do not.
DEFAULT_SAMPLE_RADIUS = 0.9
DEFAULT_GUARD_BAND = 5
_DIAG_EPS = 1e-300


def shift_block(n: int, params: ModelParams) -> np.ndarray:
    """The (m+1)x(m+1) block W(n) mapping degree n to degree n+1.

    Columns j > n multiply structurally zero basis vectors and are
    returned as zero columns; for n >= m - 1 this coincides with the full
    matrix product since G(n+1) is then invertible.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    m = params.m
    r = min(n + 1, m)
    g_next = g_matrix(n + 1, params)[: r + 1, : r + 1]
    if np.any(np.abs(np.diag(g_next)) < _DIAG_EPS):
        raise SingularGError(f"G({n + 1}) has a vanishing diagonal entry")
    g_cur = g_matrix(n, params)[: r + 1, :]
    try:
        x = np.linalg.solve(g_next, g_cur)
    except np.linalg.LinAlgError as exc:
        raise SingularGError(f"G({n + 1}) could not be inverted") from exc
    out = np.zeros((m + 1, m + 1))
    out[: r + 1, :] = x
    mu = params.mu_array()
    return out * (mu[None, :] / mu[:, None])


@dataclass(frozen=True)
class TruncatedOperator:
    """Matrix of the multiplication operator on degrees 0..N.

    Index i = n*(m+1) + j labels the basis slot (n, j); slots with j > n
    are structurally zero vectors and carry zero rows and columns.  The
    only nonzero blocks sit at (n+1, n) and equal W(n).
    """

    params: ModelParams
    n_trunc: int
    matrix: np.ndarray = field(repr=False)


def truncate(params: ModelParams, n_trunc: int) -> TruncatedOperator:
    """Assemble the truncated block-shift matrix of degrees 0..N."""
    if n_trunc < 1:
        raise ValueError(f"need n_trunc >= 1, got {n_trunc}")
    m = params.m
    size = (n_trunc + 1) * (m + 1)
    mat = np.zeros((size, size), dtype=complex)
    for n in range(n_trunc):
        mat[(n + 1) * (m + 1): (n + 2) * (m + 1), n * (m + 1): (n + 1) * (m + 1)] = shift_block(n, params)
    mat.flags.writeable = False
    return TruncatedOperator(params=params, n_trunc=n_trunc, matrix=mat)


def _as_matrix(t) -> np.ndarray:
    return t.matrix if isinstance(t, TruncatedOperator) else np.asarray(t, dtype=complex)


def mobius_calculus(g: GroupElement, t) -> np.ndarray:
    """Rational functional calculus g(T) = (aT + bI)(cT + dI)^(-1)."""
    mat = _as_matrix(t)
    eye = np.eye(mat.shape[0], dtype=complex)
    resolvent = g.c * mat + g.d * eye
    cond = np.linalg.cond(resolvent)
    if not np.isfinite(cond) or cond > 1e13:
        raise SingularResolventError(f"c*T + d*I has condition number {cond}")
    # (aT + b) and (cT + d)^(-1) are both functions of T, hence commute.
    return np.linalg.solve(resolvent, g.a * mat + g.b * eye)


def active_slots(m: int, max_degree: int) -> np.ndarray:
    """Flat indices i = n*(m+1) + j of the slots with j <= n <= max_degree, in increasing order.

    The slots with j > n hold structurally zero vectors and are left out.
    """
    return np.array([n * (m + 1) + j for n in range(max_degree + 1) for j in range(min(n, m) + 1)], dtype=int)


@dataclass(frozen=True)
class RepresentationMatrixResult:
    """Matrix of U_g on degrees 0..N plus solve diagnostics."""

    matrix: np.ndarray = field(repr=False)
    conditioning: float
    truncation_loss: float
    sample_radius: float


def representation_matrix(
    g: GroupElement,
    params: ModelParams,
    rep: TriangularRep,
    n_trunc: int,
    sample_radius: float = DEFAULT_SAMPLE_RADIUS,
) -> RepresentationMatrixResult:
    """Numerically expand U_g over the orthonormal basis, degrees 0..N.

    Columns are recovered from 2(N+1) equispaced samples on the circle of
    the given radius by least squares against basis evaluations, with
    column equilibration; the reported conditioning is that of the
    equilibrated system and truncation_loss is the worst relative solve
    residual (mass outside degrees <= N).
    """
    m = params.m
    slots = active_slots(m, n_trunc)
    n_samples = 2 * (n_trunc + 1)
    zs = sample_radius * np.exp(2j * np.pi * np.arange(n_samples) / n_samples)
    ginv = g.inverse()
    ys = np.array([act(ginv, z) for z in zs])
    jmats = np.array([multiplier_J(ginv, z, params, rep) for z in zs])

    n_rows = n_samples * (m + 1)
    a_mat = basis_values(zs, slots, params).reshape(n_rows, len(slots))
    v_mat = np.einsum("skl,slK->skK", jmats, basis_values(ys, slots, params)).reshape(n_rows, len(slots))

    col_norms = np.linalg.norm(a_mat, axis=0)
    a_mat /= col_norms[None, :]
    coeffs_eq, _, _, svals = np.linalg.lstsq(a_mat, v_mat, rcond=None)
    conditioning = float(svals[0] / svals[-1])
    resid = np.linalg.norm(a_mat @ coeffs_eq - v_mat, axis=0)
    v_norms = np.linalg.norm(v_mat, axis=0)
    rel_loss = resid / np.where(v_norms > 0, v_norms, 1.0)
    truncation_loss = float(np.max(rel_loss))
    # Columns at the truncation boundary always leak; only losses well inside
    # the guard band mean the truncation is too small for this group element.
    interior = slots // (m + 1) <= n_trunc - DEFAULT_GUARD_BAND
    if interior.any() and float(np.max(rel_loss[interior])) > 0.1:
        warnings.warn(
            f"interior columns of U_g lost {np.max(rel_loss[interior]):.2f} of their mass "
            f"past degree {n_trunc}; increase the truncation for this group element",
            TruncationLossWarning,
            stacklevel=2,
        )

    size = (n_trunc + 1) * (m + 1)
    out = np.zeros((size, size), dtype=complex)
    out[np.ix_(slots, slots)] = coeffs_eq / col_norms[:, None]
    return RepresentationMatrixResult(
        matrix=out,
        conditioning=conditioning,
        truncation_loss=truncation_loss,
        sample_radius=sample_radius,
    )


def check_homogeneity(
    g: GroupElement,
    params: ModelParams,
    rep: TriangularRep,
    n_trunc: int,
    guard_band: int = DEFAULT_GUARD_BAND,
    window: int | None = None,
    sample_radius: float = DEFAULT_SAMPLE_RADIUS,
) -> float:
    """Interior-block residual of U_g^* T U_g = g(T) at truncation N.

    The comparison is restricted to basis slots of degree <= window
    (default N - guard_band) to exclude truncation-boundary artifacts;
    passing a fixed window makes residuals comparable across truncations.
    Structurally zero slots (j > n) span nothing and are excluded: the
    literal matrix function g(T) puts b/d on their diagonal while the
    conjugated side correctly leaves them empty.
    """
    if window is None:
        window = n_trunc - guard_band
    if not 0 <= window <= n_trunc:
        raise ValueError(f"window {window} outside 0..{n_trunc}")
    t_mat = truncate(params, n_trunc).matrix
    u_mat = representation_matrix(g, params, rep, n_trunc, sample_radius=sample_radius).matrix
    lhs = u_mat.conj().T @ t_mat @ u_mat
    rhs = mobius_calculus(g, t_mat)
    keep = active_slots(params.m, window)
    diff = lhs - rhs
    return float(np.linalg.norm(diff[np.ix_(keep, keep)]))


def reproducing_coefficients(w: complex, xi: np.ndarray, params: ModelParams, n_trunc: int) -> np.ndarray:
    """Basis coefficients of K_w xi up to degree N: c_(n,j) = <xi, b_(n,j)(w)>."""
    vals = basis_values([w], np.arange((n_trunc + 1) * (params.m + 1)), params)[0]  # column i is b_i(w)
    return vals.conj().T @ np.asarray(xi, dtype=complex)
