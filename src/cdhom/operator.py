"""The multiplication operator as a block weighted shift, and its checks.

In the orthonormal basis {mu_j e^j_{n-j}} the multiplication operator
sends the degree-n block to the degree-(n+1) block through

    W(n) = D(mu)^(-1) G(n+1)^(-1) G(n) D(mu).

shift_table builds every W(n) by the paper's independent construction,
from [E, T] = -I, in one table and with no linear solve; the
column_action check holds it to the identity above.

Finite truncations keep degrees 0..N; a fractional-linear map g(T) of
the truncated shift agrees with the infinite functional calculus on
every retained block because the shift only propagates downward in
degree.  It needs no solve: g(T) is the finite Taylor sum
b/d + sum_k coef_k T^k, and block (n+k, n) of T^k is the product
W(n+k-1)...W(n).

The unitary group action is recovered degree by degree: every basis
vector's image under U_g is sampled on a circle of 2(N+1) equispaced
points (one basis_values call), and a discrete Fourier transform over
the samples separates the degrees exactly, since component l of a
degree-n basis vector carries the single frequency n - l.  The
least-squares problem of the expansion is therefore block-diagonal by
degree: each degree is one square lower-triangular (m+1)x(m+1) solve,
all of them batched, and the mass at frequencies p with p + l > N is
exactly the part of U_g leaked past degree N.  The samples come from
one point-array call each of act and multiplier_J.  The homogeneity
check applies T to U one degree block at a time, never as a dense
product.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .basis import _require_normalizable, basis_values, g_table
from .errors import SingularResolventError, TruncationLossWarning
from .mobius import GroupElement, act
from .representation import ModelParams, TriangularRep, multiplier_J

# Radius of the sampling circle for the expansion of U_g.  Coefficient
# recovery at degree d amplifies evaluation noise by radius**(-d); at 0.9 the
# noise floor over 60 degrees stays near 1e-13, which smaller radii do not.
DEFAULT_SAMPLE_RADIUS = 0.9
DEFAULT_GUARD_BAND = 5


def shift_table(n_max: int, params: ModelParams) -> np.ndarray:
    """W(0), ..., W(n_max) stacked, entry [n, j, k] = W(n)[j, k], from [E, T] = -I.

    E_n = -diag_j(e_n[j]) with e_n[j] = sqrt(N (2*lam_j + N - 1)), N = n - j, and
    E_(n+1) W(n) = W(n-1) E_n - I fixes every row j <= n: W(n)[j, j] = (N + 1) / e_(n+1)[j],
    and below it the birth value W(j-1)[j, k] times prod_{n'=j..n} e_n'[k] / e_(n'+1)[j].
    The birth rows, the only place mu enters, solve row b of G(b) D(mu) W(b-1) = G(b-1) D(mu),
    whose right side is zero; with a = 2*lam_0 and d = b - k,

        W(b-1)[b, k] = -(b!/k!) sqrt((d-1)! / (a+2k)_(d-1)) / (a+b+k-1)_d * mu_k / mu_b.

    Products run sequentially along n, so row n does not depend on n_max.  Raises
    NormalizationError when 2*lam <= m and OverflowError when a weight that is not
    structurally zero leaves the normal float range.
    """
    m, a, mu = params.m, 2.0 * params.lam - params.m, params.mu
    _require_normalizable(0, n_max + 1, params)  # 2*lam_j grows with j, so column 0 decides
    births = np.zeros((m + 1, m + 1))
    for b in range(1, min(m, n_max + 1) + 1):
        for c in range(b):
            ratios = (math.sqrt((i + 1) / (a + 2 * c + i)) / (a + b + c + i) for i in range(b - c - 1))
            births[b, c] = -math.perm(b, b - c) / (a + b + c - 1) * math.prod(ratios) * mu[c] / mu[b]
    n, j, k = np.ogrid[: n_max + 1, : m + 1, : m + 1]
    deg, col = np.arange(n_max + 2)[:, None], np.arange(m + 1)
    e = np.sqrt(np.maximum(deg - col, 0)) * np.sqrt(np.maximum(a + deg + col - 1, 0.0))  # e[n, j]; 0 if n <= j
    steps = np.divide(e[:-1, None, :], e[1:, :, None], out=np.ones((n_max + 1, m + 1, m + 1)), where=(n >= j) & (j > k))
    diagonal = np.where(j == k, np.sqrt(np.maximum(n - j + 1, 0) / (a + n + j)), 0.0)
    table = np.where(n >= j - 1, births * np.cumprod(steps, axis=0), 0.0) + diagonal
    support = (k <= j) & (j <= n + 1) & (k <= n)  # the weights that are not structurally zero
    if not np.all(np.isfinite(table)) or np.any(np.abs(table[support]) < np.finfo(float).tiny):
        raise OverflowError(f"a shift weight W(n), n <= {n_max}, leaves the float range at lam = {params.lam}")
    return table


def shift_block(n: int, params: ModelParams) -> np.ndarray:
    """The block W(n) from degree n to degree n+1, row n of shift_table; columns j > n are zero."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return shift_table(n, params)[n].copy()  # a copy, so callers do not keep the whole table alive


@dataclass(frozen=True)
class TruncatedOperator:
    """Matrix of the multiplication operator on degrees 0..N, with its shift blocks.

    Index i = n*(m+1) + j labels the basis slot (n, j); slots with j > n
    are structurally zero vectors and carry zero rows and columns.  The
    only nonzero blocks sit at (n+1, n) and equal blocks[n] = W(n).
    """

    params: ModelParams
    n_trunc: int
    blocks: np.ndarray = field(repr=False)
    matrix: np.ndarray = field(repr=False)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """T @ u for a ((N+1)(m+1), k) array u, one degree at a time: block row n+1 is W(n) u_n."""
        rows = u.reshape(self.n_trunc + 1, self.params.m + 1, -1)
        out = np.zeros(rows.shape, dtype=np.result_type(self.matrix, u))
        out[1:] = self.blocks @ rows[:-1]
        return out.reshape(u.shape)


def truncate(params: ModelParams, n_trunc: int) -> TruncatedOperator:
    """The truncated block-shift matrix of degrees 0..N, filled from shift_table(N - 1)."""
    if n_trunc < 1:
        raise ValueError(f"need n_trunc >= 1, got {n_trunc}")
    size, blocks = params.m + 1, shift_table(n_trunc - 1, params)
    mat = np.zeros(((n_trunc + 1) * size,) * 2, dtype=complex)
    mat.reshape(n_trunc + 1, size, n_trunc + 1, size)[np.arange(1, n_trunc + 1), :, np.arange(n_trunc), :] = blocks
    blocks.flags.writeable = False
    mat.flags.writeable = False
    return TruncatedOperator(params=params, n_trunc=n_trunc, blocks=blocks, matrix=mat)


def mobius_calculus(g: GroupElement, t) -> np.ndarray:
    """Rational functional calculus g(T) = (aT + bI)(cT + dI)^(-1).

    For a TruncatedOperator the result is the finite Taylor sum

        g(T) = b/d + (ad - bc) sum_{k>=1} (-c)^(k-1) d^(-k-1) T^k,

    assembled block by block from products of the shift blocks; d = 0 (or
    coefficients past the float range) raises SingularResolventError.  A
    plain matrix goes through one dense solve instead, guarded by the
    condition number of cT + dI; it is the oracle of the block form.
    """
    if isinstance(t, TruncatedOperator):
        return _block_calculus(g, t)
    mat = np.asarray(t, dtype=complex)
    eye = np.eye(mat.shape[0], dtype=complex)
    resolvent = g.c * mat + g.d * eye
    cond = np.linalg.cond(resolvent)
    if not np.isfinite(cond) or cond > 1e13:
        raise SingularResolventError(f"c*T + d*I has condition number {cond}")
    # (aT + b) and (cT + d)^(-1) are both functions of T, hence commute.
    return np.linalg.solve(resolvent, g.a * mat + g.b * eye)


def _block_calculus(g: GroupElement, t: TruncatedOperator) -> np.ndarray:
    if g.d == 0:
        raise SingularResolventError("d = 0: c*T + d*I is nilpotent, hence singular")
    n_trunc, size = t.n_trunc, t.params.m + 1
    w_blks = t.blocks  # w_blks[n] = W(n)
    with np.errstate(all="ignore"):  # overflow surfaces as a non-finite result below
        d = np.complex128(g.d)
        ratios = np.full(n_trunc, -g.c / d)
        ratios[0] = 1.0
        coefs = (g.a * g.d - g.b * g.c) / d**2 * np.cumprod(ratios)  # coefs[k-1] multiplies T^k
        constant = g.b / d
    out = np.zeros((n_trunc + 1, size, n_trunc + 1, size), dtype=complex)
    out[np.arange(n_trunc + 1), :, np.arange(n_trunc + 1), :] = constant * np.eye(size)
    prod = w_blks  # prod[n] = W(n+k-1)...W(n), block (n+k, n) of T^k
    for k in range(1, n_trunc + 1):
        out[np.arange(k, n_trunc + 1), :, np.arange(n_trunc + 1 - k), :] = coefs[k - 1] * prod
        prod = w_blks[k:] @ prod[:-1]
    if not np.all(np.isfinite(out)):
        raise SingularResolventError(f"the Taylor coefficients of g overflow at |d| = {abs(g.d)}")
    return out.reshape(t.matrix.shape)


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
    the given radius: the Fourier transform over the samples splits the
    least-squares problem into one square triangular solve per degree, all
    batched.  The reported conditioning is max/min singular value over the
    column-normalised degree blocks, which is the condition number of the
    column-equilibrated least-squares matrix of all degrees, and
    truncation_loss is the worst relative least-squares residual of a
    column, the share of its sampled mass at frequencies past degree N
    (Parseval).
    """
    m = params.m
    slots = active_slots(m, n_trunc)
    n_samples = 2 * (n_trunc + 1)
    zs = sample_radius * np.exp(2j * np.pi * np.arange(n_samples) / n_samples)
    ginv = g.inverse()
    images = multiplier_J(ginv, zs, params, rep) @ basis_values(act(ginv, zs), slots, params)  # [sample, l, column]
    # Component l of a degree-n basis vector is a multiple of z^(n-l): frequency p = n - l.
    spectrum = np.fft.fft(images, axis=0) / n_samples  # [p, l, column]

    ell = np.arange(m + 1)[None, :]
    freq = np.arange(n_trunc + 1)[:, None] - ell  # [n, l]; negative where l > n
    blocks = _degree_blocks(n_trunc, sample_radius, params)
    rhs = np.where((freq >= 0)[..., None], spectrum[np.maximum(freq, 0), ell], 0.0)
    coeffs = np.linalg.solve(blocks, rhs)  # [n, j, column]; zero on the slots j > n

    col_norms = np.linalg.norm(blocks, axis=1)
    svals = np.linalg.svd(blocks / col_norms[:, None, :], compute_uv=False)
    conditioning = float(np.max(svals) / np.min(svals))
    power = np.abs(spectrum) ** 2
    leaked = power[np.arange(n_samples)[:, None] + ell > n_trunc].sum(axis=0)  # frequency p at slot l: degree p + l
    total = power.sum(axis=(0, 1))
    rel_loss = np.sqrt(leaked / np.where(total > 0, total, 1.0))
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
    out[:, slots] = coeffs.reshape(size, len(slots))
    return RepresentationMatrixResult(
        matrix=out,
        conditioning=conditioning,
        truncation_loss=truncation_loss,
        sample_radius=sample_radius,
    )


def _degree_blocks(n_trunc: int, radius: float, params: ModelParams) -> np.ndarray:
    """M_n[l, j] = radius^(n-l) mu_j G(n)[l, j] for n <= N, the Fourier image of the basis per degree.

    Slots with l or j above n carry the identity instead, so every block is
    square and invertible and the padded unknowns solve to zero.  For the
    conditioning this is harmless: a block with unit-norm columns has
    singular values on both sides of 1.
    """
    m = params.m
    freq = np.arange(n_trunc + 1)[:, None] - np.arange(m + 1)[None, :]
    blocks = radius ** np.maximum(freq, 0)[:, :, None] * g_table(n_trunc, params) * params.mu_array()
    padded = np.arange(m + 1) > np.arange(n_trunc + 1)[:, None]  # [n, j]: slot j > n
    blocks[padded[:, :, None] & np.eye(m + 1, dtype=bool)] = 1.0
    return blocks


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
    t_op = truncate(params, n_trunc)
    keep = active_slots(params.m, window)
    u_keep = representation_matrix(g, params, rep, n_trunc, sample_radius=sample_radius).matrix[:, keep]
    lhs = u_keep.conj().T @ t_op.apply(u_keep)
    rhs = mobius_calculus(g, t_op)[np.ix_(keep, keep)]
    return float(np.linalg.norm(lhs - rhs))


def reproducing_coefficients(w: complex, xi: np.ndarray, params: ModelParams, n_trunc: int) -> np.ndarray:
    """Basis coefficients of K_w xi up to degree N: c_(n,j) = <xi, b_(n,j)(w)>."""
    vals = basis_values([w], np.arange((n_trunc + 1) * (params.m + 1)), params)[0]  # column i is b_i(w)
    return vals.conj().T @ np.asarray(xi, dtype=complex)
