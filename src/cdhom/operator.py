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
b/d + sum_k coef_k T^k, cut once the terms left sum below rounding, and
block (n+k, n) of T^k is the product W(n+k-1)...W(n).  On a plain matrix,
the oracle of that sum, an affine g (c = 0, a rotation for one) gives
g(T) = (a/d) T + (b/d) I in closed form.  For c != 0, g(T) is one LU solve
of (cT + dI) X = aT + bI, guarded by the exact 1-norm condition number:
once g(T) is known, (cT + dI)^(-1) = (a - c g(T)) / (ad - bc) costs O(n^2),
whereas an SVD for the 2-norm one would cost more than the solve itself.

The unitary group action needs no sampling and no solve either.  The
associated representation is multiplicity free, the sum of the discrete
series D+_(lam_j), lam_j = lam - m/2 + j, and e^j_(n-j) is the orthonormal
basis of the j-th summand.  So U_g on degrees 0..N is block-diagonal in j,
and each block is the compression of the closed-form matrix of
D+_(lam_j)(g): a binomial series in its first column, and columns K..2K-1
are the Toeplitz matrix of phi^K, shared by every j, times columns 0..K-1.

Both operators are kept in this layout: T as its shift blocks W(n), U_g as
its component blocks U_j.  The dense ((N+1)(m+1))^2 matrices over the slots
i = n*(m+1) + j are assembled only on the first read of .matrix.  The
homogeneity check never reads them: for each component i it compares
U_i^* T U_j', for every j' <= i side by side, with g(T) in one product.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import _require_normalizable, basis_values
from .errors import SingularResolventError, TruncationLossWarning
from .mobius import GroupElement
from .representation import ModelParams, TriangularRep, multiplier_J

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
    structurally zero leaves the normal float range.  Every n_max < 0 gives the empty table.
    """
    m, a, mu, n_max = params.m, 2.0 * params.lam - params.m, params.mu, max(n_max, -1)
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
    """The multiplication operator on degrees 0..N, as its shift blocks.

    The only nonzero blocks of T sit at (n+1, n) and equal blocks[n] = W(n), n < N.
    """

    params: ModelParams
    n_trunc: int
    blocks: np.ndarray = field(repr=False)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense read-only matrix of T, assembled from blocks on first read.

        Index i = n*(m+1) + j labels the basis slot (n, j); slots with j > n
        are structurally zero vectors and carry zero rows and columns.
        """
        size = self.params.m + 1
        mat = np.zeros(((self.n_trunc + 1) * size,) * 2, dtype=complex)
        mat.reshape(self.n_trunc + 1, size, self.n_trunc + 1, size)[
            np.arange(1, self.n_trunc + 1), :, np.arange(self.n_trunc), :
        ] = self.blocks
        mat.flags.writeable = False
        return mat

    def apply_adjoint(self, c: np.ndarray) -> np.ndarray:
        """T^* @ c for a ((N+1)(m+1),) or ((N+1)(m+1), k) array c: block row n is W(n)^* c_(n+1)."""
        rows = c.reshape(self.n_trunc + 1, self.params.m + 1, -1)
        out = np.zeros(rows.shape, dtype=np.result_type(complex, c))
        out[:-1] = self.blocks.transpose(0, 2, 1).conj() @ rows[1:]
        return out.reshape(c.shape)


def truncate(params: ModelParams, n_trunc: int) -> TruncatedOperator:
    """The truncated block shift on degrees 0..N, its blocks read from shift_table(N - 1)."""
    if n_trunc < 1:
        raise ValueError(f"need n_trunc >= 1, got {n_trunc}")
    blocks = shift_table(n_trunc - 1, params)
    blocks.flags.writeable = False
    return TruncatedOperator(params=params, n_trunc=n_trunc, blocks=blocks)


def mobius_calculus(g: GroupElement, t) -> np.ndarray:
    """Rational functional calculus g(T) = (aT + bI)(cT + dI)^(-1).

    For a TruncatedOperator the result is the finite Taylor sum

        g(T) = b/d + (ad - bc) sum_{k>=1} (-c)^(k-1) d^(-k-1) T^k,

    assembled block by block from products of the shift blocks and stopped
    once the terms left sum below rounding; d = 0 (or coefficients past the
    float range) raises SingularResolventError.

    A plain square matrix is the oracle of the block form.  An affine g
    (c = 0) gives g(T) = (a/d) T + (b/d) I in closed form, as a fresh array:
    det g = 1 makes d nonzero and cond_1(dI) = 1, so there is nothing to
    factorize or guard, and only a non-finite entry raises
    SingularResolventError.  For c != 0 it returns the solution X of
    R X = aT + bI, R = cT + dI, from one LU factorization.  The guard, for
    c != 0 only, is the exact 1-norm condition number ||R||_1 ||R^(-1)||_1,
    with R^(-1) = (aI - c X) / (ad - bc) at O(n^2), so neither an inverse nor
    an SVD is needed for it.  SingularResolventError is raised on an exact
    zero pivot, or when that number is non-finite or above 1e13.
    The 1-norm bound differs from the 2-norm one by at most the size n:
    cond_2 / n <= cond_1 <= n cond_2.
    """
    if isinstance(t, TruncatedOperator):
        return _block_calculus(g, t).reshape(((t.n_trunc + 1) * (t.params.m + 1),) * 2)
    mat = np.asarray(t, dtype=complex)
    diagonal = np.diag_indices_from(mat)
    if g.c == 0:
        with np.errstate(all="ignore"):  # a non-finite entry is caught below
            out = (g.a / g.d) * mat
            out[diagonal] += g.b / g.d
        if not np.all(np.isfinite(out)):
            raise SingularResolventError("a*T/d + b*I/d has a non-finite entry")
        return out
    with np.errstate(all="ignore"):  # a non-finite entry surfaces in the guard below
        resolvent, right = g.c * mat, g.a * mat
        resolvent[diagonal] += g.d
        right[diagonal] += g.b
        try:
            # (aT + b) and (cT + d)^(-1) are both functions of T, hence commute.
            out = np.linalg.solve(resolvent, right)
        except np.linalg.LinAlgError as exc:
            raise SingularResolventError(f"c*T + d*I has an exact zero pivot: {exc}") from None
        inverse = -g.c * out  # (cT + d)^(-1) = (a - c g(T)) / (ad - bc)
        inverse[diagonal] += g.a
        cond = np.linalg.norm(resolvent, 1) * np.linalg.norm(inverse, 1) / abs(g.a * g.d - g.b * g.c)
    if not np.isfinite(cond) or cond > 1e13:
        raise SingularResolventError(f"c*T + d*I has 1-norm condition number {cond}")
    return out


def _block_calculus(g: GroupElement, t: TruncatedOperator, max_degree: int | None = None) -> np.ndarray:
    """g(T) as the array out[n, :, n', :] of its degree blocks (n, n'), n, n' <= max_degree (default N).

    Block (n, n') reads only W(n')..W(n-1), so stopping at max_degree changes no kept block.
    The sum stops after term k once q^k <= 1e-3 eps (1 - q), with q = |c/d| omega and
    omega = max_n ||W(n)||_F >= ||T||: the terms past k then add less than 1e-3 eps times
    the bound |coef_1| omega of the T^1 term.  A rotation (c = 0) stops after T^1 exactly;
    for q >= 1 every term is kept.  omega reads every block, so max_degree does not move the cut.
    """
    if g.d == 0:
        raise SingularResolventError("d = 0: c*T + d*I is nilpotent, hence singular")
    top, size = t.n_trunc if max_degree is None else max_degree, t.params.m + 1
    w_blks = t.blocks[:top]  # w_blks[n] = W(n)
    with np.errstate(all="ignore"):  # overflow surfaces as a non-finite result below
        d = np.complex128(g.d)
        ratios = np.full(top, -g.c / d)
        ratios[:1] = 1.0
        coefs = (g.a * g.d - g.b * g.c) / d**2 * np.cumprod(ratios)  # coefs[k-1] multiplies T^k
        constant = g.b / d
        q = abs(g.c / d) * float(np.max(np.linalg.norm(t.blocks, axis=(1, 2))))
    floor = 1e-3 * np.finfo(float).eps * (1.0 - q)  # below 0 when q >= 1: nothing is cut
    out = np.zeros((top + 1, size, top + 1, size), dtype=complex)
    out[np.arange(top + 1), :, np.arange(top + 1), :] = constant * np.eye(size)
    prod = w_blks  # prod[n] = W(n+k-1)...W(n), block (n+k, n) of T^k
    for k in range(1, top + 1):
        out[np.arange(k, top + 1), :, np.arange(top + 1 - k), :] = coefs[k - 1] * prod
        if q**k <= floor:
            break
        prod = w_blks[k:] @ prod[:-1]
    if not np.all(np.isfinite(out)):
        raise SingularResolventError(f"the Taylor coefficients of g overflow at |d| = {abs(g.d)}")
    return out


@dataclass(frozen=True)
class RepresentationMatrixResult:
    """U_g on degrees 0..N as its component blocks, and the largest share of a column's norm leaked past degree N.

    blocks[M, N', j] is the entry of U_g from slot (j + N', j) to slot (j + M, j); the block of
    component j is U_j = blocks[:N+1-j, :N+1-j, j], and blocks is zero outside these.
    """

    blocks: np.ndarray = field(repr=False)
    truncation_loss: float

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense read-only matrix of U_g over the slots i = n*(m+1) + j, assembled from blocks on first read."""
        n_trunc, size = self.blocks.shape[0] - 1, self.blocks.shape[2]
        out = np.zeros((n_trunc + 1, size, n_trunc + 1, size), dtype=complex)
        for j in range(min(size - 1, n_trunc) + 1):
            out[j:, j, j:, j] = self.blocks[: n_trunc + 1 - j, : n_trunc + 1 - j, j]
        out = out.reshape((n_trunc + 1) * size, -1)
        out.flags.writeable = False
        return out


def representation_matrix(
    g: GroupElement, params: ModelParams, rep: TriangularRep, n_trunc: int
) -> RepresentationMatrixResult:
    """U_g on degrees 0..N, the exact compression of the sum of the D+_(lam_j)(g), lam_j = lam - m/2 + j.

    The representation is multiplicity free, so U_g maps the slot (j + N', j) into the
    slots (j + M, j) of the same j only, through the discrete-series matrix of D+_(lam_j):
    with g = [[a, b], [c, d]] and r_K = (2*lam_j)_K / K!, entry [(j+M, j), (j+N', j)] is

        sqrt(r_N' / r_M) [z^M] a0_j (1 - (c/a) z)^(-2*lam_j) phi(z)^N',   phi = (dz - b)/(a - cz),

    where a0_j = (a^-2)^eta a^(-2j) is entry j of J_(g^-1)(0), so multiplier_J keeps the
    branch convention.  Column 0 is a binomial series.  Columns K..2K-1 are the lower-triangular
    Toeplitz matrix of phi^K, shared by every j, times columns 0..K-1, and the coefficients of
    phi^2K are those of phi^K convolved with themselves, so ceil(log2(N+1)) products fill the
    N columns.  Each block compresses
    a unitary matrix, so truncation_loss is the exact leak sqrt(1 - |column|^2), worst over the
    columns; the subtraction resolves leaks above about 1e-8.  Raises NormalizationError when
    2*lam <= m and OverflowError when a normalization or an entry leaves the float range.
    """
    m, size = params.m, params.m + 1
    _require_normalizable(0, n_trunc, params)  # 2*lam_j grows with j, so block 0 decides
    a0 = np.diagonal(multiplier_J(g.inverse(), 0.0, params, rep))
    deg, two_l = np.arange(n_trunc + 1), 2.0 * params.lam - m + 2.0 * np.arange(size)  # two_l[j] = 2*lam_j
    growth = np.ones((n_trunc + 1, size))
    growth[1:] = (two_l + deg[:-1, None]) / deg[1:, None]  # r_K / r_(K-1)
    with np.errstate(all="ignore"):  # overflow surfaces as a non-finite value below
        norms = np.cumprod(np.sqrt(growth), axis=0)  # sqrt(r_K), never r_K itself
        ratio = g.c / g.a
        power = np.concatenate(([-g.b / g.a], (g.d - g.b * ratio) / g.a * ratio ** deg[:-1]))  # [z^M] phi
        series = np.empty((n_trunc + 1, n_trunc + 1, size), dtype=complex)  # [M, N', j], without sqrt(r_N'/r_M)
        series[:, 0] = a0 * np.cumprod(np.where(deg[:, None] > 0, growth * ratio, 1.0), axis=0)  # a0_j r_M (c/a)^M
        lags, done = deg[:, None] - deg, 1  # columns 0..done-1 are filled, and power holds [z^M] phi^done
        while done <= n_trunc:
            width, toeplitz = min(done, n_trunc + 1 - done), np.where(lags >= 0, power[lags], 0.0)
            series[:, done : done + width] = np.tensordot(toeplitz, series[:, :width], axes=1)
            done, power = done + width, np.convolve(power, power)[: n_trunc + 1]
        blocks = series * (norms[None, :, :] / norms[:, None, :])
    degree = deg[:, None] + np.arange(size)  # degree[K, j] = j + K, the degree of row or column K of U_j
    blocks = np.where((degree[:, None, :] <= n_trunc) & (degree[None, :, :] <= n_trunc), blocks, 0.0)
    if not (np.all(np.isfinite(norms)) and np.all(np.isfinite(blocks))):
        raise OverflowError(f"U_g on degrees <= {n_trunc} leaves the float range at lam = {params.lam}")
    blocks.flags.writeable = False

    rel_loss = np.sqrt(np.maximum(0.0, 1.0 - np.sum(np.abs(blocks) ** 2, axis=0)))  # [N', j]
    # Columns at the truncation boundary always leak; only losses well inside
    # the guard band mean the truncation is too small for this group element.
    interior = degree <= n_trunc - DEFAULT_GUARD_BAND
    if interior.any() and float(np.max(rel_loss[interior])) > 0.1:
        warnings.warn(
            f"interior columns of U_g lost {np.max(rel_loss[interior]):.2f} of their mass "
            f"past degree {n_trunc}; increase the truncation for this group element",
            TruncationLossWarning,
            stacklevel=2,
        )
    return RepresentationMatrixResult(blocks=blocks, truncation_loss=float(np.max(rel_loss[degree <= n_trunc])))


def check_homogeneity(
    g: GroupElement,
    params: ModelParams,
    rep: TriangularRep,
    n_trunc: int,
    window: int | None = None,
) -> float:
    """Interior-block residual of U_g^* T U_g = g(T) at truncation N.

    The comparison is restricted to basis slots of degree <= window
    (default N - DEFAULT_GUARD_BAND) to exclude truncation-boundary artifacts;
    passing a fixed window makes residuals comparable across truncations.
    Structurally zero slots (j > n) span nothing and are excluded: the
    literal matrix function g(T) puts b/d on their diagonal while the
    conjugated side correctly leaves them empty.

    The residual is the Frobenius norm over the kept slots, summed one
    component i at a time.  Component i of T U_j' is zero for i < j', since
    every W(n) is lower triangular; for i >= j' its row M is W(i+M-1)[i, j']
    times row M + i - j' - 1 of U_j'.  The blocks of T U_j' for j' <= i sit side
    by side, so each i takes one product with U_i^*.
    """
    if window is None:
        window = n_trunc - DEFAULT_GUARD_BAND
    if not 0 <= window <= n_trunc:
        raise ValueError(f"window {window} outside 0..{n_trunc}")
    t_op = truncate(params, n_trunc)
    u_blocks = representation_matrix(g, params, rep, n_trunc).blocks
    g_of_t = _block_calculus(g, t_op, window)  # only the blocks of degree <= window are compared
    slots = np.arange(params.m + 1)[:, None] <= np.arange(window + 1)  # [j', n']: the kept slots, j' <= n'
    total = 0.0
    for i in range(min(params.m, window) + 1):  # the components with a slot of degree <= window
        rhs = g_of_t[i : window + 1, i, : window + 1].transpose(0, 2, 1)[:, slots]  # columns (n', j'), j'-major
        t_u = np.zeros((n_trunc + 1 - i, np.count_nonzero(slots[: i + 1])), dtype=complex)
        col = 0
        for jp in range(i + 1):
            lo, width = (1 if i == jp else 0), window + 1 - jp  # row 0 of T U_i would come from below degree i
            weights = t_op.blocks[i + lo - 1 :, i, jp, None]  # W(i+M-1)[i, j'] for the rows M >= lo
            t_u[lo:, col : col + width] = weights * u_blocks[lo + i - jp - 1 : n_trunc - jp, :width, jp]
            col += width
        u_i = u_blocks[: n_trunc + 1 - i, : window + 1 - i, i]  # all rows, kept columns
        rhs[:, :col] -= u_i.conj().T @ t_u  # the columns j' > i stay: T U_j' is zero there
        total += float(np.linalg.norm(rhs)) ** 2
    return math.sqrt(total)


def reproducing_coefficients(w: complex, xi: np.ndarray, params: ModelParams, n_trunc: int) -> np.ndarray:
    """Basis coefficients of K_w xi up to degree N: c_(n,j) = <xi, b_(n,j)(w)>."""
    vals = basis_values([w], np.arange((n_trunc + 1) * (params.m + 1)), params)[0]  # column i is b_i(w)
    return vals.conj().T @ np.asarray(xi, dtype=complex)
