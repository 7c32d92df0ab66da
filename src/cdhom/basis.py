"""Infinitesimal sl(2) operators and the orthonormal basis they generate.

The three operators on C^(m+1)-valued polynomials are

    (E f)(z) = -f'(z)
    (H f)(z) = (-eta*I + rho0(h)) f(z) - z f'(z)
    (F f)(z) = (-2*eta*z*I + 2*z*rho0(h) - rho(y)) f(z) - z^2 f'(z)

and -F, repeatedly applied to the coordinate vectors eps_j, produces the
ladder u^j_n = (-F)^n eps_j whose closed form is, with k = l - j,

    u^j_{n,l}(z) = C(n,k) (j+1)_k (2*lam - m + 2j + k)_{n-k} z^{n-k}

(zero for l < j).  Dividing u^j_{n-j} by sqrt((2*lam_j)_{n-j} (1)_{n-j})
gives the orthonormal vectors e^j_{n-j}; their coefficients assemble into
the lower-triangular matrices G(n) that drive the kernel computations
and certify the block shift.  Scale factors mu never enter G(n): they are
applied through the diagonal D(mu) where needed downstream.

Every coefficient comes from one table, `_ladder_coefficients`, built
from the ladder closed form and its normalization: `g_matrix`,
`g_table`, `e_basis` and the batched evaluator `basis_values` all read
it.  Row n of the table does not depend on how many rows were built, so
every route sees the same G(n).  `u_closed` keeps the unnormalized
closed form as the oracle of the `minus_F` recursion.
"""

from __future__ import annotations

import numpy as np

from .errors import NormalizationError
from .representation import ModelParams, TriangularRep
from .scalars import VectorPolynomial, binom, pochhammer


def op_E(f: VectorPolynomial) -> VectorPolynomial:
    """(E f)(z) = -f'(z)."""
    return f.derivative() * (-1.0)


def op_H(f: VectorPolynomial, params: ModelParams, rep: TriangularRep) -> VectorPolynomial:
    """(H f)(z) = (-eta*I + rho0(h)) f(z) - z f'(z)."""
    const = f.apply_matrix(rep.rho0_h - params.eta * np.eye(params.m + 1))
    return const - f.derivative().shift_degree(1)


def op_F(f: VectorPolynomial, params: ModelParams, rep: TriangularRep) -> VectorPolynomial:
    """(F f)(z) = (-2*eta*z*I + 2*z*rho0(h) - rho(y)) f(z) - z^2 f'(z)."""
    return minus_F(f, params, rep) * (-1.0)


def minus_F(f: VectorPolynomial, params: ModelParams, rep: TriangularRep) -> VectorPolynomial:
    """(-F f)(z) = 2*lam*z f(z) + S_m f(z) - 2z D_m f(z) + z^2 f'(z)."""
    z_part = (2.0 * params.lam * f - 2.0 * f.apply_matrix(rep.d_m)).shift_degree(1)
    return z_part + f.apply_matrix(rep.rho_y) + f.derivative().shift_degree(2)


def u_closed(j: int, n: int, params: ModelParams) -> VectorPolynomial:
    """The ladder vector u^j_n = (-F)^n eps_j from its closed form."""
    m = params.m
    if not 0 <= j <= m:
        raise ValueError(f"j must lie in 0..{m}, got {j}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    coeffs = np.zeros((n + 1, m + 1), dtype=complex)
    for ell in range(j, m + 1):
        k = ell - j
        if k > n:
            continue  # C(n, k) = 0: the component is identically zero
        c = binom(n, k) * pochhammer(j + 1.0, k) * pochhammer(2.0 * params.lam - m + 2 * j + k, n - k)
        coeffs[n - k, ell] = c
    return VectorPolynomial(coeffs)


def _require_normalizable(j: int, n: int, params: ModelParams):
    """Raise NormalizationError unless e^j_{n-j} has a normalization: n <= j or 2*lam_j > 0.

    2*lam_j = 2*lam - m + 2j is positive for every j exactly when 2*lam > m.
    """
    two_lj = 2.0 * params.lambda_j(j)
    if n > j and not two_lj > 0.0:
        raise NormalizationError(
            f"2*lam_{j} = {two_lj} <= 0: the normalization of e^{j}_{n - j} degenerates "
            f"(2*lam = {2 * params.lam} vs m = {params.m})"
        )


def _ladder_coefficients(n_max: int, params: ModelParams) -> np.ndarray:
    """Coefficients c[n, l, j] of e^j_{n-j} for n <= n_max: component l is c[n, l, j] z^(n-l).

    With N = n - j and k = l - j, the closed form u^j_N over sqrt(sigma^j_N) is

        c = C(N, k) (j+1)_k (2*lam_j + k)_{N-k} / sqrt((2*lam_j)_N N!),

    built here as ratio products so that no rising factorial is formed:

        c at N = k       = prod_{i=1..k} (j+i)/i * sqrt(i / (2*lam_j + i - 1)),
        c(N) / c(N - 1)  = sqrt(N (2*lam_j + N - 1)) / (N - k)        for N > k.

    Entries with l < j or l > n are zero.  Columns j whose normalization
    degenerates (see _require_normalizable) hold meaningless values, and
    entries past the float range hold inf or nan.  The products run
    sequentially along n, so row n is the same whatever n_max is.
    """
    m = params.m
    n = np.arange(n_max + 1)[:, None, None]
    ell = np.arange(m + 1)[None, :, None]
    j = np.arange(m + 1)[None, None, :]
    big_n, k = n - j, ell - j
    two_lj = 2.0 * params.lam - m + 2.0 * j
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lowest = np.cumprod(np.where(k > 0, (j + k) / k * np.sqrt(k / (two_lj + k - 1)), 1.0), axis=1)
        step = np.where(big_n > k, np.sqrt(big_n * (two_lj + big_n - 1)) / (big_n - k), 1.0)
        ladder = np.cumprod(np.where(big_n == k, lowest, step), axis=0)
    return np.where((k >= 0) & (big_n >= k), ladder, 0.0)


def e_basis(j: int, n: int, params: ModelParams) -> VectorPolynomial:
    """Orthonormal vector e^j_{n-j} (without its mu_j factor).

    Structurally zero when n < j, so series code can sum uniformly.
    Raises NormalizationError when the normalization degenerates, which
    happens exactly in the degenerate regime 2*lam <= m.
    """
    m = params.m
    if not 0 <= j <= m:
        raise ValueError(f"j must lie in 0..{m}, got {j}")
    if n < j:
        return VectorPolynomial.zero(m)
    _require_normalizable(j, n, params)
    comps = np.arange(min(n, m) + 1)
    coeffs = np.zeros((n + 1, m + 1))
    coeffs[n - comps, comps] = _ladder_coefficients(n, params)[n, comps, j]
    return VectorPolynomial(coeffs)


def g_table(n_max: int, params: ModelParams) -> np.ndarray:
    """G(0), ..., G(n_max) stacked: entry [n, l, j] is G(n)[l, j], read off one coefficient table.

    Raises NormalizationError in the degenerate regime 2*lam <= m (for
    n_max >= 1) and OverflowError when a coefficient leaves the float range.
    """
    for j in range(params.m + 1):
        _require_normalizable(j, n_max, params)
    table = _ladder_coefficients(n_max, params)
    if not np.all(np.isfinite(table)):
        raise OverflowError(f"a coefficient of G(n), n <= {n_max}, overflows at lam = {params.lam}")
    return table


def g_matrix(n: int, params: ModelParams) -> np.ndarray:
    """The lower-triangular coefficient matrix G(n) = ((e^{l,j}_{n-j})), row n of g_table.

    Entry (l, j) is zero when l < j or n < l; the diagonal is strictly
    positive for n >= m whenever 2*lam > m.  The result is a read-only
    copy of the row, so a caller that keeps it does not keep the table alive.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    out = g_table(n, params)[n].copy()
    out.flags.writeable = False
    return out


def basis_values(points, slots, params: ModelParams) -> np.ndarray:
    """Values of the basis vectors mu_j e^j_{n-j} at many points and slots at once.

    Slot i = n*(m+1) + j labels (n, j).  Entry [s, l, k] is component l of
    the basis vector of slots[k] at points[s], namely z^(n-l) * mu_j * G(n)[l, j];
    slots with j > n are zero.  The result has shape (len(points), m+1, len(slots)).
    """
    m = params.m
    zs = np.asarray(points, dtype=complex).reshape(-1)
    degrees, cols = np.divmod(np.asarray(slots, dtype=int), m + 1)
    n_max = int(degrees.max())
    coeffs = g_table(n_max, params)[degrees, :, cols].T * params.mu_array()[cols]  # [l, k] = mu_j * G(n)[l, j]
    powers = zs[:, None] ** np.arange(n_max + 1)[None, :]
    # G(n)[l, j] vanishes for l > n, so the exponent clipped to 0 there multiplies a zero.
    exponents = np.maximum(degrees[None, :] - np.arange(m + 1)[:, None], 0)
    return powers[:, exponents] * coeffs[None, :, :]


def basis_value_matrix(n: int, z: complex, params: ModelParams) -> np.ndarray:
    """G(mu, n, z) = D_n(z) G(n) D(mu): column j is mu_j e^j_{n-j}(z)."""
    return basis_values([z], range(n * (params.m + 1), (n + 1) * (params.m + 1)), params)[0]
