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
the lower-triangular matrices G(n) that drive both the block shift and
the kernel computations.  Scale factors mu never enter G(n): they are
applied through the diagonal D(mu) where needed downstream.

Basis values come from two separate routes.  `basis_values` reads them
off G(n); its ladder twin `ladder_values` builds them from the closed
form of u^j_{n-j} and its normalization, and feeds only the series
oracle `kernel.kernel_series`, so the oracle shares no code with G(n).
"""

from __future__ import annotations

import math
from functools import lru_cache

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


def sigma_cumulative(j: int, n: int, params: ModelParams) -> float:
    """Product of sigma_k^j = (2*lam_j + k - 1) * k for k = 1..n, equal to (2*lam_j)_n (1)_n.

    A non-positive factor signals the degenerate regime 2*lam <= m; the
    normalizing constructors (e_basis, g_matrix) reject it with
    NormalizationError.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return pochhammer(2.0 * params.lambda_j(j), n) * pochhammer(1.0, n)


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
    degenerates (see _require_normalizable) hold meaningless values.
    """
    m = params.m
    n = np.arange(n_max + 1)[:, None, None]
    ell = np.arange(m + 1)[None, :, None]
    j = np.arange(m + 1)[None, None, :]
    big_n, k = n - j, ell - j
    two_lj = 2.0 * params.lam - m + 2.0 * j
    with np.errstate(divide="ignore", invalid="ignore"):
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


def _poch_ratio(x: float, y: float, n: int) -> float:
    """(x)_n / (y)_n evaluated factor by factor; stable for large n."""
    out = 1.0
    for i in range(n):
        out *= (x + i) / (y + i)
    return out


def _g_entry(n: int, ell: int, j: int, params: ModelParams) -> float:
    """Coefficient G(n)_{l,j}: the z^(n-l) coefficient of e^j_{n-j} at slot l.

    The radicand (2*lam_j + k)_{n-j-k} (n-j-k+1)_k / ((2*lam_j)_k (1)_{n-j-k})
    is accumulated as ratio products so each factor stays of moderate size.
    """
    if ell < j or n < ell:
        return 0.0
    m, k = params.m, ell - j
    two_lj = 2.0 * params.lam - m + 2 * j
    den = pochhammer(two_lj, k)
    if den <= 0.0:
        raise NormalizationError(
            f"(2*lam - m + 2j)_{k} = {den} is not positive: "
            f"normalization degenerates (2*lam = {2 * params.lam} vs m = {m})"
        )
    radicand = _poch_ratio(two_lj + k, 1.0, n - j - k) * pochhammer(float(n - j - k + 1), k) / den
    if radicand < 0.0:
        raise NormalizationError(f"negative radicand at (n, l, j) = ({n}, {ell}, {j})")
    return math.sqrt(radicand) * pochhammer(j + 1.0, k) / pochhammer(1.0, k)


@lru_cache(maxsize=4096)
def _g_matrix_cached(n: int, params: ModelParams) -> np.ndarray:
    m = params.m
    out = np.zeros((m + 1, m + 1))
    for j in range(m + 1):
        for ell in range(j, min(n, m) + 1):
            out[ell, j] = _g_entry(n, ell, j, params)
    out.flags.writeable = False
    return out


def g_matrix(n: int, params: ModelParams) -> np.ndarray:
    """The lower-triangular coefficient matrix G(n) = ((e^{l,j}_{n-j})).

    Entry (l, j) is zero when l < j or n < l; the diagonal is strictly
    positive for n >= m whenever 2*lam > m.  Results are memoized per
    parameter set and returned as read-only arrays, safe for concurrent
    readers.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return _g_matrix_cached(n, params)


def basis_values(points, slots, params: ModelParams) -> np.ndarray:
    """Values of the basis vectors mu_j e^j_{n-j} at many points and slots at once.

    Slot i = n*(m+1) + j labels (n, j).  Entry [s, l, k] is component l of
    the basis vector of slots[k] at points[s], namely z^(n-l) * mu_j * G(n)[l, j];
    slots with j > n are zero.  The result has shape (len(points), m+1, len(slots)).
    """
    m = params.m
    zs = np.asarray(points, dtype=complex).reshape(-1)
    degrees, cols = np.divmod(np.asarray(slots, dtype=int), m + 1)
    distinct, which = np.unique(degrees, return_inverse=True)
    g_table = np.array([g_matrix(int(n), params) for n in distinct])
    coeffs = g_table[which, :, cols].T * params.mu_array()[cols]  # [l, k] = mu_j * G(n)[l, j]
    powers = zs[:, None] ** np.arange(distinct[-1] + 1)[None, :]
    # G(n)[l, j] vanishes for l > n, so the exponent clipped to 0 there multiplies a zero.
    exponents = np.maximum(degrees[None, :] - np.arange(m + 1)[:, None], 0)
    return powers[:, exponents] * coeffs[None, :, :]


def ladder_values(points, n_max: int, params: ModelParams) -> np.ndarray:
    """Values of mu_j e^j_{n-j} at many points and all degrees n <= n_max, from the ladder closed form.

    The twin of basis_values for the series oracle: it never reads G(n).
    Entry [s, n, l, j] is component l of mu_j e^j_{n-j} at points[s], namely
    mu_j * c[n, l, j] * z^(n-l) with c from _ladder_coefficients; slots with
    j > n are zero.  The result has shape (len(points), n_max+1, m+1, m+1).
    """
    m = params.m
    for j in range(m + 1):
        _require_normalizable(j, n_max, params)
    coeffs = _ladder_coefficients(n_max, params) * params.mu_array()
    zs = np.asarray(points, dtype=complex).reshape(-1)
    powers = zs[:, None] ** np.arange(n_max + 1)[None, :]
    # c[n, l, j] vanishes for l > n, so the exponent clipped to 0 there multiplies a zero.
    exponents = np.maximum(np.arange(n_max + 1)[:, None] - np.arange(m + 1)[None, :], 0)
    return powers[:, exponents, None] * coeffs[None]


def basis_value_matrix(n: int, z: complex, params: ModelParams) -> np.ndarray:
    """G(mu, n, z) = D_n(z) G(n) D(mu): column j is mu_j e^j_{n-j}(z)."""
    return basis_values([z], range(n * (params.m + 1), (n + 1) * (params.m + 1)), params)[0]
