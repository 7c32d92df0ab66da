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
the kernel computations.  Scale factors mu never enter here: they are
applied exclusively through the diagonal D(mu) where needed downstream.
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


def sigma_single(j: int, k: int, params: ModelParams) -> float:
    """Norm-ratio constant sigma_k^j = (2*lam_j + k - 1) * k, k >= 1.

    A non-positive value signals the degenerate regime 2*lam <= m; the
    normalizing constructors (e_basis, g_matrix) reject it with
    NormalizationError.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return (2.0 * params.lambda_j(j) + k - 1.0) * k


def sigma_cumulative(j: int, n: int, params: ModelParams) -> float:
    """Product of sigma_k^j for k = 1..n, equal to (2*lam_j)_n (1)_n."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return pochhammer(2.0 * params.lambda_j(j), n) * pochhammer(1.0, n)


def e_basis(j: int, n: int, params: ModelParams) -> VectorPolynomial:
    """Orthonormal vector e^j_{n-j} (without its mu_j factor).

    Structurally zero when n < j, so series code can sum uniformly.
    Raises NormalizationError when the normalizing radicand is not
    positive, which happens exactly in the degenerate regime 2*lam <= m.
    """
    m = params.m
    if not 0 <= j <= m:
        raise ValueError(f"j must lie in 0..{m}, got {j}")
    if n < j:
        return VectorPolynomial.zero(m)
    radicand = sigma_cumulative(j, n - j, params)
    if radicand <= 0.0:
        raise NormalizationError(
            f"sigma^{j}_{n - j} = {radicand} <= 0: normalization degenerates "
            f"(2*lam = {2 * params.lam} vs m = {m})"
        )
    return u_closed(j, n - j, params) * (radicand ** -0.5)


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


@lru_cache(maxsize=None)
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


def basis_value_matrix(n: int, z: complex, params: ModelParams) -> np.ndarray:
    """G(mu, n, z) = D_n(z) G(n) D(mu): column j is mu_j e^j_{n-j}(z).

    D_n(z) carries z^(n-l) on the diagonal, with structural zeros in the
    rows l > n.
    """
    m = params.m
    dn = np.zeros(m + 1, dtype=complex)
    for ell in range(min(n, m) + 1):
        dn[ell] = z ** (n - ell)
    return dn[:, None] * g_matrix(n, params) * params.mu_array()[None, :]
