"""Infinitesimal sl(2) operators and the orthonormal basis they generate.

The three operators on C^(m+1)-valued polynomials are

    (E f)(z) = -f'(z)
    (H f)(z) = (-eta*I + rho0(h)) f(z) - z f'(z)
    (F f)(z) = (-2*eta*z*I + 2*z*rho0(h) - rho(y)) f(z) - z^2 f'(z)

with rho0(h) = diag(-l) and rho(y) = S_m.  They act on plain coefficient
arrays c[..., d, l], the degree-d coefficient of component l, with any
leading axes stacking polynomials; nothing is trimmed, so E lowers the
degree axis by one and F raises it by one.  H and F take (c, params):
they read eta, m/2 - l and the S_m weights l from (lam, m) alone.  -F,
that is op_F followed by an exact negation, repeatedly applied to the
coordinate vectors eps_j, produces the ladder u^j_n = (-F)^n eps_j whose
closed form is, with k = l - j,

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
closed form as the oracle of the (-F)^n recursion, and `e_basis` wraps
one basis vector in an evaluable `VectorPolynomial`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NormalizationError
from .representation import ModelParams
from .scalars import VectorPolynomial


def op_E(c: np.ndarray) -> np.ndarray:
    """(E f)(z) = -f'(z), one degree below f; a constant goes to the zero constant."""
    degs = np.arange(1, c.shape[-2])[:, None]
    return -(c[..., 1:, :] * degs) if c.shape[-2] > 1 else np.zeros_like(c)


def op_H(c: np.ndarray, params: ModelParams) -> np.ndarray:
    """(H f)(z) = (-eta*I + rho0(h)) f(z) - z f'(z): degree d of component l scales by -(eta + l) - d."""
    degs = np.arange(c.shape[-2])[:, None]
    return c * -(params.eta + np.arange(params.m + 1)) - c * degs


def op_F(c: np.ndarray, params: ModelParams) -> np.ndarray:
    """(F f)(z) = (-2*eta*z*I + 2*z*rho0(h) - rho(y)) f(z) - z^2 f'(z), one degree above f.

    In -F, degree d of component l moves to d + 1 with weight 2*lam - 2*(m/2 - l) + d,
    and S_m moves component l - 1 to l at the same degree with weight l.
    """
    m, degree_count = params.m, c.shape[-2]
    out = np.zeros(c.shape[:-2] + (degree_count + 1, m + 1), dtype=complex)
    out[..., 1:, :] = c * (2.0 * params.lam - 2.0 * (m / 2.0 - np.arange(m + 1)) + np.arange(degree_count)[:, None])
    out[..., :-1, 1:] += c[..., :-1] * np.arange(1.0, m + 1)
    return -out


def u_closed(j, n: int, params: ModelParams) -> np.ndarray:
    """The ladder vector u^j_n = (-F)^n eps_j from its closed form, as coefficients c[..., d, l].

    Component l = j + k is C(n, k) (j+1)_k (a + k)_{n-k} z^(n-k) with
    a = 2*lam - m + 2j.  The rising factorials for all k come from one
    running product of j + 1 + k and one suffix product of a + i (i < n),
    whose entry k is (a + k)_{n-k}.  j is one index or an array of them,
    which stacks the ladders along leading axes of shape np.shape(j).
    Raises OverflowError when a coefficient leaves the float range.
    """
    m = params.m
    js = np.asarray(j)
    if not np.all((0 <= js) & (js <= m)):
        raise ValueError(f"j must lie in 0..{m}, got {j}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    flat = js.reshape(-1, 1)
    ones = np.ones(flat.shape)
    a = 2.0 * params.lam - m + 2 * flat
    comb = np.array([math.comb(n, k) for k in range(min(n, m) + 1)], dtype=float)
    b, k = np.nonzero((np.arange(m + 1) <= n) & (flat + np.arange(m + 1) <= m))  # C(n, k) = 0 past n
    coeffs = np.zeros((len(flat), n + 1, m + 1), dtype=complex)
    with np.errstate(over="ignore"):  # an overflow raises below
        rising = np.cumprod(np.concatenate([ones, a + np.arange(n - 1, -1, -1)], axis=1), axis=1)[:, ::-1]
        lowest = np.cumprod(np.concatenate([ones, flat + 1.0 + np.arange(m)], axis=1), axis=1)  # (j+1)_k
        coeffs[b, n - k, flat[b, 0] + k] = comb[k] * lowest[b, k] * rising[b, k]
    if not np.isfinite(coeffs).all():
        raise OverflowError(f"a coefficient of u^j_{n} overflows at lam = {params.lam}")
    return coeffs.reshape(js.shape + (n + 1, m + 1))


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
        return VectorPolynomial(np.zeros((1, m + 1)))
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
