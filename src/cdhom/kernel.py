"""Matrix-valued reproducing kernels and their verification checks.

The kernel of the (lam, m, mu) family is the sum K = sum_j mu_j^2 K_j
with K_j = D_j Btilde^(lam_j) D_j, where Btilde^(lam_j) collects the
mixed derivatives del^(l-j) delbar^(p-j) (1 - z*conj(w))^(-2*lam_j) in
rows/columns j..m and D_j is an explicit diagonal.  Each derivative
entry is evaluated through its finite Leibniz closed form

    del^a delbar^b (1-s)^(-beta) =
        (beta)_b * sum_i C(a,i) (b-i+1)_i (beta+b)_{a-i}
                   z^(b-i) conj(w)^(a-i) (1-s)^(-(beta+a+b-i)),

with s = z*conj(w), not through a series.  The independent oracle
kernel_series sums the orthonormal-basis outer products instead, with
basis values from `basis.basis_values`: it shares the coefficients G(n)
with the rest of the package but no code with the derivative formula.
kernel_series takes scalar points or broadcastable point arrays; it sums
a few degrees at a time from basis values at the distinct points, so its
working set is O(pairs (m+1) max(m+1, 32) + points N (m+1)^2).

K is Hermitian, K(w, z) = K(z, w)^*, so the grid checks evaluate each
unordered pair once: _kernel_grid calls kernel_full for the n(n+1)/2 pairs
z_i, z_k with i <= k, and _mirror fills k > i with the conjugate transpose.
check_positive_definite, the kernel_oracle check and check_quasi_invariance
(its fixed grid, and its moved grid per element, with residuals over i <= k)
read it.  hermitian_symmetry in verify.py licenses the mirror, so it alone
evaluates all n^2 ordered pairs; in a run, the others read its mirror instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import basis_values
from .errors import DomainError, NormalizationError, SingularKernelColumnError
from .mobius import GroupElement, act
from .representation import ModelParams, TriangularRep, multiplier_J
from .scalars import cpow_principal, pochhammer

DEFAULT_RADIUS_FRACTIONS = (0.3, 0.6, 0.9)
DEFAULT_ANGLE_COUNT = 4
DEFAULT_ANGLE_OFFSET = 0.4


@dataclass(frozen=True)
class SampleGrid:
    """A finite set of pairwise-distinct disc points used by grid checks."""

    points: tuple[complex, ...]
    r_max: float = 0.5

    def __post_init__(self):
        if not self.points:
            raise ValueError("grid must contain at least one point")
        if len(set(self.points)) != len(self.points):
            raise ValueError("grid points must be pairwise distinct")
        if not all(abs(z) <= self.r_max for z in self.points):
            raise ValueError(f"grid point outside radius {self.r_max}")
        if not self.r_max < 1.0:
            raise ValueError("r_max must be < 1")


def default_grid(r_max: float = 0.5) -> SampleGrid:
    """12 points: radii r_max * (0.3, 0.6, 0.9) times 4 angles, offset to avoid axes."""
    pts = []
    for r in (r_max * f for f in DEFAULT_RADIUS_FRACTIONS):
        for k in range(DEFAULT_ANGLE_COUNT):
            theta = DEFAULT_ANGLE_OFFSET + 2.0 * math.pi * k / DEFAULT_ANGLE_COUNT
            pts.append(r * complex(math.cos(theta), math.sin(theta)))
    return SampleGrid(points=tuple(pts), r_max=r_max)


def _require_disc(*points: complex):
    for z in points:
        if not abs(z) < 1.0:  # also rejects NaN
            raise DomainError(f"|z| = {abs(z)} is not inside the open unit disc")


def _deriv_power_entry(a: int, b: int, beta: float, z: complex, w: complex) -> complex:
    """del^a delbar^b (1 - z*conj(w))^(-beta) via the Leibniz closed form."""
    wbar = w.conjugate()
    s = 1.0 - z * wbar
    total = 0.0 + 0.0j
    for i in range(min(a, b) + 1):
        coeff = (
            math.comb(a, i)
            * pochhammer(b - i + 1.0, i)
            * pochhammer(beta + b, a - i)
        )
        total += coeff * z ** (b - i) * wbar ** (a - i) * cpow_principal(s, -(beta + a + b - i))
    return pochhammer(beta, b) * total


def kernel_Bj_closed(j: int, z: complex, w: complex, params: ModelParams) -> np.ndarray:
    """Derivative block Btilde^(lam_j)(z, w) embedded at rows/cols j..m."""
    _require_disc(z, w)
    m = params.m
    if not 0 <= j <= m:
        raise ValueError(f"j must lie in 0..{m}, got {j}")
    beta = 2.0 * params.lambda_j(j)
    out = np.zeros((m + 1, m + 1), dtype=complex)
    for ell in range(j, m + 1):
        for p in range(j, m + 1):
            out[ell, p] = _deriv_power_entry(ell - j, p - j, beta, z, w)
    return out


def d_j_diagonal(j: int, params: ModelParams) -> np.ndarray:
    """Diagonal D_j with 1/(2*lam_j)_{l-j} * (j+1)_{l-j}/(1)_{l-j} at (l, l), l >= j."""
    m = params.m
    if not 0 <= j <= m:
        raise ValueError(f"j must lie in 0..{m}, got {j}")
    out = np.zeros((m + 1, m + 1))
    beta = 2.0 * params.lambda_j(j)
    for ell in range(j, m + 1):
        k = ell - j
        den = pochhammer(beta, k)
        if den == 0.0:
            raise NormalizationError(
                f"(2*lam_{j})_{k} = 0: diagonal D_{j} degenerates (2*lam = {2 * params.lam}, m = {m})"
            )
        out[ell, ell] = (1.0 / den) * pochhammer(j + 1.0, k) / pochhammer(1.0, k)
    return out


def kernel_Kj(j: int, z: complex, w: complex, params: ModelParams) -> np.ndarray:
    """Summand kernel K_j(z, w) = D_j Btilde^(lam_j)(z, w) D_j."""
    dj = d_j_diagonal(j, params)
    return dj @ kernel_Bj_closed(j, z, w, params) @ dj


def kernel_full(z: complex, w: complex, params: ModelParams) -> np.ndarray:
    """The reproducing kernel K(z, w) = sum_j mu_j^2 K_j(z, w); OverflowError names K when a value is not finite."""
    _require_disc(z, w)
    out = np.zeros((params.m + 1, params.m + 1), dtype=complex)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite K raises below instead
            for j in range(params.m + 1):
                out += params.mu[j] ** 2 * kernel_Kj(j, z, w, params)
        if not np.isfinite(out).all():
            raise OverflowError("K(z, w) is not finite")
    except OverflowError as exc:
        raise OverflowError(f"a value of K(z, w) leaves the float range at lam = {params.lam}") from exc
    return out


def kernel_series(z, w, params: ModelParams, n_trunc: int) -> np.ndarray:
    """Truncated basis series sum_{n<=N} sum_j mu_j^2 e^j_{n-j}(z) e^j_{n-j}(w)^*.

    This is the independent oracle for kernel_full: it goes through the
    basis coefficients G(n), not through the derivative formula.  z and w
    are points or broadcastable point arrays; the result has shape
    broadcast(z, w).shape + (m+1, m+1), so a scalar pair gives one
    (m+1) x (m+1) matrix.  Each batched product per pair sums 32 // (m+1)
    degrees (at least one), so the working set is O(pairs (m+1) max(m+1, 32)
    + points N (m+1)^2), not O(pairs N (m+1)^2).
    """
    zs, ws = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(w, dtype=complex))
    _require_disc(*zs.flat, *ws.flat)
    slots = np.arange((n_trunc + 1) * (params.m + 1))
    # Broadcast grids repeat each point many times, so only the distinct ones are evaluated.
    # G(n) is real, so e(w)^* is e evaluated at conj(w).
    (dz, iz), (dw, iw) = (np.unique(points, return_inverse=True) for points in (zs, ws.conj()))
    vz, vw = basis_values(dz, slots, params), basis_values(dw, slots, params)
    iz, iw = iz.reshape(-1), iw.reshape(-1)
    size = params.m + 1
    step = size * max(1, 32 // size)  # whole degrees per product
    out = np.zeros((len(iz), size, size), dtype=complex)
    for lo in range(0, vz.shape[2], step):
        out += vz[:, :, lo : lo + step][iz] @ vw[:, :, lo : lo + step][iw].transpose(0, 2, 1)
    return out.reshape(zs.shape + out.shape[1:])


def _mirror(grid: np.ndarray) -> np.ndarray:
    """Fill each pair k > i of an (n, n, m+1, m+1) grid, in place, with the conjugate transpose of pair (i, k)."""
    k, i = np.tril_indices(len(grid), -1)
    grid[k, i] = grid[i, k].conj().swapaxes(1, 2)
    return grid


def _kernel_grid(points, params: ModelParams) -> np.ndarray:
    """K(z_i, z_k) over every ordered pair of points, of shape (n, n, m+1, m+1).

    kernel_full runs once per pair i <= k; each pair k > i is the conjugate
    transpose of its mirror, and the diagonal is never mirrored.
    """
    n, size = len(points), params.m + 1
    out = np.empty((n, n, size, size), dtype=complex)
    for i, z in enumerate(points):
        for k in range(i, n):
            out[i, k] = kernel_full(z, points[k], params)
    return _mirror(out)


@dataclass(frozen=True)
class PositiveDefiniteReport:
    """Minimum eigenvalue of the block Gram matrix over a grid, and its scale max(1, max |finite entry|).

    The verify registry holds the tolerance, which applies to max(0, -min_eigenvalue) / scale.
    """

    min_eigenvalue: float
    gram_size: int
    scale: float


def check_positive_definite(params: ModelParams, grid: SampleGrid) -> PositiveDefiniteReport:
    """Assemble the Hermitian block Gram matrix [K(z_i, z_k)] and report its smallest eigenvalue."""
    return _gram_report(_kernel_grid(grid.points, params))


def _gram_report(k_grid: np.ndarray) -> PositiveDefiniteReport:
    """The report of check_positive_definite for the K grid of shape (n, n, m+1, m+1).

    A Gram with a non-finite entry has no eigenvalues to report: its min_eigenvalue is NaN.
    """
    gram = k_grid.transpose(0, 2, 1, 3).reshape(len(k_grid) * k_grid.shape[2], -1)
    finite = np.isfinite(gram).all()
    min_eig = float(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[0]) if finite else math.nan
    return PositiveDefiniteReport(min_eigenvalue=min_eig, gram_size=len(gram), scale=_finite_scale(gram))


def _first_worst(values) -> tuple[int, ...]:
    """The index of the first largest entry, or of the first NaN, which is worse than every number."""
    return tuple(int(i) for i in np.unravel_index(np.argmax(values), np.shape(values)))


def _finite_scale(values, axis=None):
    """max(1, max |entry|) over the finite entries, of the whole array (a float) or along axis (an array)."""
    peak = np.maximum(1.0, np.max(np.abs(values), axis=axis, where=np.isfinite(values), initial=0.0))
    return float(peak) if axis is None else peak


def check_quasi_invariance(g, grid: SampleGrid, params: ModelParams, rep: TriangularRep) -> float | list[float]:
    """Max over grid pairs of || J_g(z) K(g.z, g.w) J_g(w)^* - K(z, w) ||_F, each relative to its scale.

    The scale of a pair is max(1, ||J_g(z)||_F ||K(g.z, g.w)||_F ||J_g(w)||_F), the bound
    that ||AB||_F <= ||A||_F ||B||_F gives for the product, as in the cocycle check.
    The pair (w, z) gives the conjugate transpose of the matrix of (z, w), so only the
    pairs z_i, z_k with i <= k are measured.  g is one GroupElement, giving one float,
    or a sequence of them, giving one float per element; K(z, w) on the grid is
    evaluated once for all.
    """
    elements = [g] if isinstance(g, GroupElement) else list(g)
    residuals = [r for r, *_ in _quasi_invariance_worst(elements, grid, params, rep, _kernel_grid(grid.points, params))]
    return residuals[0] if isinstance(g, GroupElement) else residuals


def _quasi_invariance_worst(elements, grid: SampleGrid, params: ModelParams, rep: TriangularRep, k_grid):
    """Per element, (residual, i, k, scale) at the worst pair z_i, z_k, i <= k, given K on the grid as k_grid."""
    pts = grid.points
    found = []
    for h in elements:
        jz = multiplier_J(h, pts, params, rep)
        j_norms = np.linalg.norm(jz, axis=(1, 2))
        moved_grid = _kernel_grid(act(h, pts).tolist(), params)  # Python complex: kernel_full is slower on numpy scalars
        rows = []
        for i in range(len(pts)):
            for k in range(i, len(pts)):
                moved = moved_grid[i, k]
                scale = max(1.0, float(j_norms[i] * np.linalg.norm(moved) * j_norms[k]))
                rows.append((float(np.linalg.norm(jz[i] @ moved @ jz[k].conj().T - k_grid[i, k])) / scale, i, k, scale))
        found.append(rows[_first_worst([row[0] for row in rows])[0]])
    return found


def _hermitian_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    if vals[0] <= 0:
        raise NormalizationError(f"matrix square root needs a positive matrix, min eig {vals[0]}")
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


@dataclass(frozen=True)
class NormalizationReport:
    """Constancy check of the normalized kernel along the second slot at 0.

    cond_k_z0 is the largest condition number of K(z, 0) over the grid, the
    matrix that phi(z) inverts.
    """

    residual: float
    phi0: np.ndarray = field(repr=False)
    cond_k_z0: float


def normalize_kernel(params: ModelParams, grid: SampleGrid) -> NormalizationReport:
    """Build phi(z) = K(0,0)^(1/2) K(z,0)^(-1) and verify the normalization.

    The transformed kernel Ktilde(z, w) = phi(z) K(z, w) phi(w)^* has
    Ktilde(z, 0) constant in z; the report carries the max deviation of
    phi(z) K(z, 0) phi(0)^* from its value at z = 0 over the grid, along
    with phi(0) = K(0,0)^(-1/2) and the worst cond K(z, 0) over the grid.
    """
    k00 = kernel_full(0.0, 0.0, params)
    root = _hermitian_sqrt(k00)
    phi0 = root @ np.linalg.inv(k00)
    constant = phi0 @ k00 @ phi0.conj().T
    residuals, conds = [], []
    for z in grid.points:
        kz0 = kernel_full(z, 0.0, params)  # once per point: phi(z) inverts it, and the check applies it
        conds.append(float(np.linalg.cond(kz0)))
        if conds[-1] > 1e13:
            raise SingularKernelColumnError(f"cond {conds[-1]:.3g} > 1e13, numerically singular at z = {z}")
        val = root @ np.linalg.inv(kz0) @ kz0 @ phi0.conj().T  # phi(z) K(z, 0) phi(0)^*
        residuals.append(np.linalg.norm(val - constant))
    return NormalizationReport(residual=float(np.max(residuals)), phi0=phi0, cond_k_z0=float(np.max(conds)))
