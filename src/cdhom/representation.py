"""Holomorphically induced representation data and its multipliers.

A model is parameterized by (lam, m, mu): a weight lam with 2*lam > m, a
block size m+1, and positive scale factors mu.  The triangular
representation acts on C^(m+1) through

    rho(h) = diag(-(lam - m/2 + j)),     rho(y) = S_m,

where S_m is the lower shift with (j, j-1) entry equal to j.  Writing
eta = lam - m/2 and rho0(h) = rho(h) + eta*I = diag(-j), the multiplier
attached to g = [[a, b], [c, d]] is

    J0_g(z) = exp(-c/(cz+d) * S_m) . diag((cz+d)^(-2j)),
    J_g(z)  = (g'(z))^eta . J0_g(z),

with all real powers on the principal branch.  The group acts on
C^(m+1)-valued functions by (U_g f)(z) = J_{g^{-1}}(z) f(g^{-1}.z).

The multipliers and the cocycle residual take a scalar point, giving one
(m+1)x(m+1) matrix (or one float), or an array of points, giving
z.shape + (m+1, m+1) (or z.shape) from one batched numpy evaluation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BranchWarning
from .mobius import GroupElement, act, anywhere, denominator, derivative
from .scalars import VectorPolynomial, cpow_principal


@dataclass(frozen=True)
class ModelParams:
    """The triple (lam, m, mu) fixing one operator/kernel family.

    The constructor enforces the positivity regime 2*lam > m; pass
    allow_degenerate=True to build boundary/invalid parameter sets for
    negative testing.
    """

    lam: float
    m: int
    mu: tuple[float, ...]
    allow_degenerate: bool = field(default=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(float(v) for v in self.mu))
        if self.m < 0:
            raise ValueError(f"m must be a nonnegative integer, got {self.m}")
        if not all(math.isfinite(v) for v in (self.lam, *self.mu)):
            raise ValueError(f"lam and mu must be finite, got lam={self.lam}, mu={self.mu}")
        if not math.isfinite(2.0 * self.lam):  # the weights 2*lam_j enter every kernel power
            raise ValueError(f"2*lam overflows the float range (lam = {self.lam})")
        if len(self.mu) != self.m + 1:
            raise ValueError(f"mu must have m+1 = {self.m + 1} entries, got {len(self.mu)}")
        if any(v <= 0 for v in self.mu):
            raise ValueError(f"mu entries must be positive, got {self.mu}")
        if not self.allow_degenerate and not 2.0 * self.lam > self.m:
            raise ValueError(
                f"positivity requires 2*lam > m (got lam={self.lam}, m={self.m}); "
                "pass allow_degenerate=True to override for negative tests"
            )

    @property
    def eta(self) -> float:
        return self.lam - self.m / 2.0

    def lambda_j(self, j: int) -> float:
        """The weight lam - m/2 + j of the j-th irreducible summand."""
        return self.lam - self.m / 2.0 + j

    def mu_array(self) -> np.ndarray:
        return np.asarray(self.mu, dtype=float)


def lower_shift(m: int) -> np.ndarray:
    """S_m: (j, j-1) entry equal to j for 1 <= j <= m, zero elsewhere."""
    s = np.zeros((m + 1, m + 1))
    for j in range(1, m + 1):
        s[j, j - 1] = j
    return s


@dataclass(frozen=True)
class TriangularRep:
    """Realized matrices of the triangular representation on C^(m+1)."""

    m: int
    eta: float
    rho_h: np.ndarray = field(repr=False)
    rho_y: np.ndarray = field(repr=False)
    rho0_h: np.ndarray = field(repr=False)
    d_m: np.ndarray = field(repr=False)

    @classmethod
    def from_params(cls, params: ModelParams) -> "TriangularRep":
        m, eta = params.m, params.eta
        rho0_h = np.diag(-np.arange(m + 1, dtype=float))
        rho_h = rho0_h - eta * np.eye(m + 1)
        rho_y = lower_shift(m)
        # d_m carries the descending diagonal m/2, m/2 - 1, ..., -m/2; it is
        # the unique diagonal making -F act on monomial profiles with the
        # coefficient (2*lam - m + l + n).
        d_m = rho0_h + (m / 2.0) * np.eye(m + 1)
        for arr in (rho0_h, rho_h, rho_y, d_m):
            arr.flags.writeable = False
        rep = cls(m=m, eta=eta, rho_h=rho_h, rho_y=rho_y, rho0_h=rho0_h, d_m=d_m)
        with np.errstate(all="ignore"):  # a huge eta overflows here and surfaces just below
            comm = rho_h @ rho_y - rho_y @ rho_h
        if not np.all(np.isfinite(comm)):
            raise OverflowError(f"[rho(h), rho(y)] is not finite at eta = {eta}")
        # Relative to ||rho(h)||: its diagonal carries -eta, which may be huge.
        if np.max(np.abs(comm + rho_y)) > 1e-14 * max(1.0, float(np.max(np.abs(rho_h)))):
            raise AssertionError("[rho(h), rho(y)] != -rho(y); construction is broken")
        return rep


def _nilpotent_exp(s: np.ndarray, scale) -> np.ndarray:
    """exp(scale * s) for nilpotent s, as the exact finite sum; an array scale gives scale.shape + s.shape."""
    n = s.shape[0]
    out = np.zeros(np.shape(scale) + s.shape, dtype=complex)
    term = np.eye(n, dtype=complex)
    out += term
    for k in range(1, n):
        term = np.asarray(scale / k)[..., None, None] * (term @ s)
        if not term.any():
            break
        out += term
    return out


def multiplier_J0(g: GroupElement, z, rep: TriangularRep) -> np.ndarray:
    """The triangular-part multiplier J0_g(z) on C^(m+1).

    The first factor exp(-c/(cz+d) * S_m) is an exact finite sum; the
    second is diag((cz+d)^(-2j)).  A scalar z gives one (m+1)x(m+1)
    matrix, an array of points z.shape + (m+1, m+1).  PoleError is raised
    if any point is a pole, and one BranchWarning is emitted if
    Re(cz+d) <= 0 at any point, where principal-branch consistency is no
    longer guaranteed.
    """
    den = denominator(g, z)
    if anywhere(den.real <= 0.0):
        warnings.warn(
            f"Re(c*z + d) = {np.min(den.real)} <= 0: principal branch left its safe half-plane",
            BranchWarning,
            stacklevel=2,
        )
    nil = _nilpotent_exp(rep.rho_y, -g.c / den)
    powers = np.asarray(den)[..., None] ** (-2.0 * np.arange(rep.m + 1))
    return nil * powers[..., None, :]


def multiplier_J(g: GroupElement, z, params: ModelParams, rep: TriangularRep) -> np.ndarray:
    """Full multiplier (g'(z))^eta * J0_g(z), of shape z.shape + (m+1, m+1).

    The principal power goes through cmath at a scalar point and numpy
    over an array.  A multiplier that is not finite means the parameters
    leave the float range and raises OverflowError.
    """
    j0 = multiplier_J0(g, z, rep)
    base = derivative(g, z)
    if isinstance(base, complex):  # one point, numpy complex scalars included
        try:
            out = cpow_principal(base, params.eta) * j0
        except OverflowError:  # cmath raises where numpy returns inf; report it as numpy's case below
            out = np.full(j0.shape, np.inf)
    else:
        with np.errstate(all="ignore"):  # overflow surfaces as a non-finite multiplier below
            out = np.exp(params.eta * np.log(base))[..., None, None] * j0
    if not np.isfinite(out).all():
        raise OverflowError(f"the multiplier J_g(z) is not finite at eta = {params.eta}")
    return out


def act_U(g: GroupElement, f, params: ModelParams, rep: TriangularRep):
    """The group action (U_g f)(z) = J_{g^{-1}}(z) f(g^{-1}.z).

    f may be a VectorPolynomial or any callable returning a length-(m+1)
    vector; the result is returned as an evaluable closure since it is not
    polynomial for general g.
    """
    ginv = g.inverse()
    fn = f if callable(f) and not isinstance(f, VectorPolynomial) else f.__call__

    def transformed(z: complex) -> np.ndarray:
        return multiplier_J(ginv, z, params, rep) @ fn(act(ginv, z))

    return transformed


def check_cocycle(
    g: GroupElement,
    h: GroupElement,
    z,
    params: ModelParams,
    rep: TriangularRep,
):
    """Frobenius residual of J_{gh}(z) = J_h(z) J_g(h.z); a float, or an array of z's shape."""
    lhs = multiplier_J(g @ h, z, params, rep)
    rhs = multiplier_J(h, z, params, rep) @ multiplier_J(g, act(h, z), params, rep)
    residual = np.linalg.norm(lhs - rhs, axis=(-2, -1))
    return float(residual) if np.ndim(residual) == 0 else residual
