"""Holomorphically induced representation data and its multipliers.

A model is parameterized by (lam, m, mu): a weight lam with 2*lam > m, a
block size m+1, and positive scale factors mu.  The triangular
representation acts on C^(m+1) through

    rho(h) = diag(-(lam - m/2 + j)),     rho(y) = S_m,

where S_m is the lower shift with (j, j-1) entry equal to j.  Writing
eta = lam - m/2 and rho0(h) = rho(h) + eta*I = diag(-j), the multiplier
attached to g = [[a, b], [c, d]] is

    J_g(z) = (g'(z))^eta . J0_g(z),   J0_g(z) = exp(-c/(cz+d) * S_m) . diag((cz+d)^(-2j)),

with g'(z) = (cz+d)^(-2) and all real powers on the principal branch.
The group acts on C^(m+1)-valued functions by
(U_g f)(z) = J_{g^{-1}}(z) f(g^{-1}.z).

The multiplier and the cocycle residual read their points through
np.asarray(z, dtype=complex), so a scalar point is a 0-d array on the one
numpy path: it gives one (m+1)x(m+1) matrix (or one float), and an array
of points gives z.shape + (m+1, m+1) (or z.shape).
J depends on g only through (c, d), and the nilpotent factor of J0 is
closed form, exp(t S_m)[i, k] = C(i, k) t^(i-k).  Since (lam, m) fix rho,
TriangularRep keeps only m and the Pascal table exp(S_m).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BranchWarning, ConfigError
from .mobius import GroupElement, act, check_pole


@dataclass(frozen=True)
class ModelParams:
    """The triple (lam, m, mu) fixing one operator/kernel family.

    The constructor enforces the positivity regime 2*lam > m, raising
    ConfigError (a ValueError); pass allow_degenerate=True to build
    boundary/invalid parameter sets for negative testing.
    """

    lam: float
    m: int
    mu: tuple[float, ...]
    allow_degenerate: bool = field(default=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(float(v) for v in self.mu))
        if self.m < 0:
            raise ConfigError(f"m must be a nonnegative integer, got {self.m}")
        if not all(math.isfinite(v) for v in (self.lam, *self.mu)):
            raise ConfigError(f"lam and mu must be finite, got lam={self.lam}, mu={self.mu}")
        if not math.isfinite(2.0 * self.lam):  # the weights 2*lam_j enter every kernel power
            raise ConfigError(f"2*lam overflows the float range (lam = {self.lam})")
        if len(self.mu) != self.m + 1:
            raise ConfigError(f"mu must have m+1 = {self.m + 1} entries, got {len(self.mu)}")
        if any(v <= 0 for v in self.mu):
            raise ConfigError(f"mu entries must be positive, got {self.mu}")
        if not self.allow_degenerate and not 2.0 * self.lam > self.m:
            raise ConfigError(
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


@dataclass(frozen=True)
class TriangularRep:
    """The triangular representation on C^(m+1), kept as the one table the multipliers read.

    (lam, m) fix rho(h) = diag(-(eta + j)) and rho(y) = S_m, and the sl(2)
    operators in basis.py read those diagonals from ModelParams.  pascal is
    exp(S_m), the lower-triangular Pascal matrix C(i, k), whose entries give
    every exp(t S_m) in closed form (see _shift_exp).
    """

    m: int
    pascal: np.ndarray = field(repr=False)

    @classmethod
    def from_params(cls, params: ModelParams) -> "TriangularRep":
        m = params.m
        pascal = np.zeros((m + 1, m + 1))
        pascal[:, 0] = 1.0
        for i in range(1, m + 1):  # one row from the last
            pascal[i, 1:] = pascal[i - 1, 1:] + pascal[i - 1, :-1]
        pascal.flags.writeable = False
        return cls(m=m, pascal=pascal)


def _shift_exp(rep: TriangularRep, t) -> np.ndarray:
    """exp(t S_m) in closed form: entry (i, k) is C(i, k) t^(i-k) for i >= k, zero above the diagonal.

    A scalar t gives one (m+1)x(m+1) matrix, an array t.shape + (m+1, m+1).
    """
    idx = np.arange(rep.m + 1)
    powers = np.asarray(t, dtype=complex)[..., None] ** idx  # t^p for p = 0..m; 0^0 = 1
    return rep.pascal * powers[..., np.maximum(idx[:, None] - idx[None, :], 0)]


def _multiplier(c, d, z, rep: TriangularRep, eta: float) -> np.ndarray:
    """The multiplier (cz + d)^(-2 eta) J0 over broadcast c, d and z.

    det g = 1 makes it depend on g only through its second row (c, d):
    g'(z) = (cz + d)^(-2) and J0_g(z) = exp(-c/(cz + d) S_m) diag((cz + d)^(-2j)).
    The result has shape broadcast(c, d, z).shape + (m+1, m+1).
    Raises PoleError at a pole, warns BranchWarning once if Re(cz + d) <= 0
    anywhere, and raises OverflowError if the multiplier is not finite.
    """
    den = c * z + d
    check_pole(den, z)
    if (den.real <= 0.0).any():
        warnings.warn(
            f"Re(c*z + d) = {np.min(den.real)} <= 0: principal branch left its safe half-plane",
            BranchWarning,
            stacklevel=3,
        )
    powers = den[..., None] ** (-2.0 * np.arange(rep.m + 1))
    j0 = _shift_exp(rep, -c / den) * powers[..., None, :]
    with np.errstate(all="ignore"):  # overflow surfaces as a non-finite multiplier below
        out = np.exp(eta * np.log(1.0 / (den * den)))[..., None, None] * j0
    if not np.isfinite(out).all():
        raise OverflowError(f"the multiplier J_g(z) is not finite at eta = {eta}")
    return out


def _require_matching(rep: TriangularRep, params: ModelParams) -> None:
    if rep.m != params.m:
        raise ConfigError(f"rep is built for m = {rep.m}, the model has m = {params.m}")


def multiplier_J(g: GroupElement, z, params: ModelParams, rep: TriangularRep) -> np.ndarray:
    """Full multiplier (g'(z))^eta * J0_g(z), of shape z.shape + (m+1, m+1).

    The power is taken on the principal branch.  Raises PoleError at a pole,
    warns BranchWarning once if Re(cz+d) <= 0 anywhere, and raises
    OverflowError when the parameters leave the float range, and ConfigError when rep
    was built for another m than params.
    """
    _require_matching(rep, params)
    return _multiplier(g.c, g.d, np.asarray(z, dtype=complex), rep, params.eta)


def act_U(g: GroupElement, f, params: ModelParams, rep: TriangularRep):
    """The group action (U_g f)(z) = J_{g^{-1}}(z) f(g^{-1}.z).

    f is any callable returning a length-(m+1) vector, such as a
    VectorPolynomial; the result is returned as an evaluable closure since it
    is not polynomial for general g.
    """
    ginv = g.inverse()

    def transformed(z: complex) -> np.ndarray:
        return multiplier_J(ginv, z, params, rep) @ f(act(ginv, z))

    return transformed


def _entries(g, ndim: int):
    """(a, b, c, d) of one element as scalars, or of a sequence as arrays over a leading axis.

    The arrays get ndim trailing axes of length one, so they broadcast against the points.
    """
    if isinstance(g, GroupElement):
        return g.a, g.b, g.c, g.d
    return np.array([(e.a, e.b, e.c, e.d) for e in g], dtype=complex).T.reshape((4, -1) + (1,) * ndim)


def check_cocycle(g, h, z, params: ModelParams, rep: TriangularRep):
    """Frobenius residual of J_{gh}(z) = J_h(z) J_g(h.z), and its scale max(1, ||J_h(z)||_F ||J_g(h.z)||_F).

    The scale bounds ||J_h(z) J_g(h.z)||_F.  g and h are each one GroupElement or a
    sequence of them.  Both have shape (len g, len h) + z.shape, without the axis of
    a single element, so one pair at a scalar point gives two floats.  The
    multipliers are evaluated once for all h and once per g over all h.
    Raises ConfigError when rep was built for another m than params.
    """
    _require_matching(rep, params)
    z = np.asarray(z, dtype=complex)
    ha, hb, hc, hd = _entries(h, np.ndim(z))
    j_h = _multiplier(hc, hd, z, rep, params.eta)  # checks the poles of h.z
    h_norm = np.linalg.norm(j_h, axis=(-2, -1))
    hz = (ha * z + hb) / (hc * z + hd)

    def measure(gc, gd):
        # The second row of gh is (c_g a_h + d_g c_h, c_g b_h + d_g d_h).
        lhs = _multiplier(gc * ha + gd * hc, gc * hb + gd * hd, z, rep, params.eta)
        j_g = _multiplier(gc, gd, hz, rep, params.eta)
        scale = np.maximum(1.0, h_norm * np.linalg.norm(j_g, axis=(-2, -1)))
        # Divided by the scale before the norm squares it, so entries past 1e154 do not overflow.
        return scale * np.linalg.norm((lhs - j_h @ j_g) / scale[..., None, None], axis=(-2, -1)), scale

    if isinstance(g, GroupElement):
        residual, scale = measure(g.c, g.d)
    else:
        residual, scale = (np.array(part) for part in zip(*(measure(e.c, e.d) for e in g)))
    return (float(residual), float(scale)) if np.ndim(residual) == 0 else (residual, scale)
