"""Verification suites: every structural identity of the family as a check.

Each check evaluates one identity (cocycle, quasi-invariance, golden
closed forms, commutation relations such as [F, T] = -T^2, positive
definiteness, homogeneity at truncation, ...) at explicitly pinned
tolerances and returns a record; the report aggregates them.  Every check
reads the operators as blocks; none assembles a dense matrix.  Reports are byte-stable for a fixed
config and seed: all sampled points are drawn from seeded generators and
no timestamps are recorded.  Checks are declared once, in the registry
`CHECKS`, and run one at a time in registry order.
"""

from __future__ import annotations

import cmath
import json
import math
import platform
from collections.abc import Callable
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from . import __version__, goldens
from .basis import g_table, op_E, op_F, op_H, u_closed
from .errors import ConfigError, NormalizationError, SingularKernelColumnError
from .kernel import (
    SampleGrid,
    _finite_scale,
    _gram_report,
    _kernel_grid,
    _mirror,
    _quasi_invariance_worst,
    default_grid,
    kernel_full,
    kernel_series,
    normalize_kernel,
)
from .mobius import H as H_DIAG, X as X_UPPER, X0, X1, Y, Y_LOWER, GroupElement, exp_basis
from .operator import (
    check_homogeneity,
    mobius_calculus,
    representation_matrix,
    reproducing_coefficients,
    shift_table,
    truncate,
)
from .representation import ModelParams, TriangularRep, act_U, check_cocycle, multiplier_J
from .scalars import VectorPolynomial

SUITES = ("all", "kernel", "shift", "rep", "operator")

_SUBGROUP_TIMES = (0.2, -0.2, 0.11)
_SUBGROUP_ELEMENTS = (("X0", X0), ("X1", X1), ("Y", Y))
_GOLDEN_MAX_DEGREE = 20  # golden_g and golden_w compare the degrees 0..20
# The slot of the run in progress, opened and dropped by run_suite: hermitian_symmetry leaves the read-only
# mirror of its ordered grid there and the later grid checks read it, so a run evaluates K on the grid once.
_RUN_GRID: ContextVar[dict | None] = ContextVar("_RUN_GRID", default=None)


@dataclass(frozen=True)
class RunConfig:
    """The configuration of a verify run: the model parameters and the numerical settings of the checks."""

    lam: float
    m: int
    mu: tuple[float, ...]
    truncation: int = 60
    r_max: float = 0.5
    tolerances: tuple[tuple[str, float], ...] = ()
    seed: int = 20260810
    allow_degenerate: bool = False

    def __post_init__(self):
        if self.truncation < 1:
            raise ConfigError(f"truncation must be >= 1, got {self.truncation}")
        if not 0.0 < self.r_max < 1.0:
            raise ConfigError(f"r_max must lie in (0, 1), got {self.r_max}")
        if self.seed < 0:  # numpy's generators take only nonnegative seeds
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        unknown = [k for k, _ in self.tolerances if k not in DEFAULT_TOLERANCES]
        if unknown:
            raise ConfigError(f"unknown tolerance override(s): {unknown}")
        invalid = [f"{k}={v!r}" for k, v in self.tolerances if not (math.isfinite(v) and v >= 0.0)]
        if invalid:  # a report must be valid JSON, and a negative bound fails every check
            raise ConfigError(f"tolerance overrides must be finite and >= 0, got {invalid}")
        self.params()  # raises ConfigError on invalid model parameters

    def params(self) -> ModelParams:
        return ModelParams(
            lam=self.lam, m=self.m, mu=self.mu, allow_degenerate=self.allow_degenerate
        )

    def tolerance(self, name: str) -> float:
        return dict(self.tolerances).get(name, DEFAULT_TOLERANCES[name])

    def grid(self) -> SampleGrid:
        return default_grid(self.r_max)


@dataclass(frozen=True)
class CheckResult:
    name: str
    parameters: dict
    residual: float
    tolerance: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    config: dict
    environment: dict
    checks: tuple[CheckResult, ...]
    passed: bool

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "environment": self.environment,
            "checks": [
                {
                    "name": c.name,
                    "parameters": c.parameters,
                    "residual": c.residual if math.isfinite(c.residual) else None,
                    "tolerance": c.tolerance,
                    "passed": c.passed,
                    "note": c.note,
                }
                for c in self.checks
            ],
            "passed": self.passed,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        lines = ["name,residual,tolerance,passed"]
        for c in self.checks:
            residual = repr(c.residual) if math.isfinite(c.residual) else ""  # empty where the JSON has null
            lines.append(f"{c.name},{residual},{c.tolerance!r},{str(c.passed).lower()}")
        lines.append(f"overall,,,{str(self.passed).lower()}")
        return "\n".join(lines) + "\n"


# A check function measures one identity and returns (residual, parameters, note).
Measurement = tuple[float, dict, str]


@dataclass(frozen=True)
class Check:
    """One registry entry: suite, report name, default tolerance and check function."""

    suite: str
    name: str
    tolerance: float
    fn: Callable[[RunConfig], Measurement]


def _measured(residual: float, note: str = "", **parameters) -> Measurement:
    return residual, parameters, note


def _subgroup_elements():
    for name, elem in _SUBGROUP_ELEMENTS:
        for t in _SUBGROUP_TIMES:
            yield f"exp({t}*{name})", exp_basis(elem, t)


def seeded_points(seed: int, count: int, r: float = 0.5) -> list[complex]:
    """`count` points of the closed disc |z| <= r, rejection-sampled from a seeded generator."""
    rng = np.random.default_rng(seed)
    pts: list[complex] = []
    while len(pts) < count:
        z = complex(rng.uniform(-r, r), rng.uniform(-r, r))
        if abs(z) <= r:
            pts.append(z)
    return pts


# ---------------------------------------------------------------- kernel suite


def _run_kernel_grid(cfg: RunConfig) -> np.ndarray:
    """K on the grid of cfg as kernel._kernel_grid gives it: the run's shared grid, or a new evaluation."""
    shared = (_RUN_GRID.get() or {}).get("grid")
    return _kernel_grid(cfg.grid().points, cfg.params()) if shared is None else shared


def _grid_pair(points, i: int, k: int) -> list[list[float]]:
    """The grid points z_i and z_k as [[re, im], [re, im]]."""
    return [[float(x.real), float(x.imag)] for x in (points[i], points[k])]


def check_hermitian_symmetry(cfg: RunConfig) -> Measurement:
    """max |K(z, w) - K(w, z)^*| over grid pairs, relative to max(1, max |K|) over finite entries, with the worst pair.

    This licenses the mirror of kernel._kernel_grid, so it evaluates K at every ordered pair (shared in a run).
    """
    p, pts = cfg.params(), cfg.grid().points
    full = np.array([[kernel_full(z, w, p) for w in pts] for z in pts])
    if (slot := _RUN_GRID.get()) is not None:
        slot["grid"] = _mirror(full.copy())
        slot["grid"].flags.writeable = False
    asym = np.max(np.abs(full - full.transpose(1, 0, 3, 2).conj()), axis=(2, 3))
    i, k = np.unravel_index(np.argmax(asym), asym.shape)  # the first of a mirrored pair, or the first NaN
    scale = _finite_scale(full)
    return _measured(float(asym[i, k]) / scale, points=len(pts), pair=_grid_pair(pts, i, k), scale=scale)


def check_kernel_oracle(cfg: RunConfig) -> Measurement:
    """max |series - K| over grid pairs, relative to max(1, max |K|) over finite entries, with the worst pair."""
    p, pts = cfg.params(), cfg.grid().points
    grid = np.array(pts)
    series = kernel_series(grid[:, None], grid[None, :], p, cfg.truncation)
    full = _run_kernel_grid(cfg)
    dev = np.max(np.abs(series - full), axis=(2, 3))
    i, k = np.unravel_index(np.argmax(dev), dev.shape)
    scale = _finite_scale(full)
    return _measured(float(dev[i, k]) / scale, truncation=cfg.truncation, pair=_grid_pair(pts, i, k), scale=scale)


def check_pd(cfg: RunConfig) -> Measurement:
    """The most negative Gram eigenvalue, relative to the Gram's scale max(1, max |K|) over the grid.

    A non-finite K leaves no eigenvalue: the residual is NaN and min_eigenvalue null.
    """
    report = _gram_report(_run_kernel_grid(cfg))
    return _measured(
        float(np.maximum(0.0, -report.min_eigenvalue)) / report.scale,  # keeps a NaN, which max(0.0, nan) drops
        min_eigenvalue=report.min_eigenvalue if math.isfinite(report.min_eigenvalue) else None,
        gram_size=report.gram_size,
        scale=report.scale,
    )


def check_qi(cfg: RunConfig) -> Measurement:
    """The worst quasi-invariance residual over the subgroup elements and grid pairs, with where it sits.

    Each pair is relative to max(1, ||J_g(z)||_F ||K(g.z, g.w)||_F ||J_g(w)||_F), the scale the
    cocycle check also uses, so the check means the same at mu = 1e-8, 1e8 and at m = 12.  The
    record names the element, the grid pair (z, w) as [[re, im], [re, im]] and that pair's scale.
    """
    p, grid = cfg.params(), cfg.grid()
    rep = TriangularRep.from_params(p)
    labels, elements = zip(*_subgroup_elements())
    found = _quasi_invariance_worst(elements, grid, p, rep, _run_kernel_grid(cfg))
    e = int(np.argmax([worst for worst, *_ in found]))  # the first element at the largest (or a NaN) residual
    worst, i, k, scale = found[e]
    return _measured(worst, worst_element=labels[e], pair=_grid_pair(grid.points, i, k), scale=scale)


def check_normalization(cfg: RunConfig) -> Measurement:
    """Constancy of phi(z) K(z, 0) phi(0)^* over the grid, with the worst cond K(z, 0).

    phi(z) K(z, 0) is root inv(A) A with A = K(z, 0), so no fault in K moves it:
    it measures only the rounding of inv(A) A.
    """
    report = normalize_kernel(cfg.params(), cfg.grid())
    return _measured(report.residual, cond_k_z0=report.cond_k_z0)


def check_monotone_truncation(cfg: RunConfig) -> Measurement:
    """Largest rise of the series' deviation from K between cuts 10, 20, ..., relative to max(1, max |K|)."""
    p = cfg.params()
    pts = seeded_points(cfg.seed + 3, 3, cfg.r_max)
    cuts = list(range(10, cfg.truncation + 1, 10))
    if not cuts:
        return _measured(0.0)
    refs = np.array([kernel_full(z, w, p) for z, w in zip(pts, pts[::-1])])
    z, w = np.array(pts), np.array(pts[::-1])
    devs = [np.max(np.abs(kernel_series(z, w, p, cut) - refs), axis=(1, 2)) for cut in cuts]  # [cut][pair]
    scale = max(1.0, float(np.max(np.abs(refs))))
    return _measured(max(0.0, float(np.max(np.diff(devs, axis=0), initial=0.0))) / scale, scale=scale)


# ----------------------------------------------------------------- shift suite


def _mu_ratios(p: ModelParams) -> tuple[float, ...]:
    return tuple(mu / p.mu[0] for mu in p.mu[1:])


def _closed(family: str, p: ModelParams):
    """The explicit closed form `goldens.<family>_m1` or `_m2` for this m."""
    return getattr(goldens, f"{family}_m{p.m}")


def _degrees(cfg: RunConfig) -> list[tuple[dict, tuple]]:
    return [({"degree": n}, (n,)) for n in range(_GOLDEN_MAX_DEGREE + 1)]


def _point_pairs(cfg: RunConfig) -> list[tuple[dict, tuple]]:
    pairs = zip(seeded_points(cfg.seed + 1, 10, cfg.r_max), seeded_points(cfg.seed + 2, 10, cfg.r_max))
    return [({"pair": [[z.real, z.imag], [w.real, w.imag]]}, (z, w)) for z, w in pairs]


def _golden_check(samples, general, closed_form) -> Callable[[RunConfig], Measurement]:
    """Max |general - closed_form(p, *args)| over the samples, each relative to max(1, max |closed form|).

    general(p, args) evaluates the general side once for the list of sample arguments and
    returns one value per sample, in order.  Records where the worst sample sits (its degree
    or point pair) and its scale; a NaN sample is the worst, so it fails with a null residual.
    """

    def check(cfg: RunConfig) -> Measurement:
        p = cfg.params()
        if p.m not in (1, 2):
            return _measured(0.0, "explicit closed forms exist only for m in {1, 2}; skipped", covered=False)
        if 2 * p.lam <= p.m:
            raise NormalizationError(f"closed forms need 2*lam > m (2*lam = {2 * p.lam}, m = {p.m})")
        wheres, args = zip(*samples(cfg))
        rows = []
        for where, arg, value in zip(wheres, args, general(p, args)):
            closed = closed_form(p, *arg)
            scale = max(1.0, float(np.max(np.abs(closed))))
            rows.append((float(np.max(np.abs(value - closed))) / scale, where, scale))
        worst, where, scale = rows[int(np.argmax([row[0] for row in rows]))]  # the first largest, or the first NaN
        return _measured(worst, covered=True, scale=scale, **where)

    return check


# The general-m construction against the explicit m = 1, 2 closed forms.  G(n) and W(n)
# are the rows of one table each, and a row does not depend on the table's length.  The
# lambdas look functions up at call time, so wrappers installed on module names (as the
# benchmark's tracer does) see every call.
check_golden_g = _golden_check(
    _degrees,
    lambda p, degrees: g_table(_GOLDEN_MAX_DEGREE, p),
    lambda p, n: _closed("g_matrix", p)(n, p.lam),
)
check_golden_w = _golden_check(
    _degrees,
    lambda p, degrees: shift_table(_GOLDEN_MAX_DEGREE, p),
    lambda p, n: _closed("shift_block", p)(n, p.lam, *_mu_ratios(p)),
)
check_golden_k = _golden_check(
    _point_pairs,
    lambda p, pairs: [kernel_full(z, w, p) for z, w in pairs],
    lambda p, z, w: p.mu[0] ** 2 * _closed("kernel", p)(z, w, p.lam, *_mu_ratios(p)),
)


def check_adjoint(cfg: RunConfig) -> Measurement:
    p = cfg.params()
    t_op = truncate(p, cfg.truncation)
    rng = np.random.default_rng(cfg.seed + 4)
    worst = 0.0
    for w in seeded_points(cfg.seed + 5, 4, 0.3):
        xi = rng.standard_normal(p.m + 1) + 1j * rng.standard_normal(p.m + 1)
        c = reproducing_coefficients(w, xi, p, cfg.truncation)
        resid = t_op.apply_adjoint(c) - np.conjugate(w) * c
        worst = max(worst, float(np.linalg.norm(resid) / np.linalg.norm(c)))
    return _measured(worst, truncation=cfg.truncation)


def check_column_action(cfg: RunConfig) -> Measurement:
    """G(n+1) D(mu) W(n) = G(n) D(mu) for n < truncation, relative to max(1, max |G(n) D(mu)|) per degree.

    The shift from [E, T] = -I against the G(n) route; records the worst degree and its scale.
    """
    p = cfg.params()
    scaled = g_table(cfg.truncation, p) * p.mu_array()  # G(n) D(mu)
    resid = np.max(np.abs(scaled[1:] @ shift_table(cfg.truncation - 1, p) - scaled[:-1]), axis=(1, 2))
    scales = np.maximum(1.0, np.max(np.abs(scaled[:-1]), axis=(1, 2)))
    degree = int(np.argmax(resid / scales))
    return _measured(float(resid[degree] / scales[degree]), degree=degree, scale=float(scales[degree]))


def check_commutator_f(cfg: RunConfig) -> Measurement:
    """[F, T] = -T^2 on the blocks of T_N: F_(n+1) W(n) - W(n+1) F_n + W(n+1) W(n) for degrees n <= N - 2.

    F_n = -diag_j(e_(n+1)[j]) = E_(n+1)^T takes degree n to n + 1, with e_n[j] = sqrt(K (2*lam_j + K - 1)),
    K = n - j, computed here from lam_j and not read from shift_table, so a wrong weight there shows.
    The largest entry over the active columns j <= n is relative to max e * max_n ||W(n)||_F (finite
    norms only), and the record names the worst degree and that scale.  A NaN fails with a null residual.
    """
    p, n_trunc = cfg.params(), cfg.truncation
    if n_trunc < 2:
        return _measured(0.0, f"[F, T] = -T^2 maps degree n to n + 2: truncation {n_trunc} < 2 has no such block")
    w = shift_table(n_trunc - 1, p)  # W(0), ..., W(N-1), the blocks of T_N
    cols = np.arange(p.m + 1)
    big_k = np.maximum(np.arange(n_trunc + 1)[:, None] - cols, 0)
    e = np.sqrt(big_k * np.maximum(2.0 * p.lam - p.m + 2 * cols + big_k - 1, 0.0))  # e[n, j], n <= N
    resid = w[1:] * e[1:-1, None, :] - e[2:, :, None] * w[:-1] + w[1:] @ w[:-1]  # [n, row, column]
    resid = np.where(cols <= np.arange(n_trunc - 1)[:, None, None], np.abs(resid), 0.0)  # active columns j <= n
    norms = np.linalg.norm(w, axis=(1, 2))
    scale = float(np.max(e)) * float(np.max(norms, where=np.isfinite(norms), initial=0.0))
    per_degree = np.max(resid, axis=(1, 2))
    degree = int(np.argmax(per_degree))  # the first degree at the largest (or a NaN) residual
    return _measured(float(per_degree[degree]) / scale, degree=degree, scale=scale)


# ------------------------------------------------------------------- rep suite


def check_cocycle_sweep(cfg: RunConfig) -> Measurement:
    """Largest cocycle residual over 100 element pairs and 17 points, with the pair, point and scale where it sits.

    Each residual is relative to max(1, ||J_h(z)||_F ||J_g(h.z)||_F), the bound ||AB||_F <= ||A||_F ||B||_F.
    """
    p = cfg.params()
    rep = TriangularRep.from_params(p)
    generators = (("x", X_UPPER), ("y", Y_LOWER), ("X0", X0), ("X1", X1), ("Y", Y))
    labels, elements = zip(*[(f"exp({t}*{name})", exp_basis(e, t)) for name, e in generators for t in (0.2, -0.13)])
    zs = [complex(zr, zi) for zr in (-0.5, -0.25, 0.0, 0.25, 0.5) for zi in (-0.3, -0.1, 0.0, 0.2, 0.35)]
    zs = np.array([z for z in zs if abs(z) <= 0.5][:25])
    residuals, scales = check_cocycle(elements, elements, zs, p, rep)  # [g, h, point]
    relative = residuals / scales
    i, k, s = np.unravel_index(np.argmax(relative), relative.shape)
    return _measured(
        float(relative[i, k, s]),
        pairs=len(elements) ** 2,
        points=len(zs),
        worst_pair=[labels[i], labels[k]],
        worst_point=[float(zs[s].real), float(zs[s].imag)],
        scale=float(scales[i, k, s]),
    )


def check_rotation_multiplier(cfg: RunConfig) -> Measurement:
    p = cfg.params()
    rep = TriangularRep.from_params(p)
    worst = 0.0
    for theta in (0.15, -0.3):
        k = GroupElement.rotation(theta)
        j0_inv = np.linalg.inv(multiplier_J(k, 0.0, p, rep))
        dev = multiplier_J(k, cfg.grid().points, p, rep) @ j0_inv - np.eye(p.m + 1)
        worst = max(worst, float(np.max(np.abs(dev))))
    return _measured(worst)


def check_holomorphy(cfg: RunConfig) -> Measurement:
    """max |dJ/dx - dJ/(i dy)| for J_g by central differences at four seeded points.

    J is the multiplier the cocycle needs; its factor (g')^eta is holomorphic where Re(cz + d) > 0.
    """
    p = cfg.params()
    rep = TriangularRep.from_params(p)
    g = exp_basis(X1, 0.17)
    h = 1e-6
    zs = np.array(seeded_points(cfg.seed + 7, 4, cfg.r_max))
    dx = (multiplier_J(g, zs + h, p, rep) - multiplier_J(g, zs - h, p, rep)) / (2 * h)
    dy = (multiplier_J(g, zs + 1j * h, p, rep) - multiplier_J(g, zs - 1j * h, p, rep)) / (2j * h)
    return _measured(float(np.max(np.abs(dx - dy))))


def _test_polynomials(p: ModelParams, seed: int, degree: int = 15, count: int = 3) -> np.ndarray:
    """count random complex polynomials of the given degree, stacked as coefficients c[b, d, l]."""
    parts = np.random.default_rng(seed).standard_normal((count, 2, degree + 1, p.m + 1))
    return parts[:, 0] + 1j * parts[:, 1]


def check_sl2(cfg: RunConfig) -> Measurement:
    """[H, E] = E, [H, F] = -F and [E, F] = -2H on three degree-15 polynomials, with the worst relation and scale.

    Each relation on each polynomial is relative to max(1, the largest max |coeff| of its three
    terms), since H and F scale a coefficient by about lam + degree.
    """
    p = cfg.params()
    f = _test_polynomials(p, cfg.seed + 8)
    e_f, h_f, f_f = op_E(f), op_H(f, p), op_F(f, p)
    relations = {  # name: (the two products of the commutator, the right side)
        "[H,E]=E": (op_H(e_f, p), op_E(h_f), e_f),
        "[H,F]=-F": (op_H(f_f, p), op_F(h_f, p), -f_f),
        "[E,F]=-2H": (op_E(f_f), op_F(e_f, p), -2.0 * h_f),
    }

    def peak(c):
        return np.max(np.abs(c), axis=(1, 2))  # per polynomial

    dev = np.array([peak(ab - ba - rhs) for ab, ba, rhs in relations.values()])  # [relation, polynomial]
    scales = np.array([np.maximum(1.0, np.max([peak(t) for t in terms], axis=0)) for terms in relations.values()])
    relative = dev / scales
    r, b = np.unravel_index(np.argmax(relative), relative.shape)
    return _measured(float(relative[r, b]), degree=15, relation=list(relations)[r], scale=float(scales[r, b]))


def check_ladder_recursion(cfg: RunConfig) -> Measurement:
    """(-F)^n eps_j, stepped by op_F and an exact negation, against u_closed (n <= 15), relative to max(1, max |u|).

    The m+1 ladders step together as one stack c[j, d, l].
    """
    p = cfg.params()
    js = np.arange(p.m + 1)
    current = u_closed(js, 0, p)
    dev = []
    for n in range(1, 16):
        current = -op_F(current, p)
        ref = u_closed(js, n, p)
        dev.append(np.max(np.abs(current - ref), axis=(1, 2)) / np.maximum(np.max(np.abs(ref), axis=(1, 2)), 1.0))
    return _measured(float(np.max(dev)), max_n=15)


def check_k_type(cfg: RunConfig) -> Measurement:
    p = cfg.params()
    rep = TriangularRep.from_params(p)
    g = GroupElement.rotation(0.4)
    worst = 0.0
    z0 = 0.31 + 0.12j
    for j in range(p.m + 1):
        for n in (j, j + 2):
            mono = VectorPolynomial.monomial(p.m, j, n)
            vals = act_U(g, mono, p, rep)(z0)
            ref = mono(z0)
            # Relative to the monomial's own size |z0|^n, so a high degree neither empties nor zeroes the check.
            worst = max(worst, float(np.max(np.abs(np.abs(vals) - np.abs(ref))) / np.max(np.abs(ref))))
    return _measured(worst)


def check_infinitesimal(cfg: RunConfig) -> Measurement:
    p = cfg.params()
    rep = TriangularRep.from_params(p)
    c = _test_polynomials(p, cfg.seed + 9, degree=6, count=1)[0]
    f = VectorPolynomial(c)
    h = 1e-6
    worst = 0.0
    cases = [
        (X_UPPER, op_E(c)),
        (H_DIAG, op_H(c, p)),
        (Y_LOWER, -op_F(c, p)),  # d/dt U_{exp(tY_-)} = U_y = -F
    ]
    for elem, expected in cases:
        for z in (0.3, 0.18 - 0.22j):
            up = act_U(exp_basis(elem, h), f, p, rep)(z)
            dn = act_U(exp_basis(elem, -h), f, p, rep)(z)
            fd = (up - dn) / (2 * h)
            worst = max(worst, float(np.max(np.abs(fd - VectorPolynomial(expected)(z)))))
    return _measured(worst, step=h)


# -------------------------------------------------------------- operator suite


def check_homog_rotation(cfg: RunConfig) -> Measurement:
    """Homogeneity at N = 40 for two rotations: a rotation check of the representation code.

    Every graded block shift is rotation-circular, whatever its W(n), so this cannot see T.
    """
    p = cfg.params()
    rep = TriangularRep.from_params(p)
    worst, worst_g = max(
        (check_homogeneity(GroupElement.rotation(t), p, rep, 40), f"rotation({t})") for t in (0.3, -0.45)
    )
    return _measured(worst, truncation=40, worst_element=worst_g)


def check_homog_interior(cfg: RunConfig) -> Measurement:
    """Homogeneity at N = 40, guard band 5, for exp(0.05 X1) and exp(0.05 Y), both residuals recorded.

    A rotation conjugates one element into the other, so their residuals agree to rounding and
    the record names no worst element.
    """
    p = cfg.params()
    rep = TriangularRep.from_params(p)
    residuals = {
        f"exp(0.05*{name})": check_homogeneity(exp_basis(elem, 0.05), p, rep, 40)
        for name, elem in (("X1", X1), ("Y", Y))
    }
    return _measured(max(residuals.values()), truncation=40, guard_band=5, residuals=residuals)


def check_homog_monotone(cfg: RunConfig) -> Measurement:
    """Largest rise of the homogeneity residual of exp(0.05 X1) over N = 20, 40, 60.

    It reads 0 at every model measured, and still reads 0 under a wrong W(3).
    """
    p = cfg.params()
    rep = TriangularRep.from_params(p)
    g = exp_basis(X1, 0.05)
    seq = [check_homogeneity(g, p, rep, n, window=15) for n in (20, 40, 60)]
    worst_increase = max(b - a for a, b in zip(seq, seq[1:]))
    return _measured(
        max(0.0, worst_increase),
        residuals={f"N{n}": s for n, s in zip((20, 40, 60), seq)},
        window=15,
    )


def check_unitarity(cfg: RunConfig) -> Measurement:
    """Frobenius norm of U^*U - I on the slots of degree <= N - guard, one component U_j at a time.

    U_g is block diagonal in j, so U^*U is too: its block j is U_j^*U_j, and the slots of
    component j with degree <= N - guard are the columns K <= N - guard - j of U_j.
    """
    p = cfg.params()
    rep = TriangularRep.from_params(p)
    n_trunc, guard = 40, 10
    window = n_trunc - guard
    worst, loss = 0.0, 0.0
    for g in (GroupElement.rotation(0.3), exp_basis(X1, 0.1), exp_basis(Y, -0.1)):
        res = representation_matrix(g, p, rep, n_trunc)
        total = 0.0
        for j in range(min(p.m, window) + 1):
            u_j = res.blocks[: n_trunc + 1 - j, : window + 1 - j, j]
            total += float(np.linalg.norm(u_j.conj().T @ u_j - np.eye(window + 1 - j))) ** 2
        worst = max(worst, math.sqrt(total))
        loss = max(loss, res.truncation_loss)
    return _measured(worst, truncation=n_trunc, guard_band=guard, truncation_loss=loss)


def check_calculus_rotation(cfg: RunConfig) -> Measurement:
    """max |g(T) - e^(i theta) T| for rotations g, on the degree blocks: W(n) sits at (n+1, n), zeros elsewhere.

    A rotation check of the calculus code: g(T) = e^(i theta) T for every block shift, so this cannot see T.
    """
    p = cfg.params()
    n_trunc, size = min(cfg.truncation, 40), p.m + 1
    t_op = truncate(p, n_trunc)
    sub = (np.arange(1, n_trunc + 1), slice(None), np.arange(n_trunc), slice(None))  # the blocks (n+1, n)
    worst = 0.0
    for theta in (0.3, -0.7):
        g_of_t = mobius_calculus(GroupElement.rotation(theta), t_op).reshape(n_trunc + 1, size, n_trunc + 1, size)
        g_of_t[sub] -= cmath.exp(1j * theta) * t_op.blocks
        worst = max(worst, float(np.max(np.abs(g_of_t))))
    return _measured(worst)


# Every check is declared here once; registry order is report order.
CHECKS = (
    Check("kernel", "hermitian_symmetry", 1e-12, check_hermitian_symmetry),
    Check("kernel", "kernel_oracle", 1e-8, check_kernel_oracle),
    Check("kernel", "positive_definite", 1e-10, check_pd),
    Check("kernel", "quasi_invariance", 1e-8, check_qi),
    Check("kernel", "normalization", 1e-10, check_normalization),
    Check("kernel", "monotone_truncation", 1e-12, check_monotone_truncation),
    Check("shift", "golden_g", 1e-12, check_golden_g),
    Check("shift", "golden_w", 1e-12, check_golden_w),
    Check("shift", "golden_k", 1e-10, check_golden_k),
    Check("shift", "adjoint_reproducing", 1e-6, check_adjoint),
    Check("shift", "column_action", 1e-12, check_column_action),
    Check("shift", "commutator_F", 1e-12, check_commutator_f),
    Check("rep", "cocycle", 1e-10, check_cocycle_sweep),
    Check("rep", "rotation_multiplier_constant", 1e-10, check_rotation_multiplier),
    Check("rep", "multiplier_holomorphy", 1e-6, check_holomorphy),
    Check("rep", "sl2_commutators", 1e-10, check_sl2),
    Check("rep", "ladder_recursion", 1e-10, check_ladder_recursion),
    Check("rep", "rotation_k_type", 1e-10, check_k_type),
    Check("rep", "infinitesimal_generators", 1e-6, check_infinitesimal),
    Check("operator", "homogeneity_rotation", 1e-10, check_homog_rotation),
    Check("operator", "homogeneity_interior", 1e-4, check_homog_interior),
    Check("operator", "homogeneity_monotone", 1e-12, check_homog_monotone),
    Check("operator", "representation_unitarity", 1e-6, check_unitarity),
    Check("operator", "calculus_rotation", 1e-12, check_calculus_rotation),
)

DEFAULT_TOLERANCES = {check.name: check.tolerance for check in CHECKS}


def _max_workers() -> int:
    # Checks run serially.  Kept only because the benchmark records it as provenance.
    return 1


def _environment() -> dict:
    return {
        "package": "cdhom",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _config_echo(cfg: RunConfig, suite: str) -> dict:
    return {
        "lambda": cfg.lam,
        "m": cfg.m,
        "mu": list(cfg.mu),
        "truncation": cfg.truncation,
        "r_max": cfg.r_max,
        "seed": cfg.seed,
        "allow_degenerate": cfg.allow_degenerate,
        "suite": suite,
        "tolerance_overrides": {k: v for k, v in cfg.tolerances},
    }


def _run_check(check: Check, cfg: RunConfig) -> CheckResult:
    """Run one check and stamp its registered name and tolerance onto the record."""
    try:
        residual, parameters, note = check.fn(cfg)
    except SingularKernelColumnError as exc:
        residual, parameters, note = float("inf"), {}, f"ill-conditioned K(z, 0): {exc}"
    except NormalizationError as exc:
        residual, parameters, note = float("inf"), {}, f"degenerate normalization: {exc}"
    tol = cfg.tolerance(check.name)
    return CheckResult(
        name=check.name,
        parameters=parameters,
        residual=float(residual),
        tolerance=tol,
        passed=bool(residual <= tol),
        note=note,
    )


def run_suite(cfg: RunConfig, suite: str = "all") -> VerificationReport:
    """Run the selected checks one at a time, in registry order, and assemble the report."""
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {SUITES}")
    token = _RUN_GRID.set({})
    try:
        results = [_run_check(check, cfg) for check in CHECKS if suite in ("all", check.suite)]
    finally:
        _RUN_GRID.reset(token)
    return VerificationReport(
        config=_config_echo(cfg, suite),
        environment=_environment(),
        checks=tuple(results),
        passed=all(c.passed for c in results),
    )
