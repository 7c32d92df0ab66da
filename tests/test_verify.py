"""The check registry: one declaration per report name, in a pinned order, and check scales."""

from collections import Counter

import numpy as np
import pytest

from cdhom import goldens, verify
from cdhom.errors import ConfigError
from cdhom.kernel import kernel_full, kernel_series
from cdhom.mobius import X, X0, X1, Y, Y_LOWER, exp_basis
from cdhom.representation import TriangularRep, check_cocycle
from cdhom.verify import (
    CHECKS,
    DEFAULT_TOLERANCES,
    RunConfig,
    check_cocycle_sweep,
    check_golden_g,
    check_golden_k,
    check_golden_w,
    check_hermitian_symmetry,
    check_kernel_oracle,
    check_monotone_truncation,
    check_normalization,
    check_pd,
    check_qi,
    run_suite,
    seeded_points,
)
from helpers import traced_peak

GENERATORS = (("x", X), ("y", Y_LOWER), ("X0", X0), ("X1", X1), ("Y", Y))

# Report order; byte-identical reports depend on it.
REPORT_ORDER = [
    "hermitian_symmetry", "kernel_oracle", "positive_definite", "quasi_invariance",
    "normalization", "monotone_truncation",
    "golden_g", "golden_w", "golden_k", "adjoint_reproducing", "column_action", "shift_norm_bound",
    "cocycle", "rotation_multiplier_constant", "multiplier_holomorphy", "sl2_commutators",
    "ladder_recursion", "rotation_k_type", "infinitesimal_generators",
    "homogeneity_rotation", "homogeneity_interior", "homogeneity_monotone",
    "representation_unitarity", "calculus_rotation",
]


def test_registry_names_match_tolerances_in_order():
    names = [check.name for check in CHECKS]
    assert names == list(DEFAULT_TOLERANCES) == REPORT_ORDER
    assert len(set(names)) == len(names)


def test_registry_suite_counts():
    assert Counter(check.suite for check in CHECKS) == {"kernel": 6, "shift": 6, "rep": 7, "operator": 5}


def test_kernel_symmetry_checks_are_relative_to_the_kernel_scale():
    cfg = RunConfig(lam=1.6, m=2, mu=(1.0, 0.7, 1.3))
    p, pts = cfg.params(), cfg.grid().points

    def scale(pairs):
        return max(1.0, max(float(np.max(np.abs(kernel_full(z, w, p)))) for z, w in pairs))

    residual, parameters, _ = check_hermitian_symmetry(cfg)
    assert parameters["scale"] == scale([(z, w) for z in pts for w in pts]) > 1.0
    assert residual <= 1e-15  # an ulp of |K| is about 2e-15 here, so the relative residual is below 2e-16
    seeded = seeded_points(cfg.seed + 3, 3, cfg.r_max)
    residual, parameters, _ = check_monotone_truncation(cfg)
    assert parameters["scale"] == scale(zip(seeded, seeded[::-1])) > 1.0
    assert residual <= cfg.tolerance("monotone_truncation")


def test_monotone_truncation_catches_a_deviation_that_grows_with_the_cut(monkeypatch):
    cfg = RunConfig(lam=1.6, m=2, mu=(1.0, 0.7, 1.3))
    assert check_monotone_truncation(cfg)[0] <= cfg.tolerance("monotone_truncation")
    series = verify.kernel_series
    monkeypatch.setattr(verify, "kernel_series", lambda z, w, p, n: series(z, w, p, n) + 1e-9 * n * np.eye(p.m + 1))
    assert check_monotone_truncation(cfg)[0] > cfg.tolerance("monotone_truncation")


def test_positive_definite_is_relative_to_the_gram_scale():
    # max |K| is about 2e16 here, so the min eigenvalue -2.43 is rounding; quasi_invariance is relative too.
    cfg = RunConfig(lam=1.0, m=1, mu=(1e-8, 1e8))
    residual, parameters, _ = check_pd(cfg)
    assert parameters["min_eigenvalue"] < -1.0 and parameters["scale"] > 1e16
    assert residual == -parameters["min_eigenvalue"] / parameters["scale"] <= cfg.tolerance("positive_definite")
    assert check_qi(cfg)[0] <= cfg.tolerance("quasi_invariance")  # its scale reads K at the moved points


def _oracle_deviation(cfg):
    p, pts = cfg.params(), cfg.grid().points
    grid = np.array(pts)
    series = kernel_series(grid[:, None], grid[None, :], p, cfg.truncation)
    full = np.array([[kernel_full(z, w, p) for w in pts] for z in pts])
    return float(np.max(np.abs(series - full))), max(1.0, float(np.max(np.abs(full))))


def test_kernel_oracle_is_relative_to_the_kernel_scale():
    # |K| > 1 on the grid: the deviation is divided by max |K| over the pairs compared.
    cfg = RunConfig(lam=1.6, m=2, mu=(1.0, 0.7, 1.3))
    deviation, scale = _oracle_deviation(cfg)
    residual, parameters, _ = check_kernel_oracle(cfg)
    assert parameters == {"truncation": cfg.truncation, "scale": scale} and scale > 1.0
    assert residual == deviation / scale <= cfg.tolerance("kernel_oracle")
    # |K| <= 1 on the grid (mu_0^2 / (1 - r^2)^(2 lam) < 0.45): the residual is the absolute deviation.
    cfg = RunConfig(lam=1.0, m=0, mu=(0.5,))
    deviation, scale = _oracle_deviation(cfg)
    residual, parameters, _ = check_kernel_oracle(cfg)
    assert parameters["scale"] == scale == 1.0
    assert residual == deviation


def test_normalization_records_the_worst_condition_of_k_z0():
    cfg = RunConfig(lam=1.6, m=2, mu=(1.0, 0.7, 1.3))
    p = cfg.params()
    conds = [float(np.linalg.cond(kernel_full(z, 0.0, p))) for z in cfg.grid().points]
    residual, parameters, _ = check_normalization(cfg)
    assert parameters == {"cond_k_z0": max(conds)} and max(conds) > 1.0
    assert residual <= cfg.tolerance("normalization")
    _, parameters, _ = check_normalization(RunConfig(lam=1.0, m=0, mu=(1.0,)))
    assert parameters["cond_k_z0"] == 1.0  # a 1x1 K(z, 0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_run_config_rejects_tolerance_overrides_that_are_not_finite_and_nonnegative(value):
    with pytest.raises(ConfigError, match="finite and >= 0"):
        RunConfig(lam=1.0, m=1, mu=(1.0, 1.0), tolerances=(("golden_w", value),))
    assert RunConfig(lam=1.0, m=1, mu=(1.0, 1.0), tolerances=(("golden_w", 0.0),)).tolerance("golden_w") == 0.0


def test_cocycle_records_the_worst_pair_and_point():
    cfg = RunConfig(lam=3.7, m=6, mu=(1.0, 0.8, 1.2, 0.9, 1.1, 1.3, 0.7))
    p = cfg.params()
    residual, parameters, _ = check_cocycle_sweep(cfg)
    assert parameters["pairs"] == 100 and parameters["points"] == 17
    labels = {f"exp({t}*{name})": exp_basis(e, t) for name, e in GENERATORS for t in (0.2, -0.13)}
    g, h = (labels[label] for label in parameters["worst_pair"])
    z = complex(*parameters["worst_point"])
    at_worst, scale = check_cocycle(g, h, np.array([z]), p, TriangularRep.from_params(p))  # the array path, as the sweep
    assert at_worst[0] / scale[0] == residual <= cfg.tolerance("cocycle")
    assert parameters["scale"] == scale[0] >= 1.0
    record = next(c for c in run_suite(cfg, "rep").checks if c.name == "cocycle")
    assert record.parameters == parameters


def test_cocycle_sweep_memory_bounded():
    # The multipliers are batched over h and the points, one g at a time; all 100 pairs at once take several MB.
    cfg = RunConfig(lam=3.7, m=6, mu=(1.0, 0.8, 1.2, 0.9, 1.1, 1.3, 0.7))
    assert traced_peak(check_cocycle_sweep, cfg) <= 1.5e6


# Each of these read above its tolerance while the golden checks were absolute.
GOLDEN_REPRODUCERS = [
    (50.0, 2, (1.0, 1.0, 1.0)),
    (20.0, 1, (1.0, 1.0)),
    (1.6, 2, (1.0, 1e-6, 1.0)),
    (1.6, 2, (1.0, 1e6, 1.0)),
    (1.0, 1, (1e-8, 1e8)),
]


@pytest.mark.parametrize("lam,m,mu", GOLDEN_REPRODUCERS)
def test_golden_checks_are_relative_to_the_closed_form_scale(lam, m, mu):
    cfg = RunConfig(lam=lam, m=m, mu=mu)
    ratios = [v / mu[0] for v in mu[1:]]
    closed = {
        "golden_g": lambda where: getattr(goldens, f"g_matrix_m{m}")(where["degree"], lam),
        "golden_w": lambda where: getattr(goldens, f"shift_block_m{m}")(where["degree"], lam, *ratios),
        "golden_k": lambda where: mu[0] ** 2
        * getattr(goldens, f"kernel_m{m}")(*(complex(*z) for z in where["pair"]), lam, *ratios),
    }
    for name, check in (("golden_g", check_golden_g), ("golden_w", check_golden_w), ("golden_k", check_golden_k)):
        residual, parameters, _ = check(cfg)
        assert residual <= 1e-14 and residual <= cfg.tolerance(name), name
        assert parameters["scale"] == max(1.0, float(np.max(np.abs(closed[name](parameters)))))
