"""The check registry: one declaration per report name, in a pinned order, and check scales."""

from collections import Counter

import numpy as np

from cdhom.kernel import kernel_full
from cdhom.verify import (
    CHECKS,
    DEFAULT_TOLERANCES,
    RunConfig,
    check_hermitian_symmetry,
    check_monotone_truncation,
    seeded_points,
)

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
