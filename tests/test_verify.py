"""The check registry: one declaration per report name, in a pinned order."""

from collections import Counter

from cdhom.verify import CHECKS, DEFAULT_TOLERANCES

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
