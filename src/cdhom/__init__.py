"""Multiplicity-free homogeneous operators on the unit disc.

Construction and numerical verification of the full family: orthonormal
bases of vector-valued polynomials, block weighted-shift matrices, group
multipliers, and matrix-valued reproducing kernels, with golden tests
against the explicit one- and two-block formulas.
"""

from .basis import (
    basis_value_matrix,
    e_basis,
    g_matrix,
    op_E,
    op_F,
    op_H,
    u_closed,
)
from .errors import (
    BranchWarning,
    ConfigError,
    DomainError,
    NormalizationError,
    PoleError,
    SingularKernelColumnError,
    SingularResolventError,
    TruncationLossWarning,
    ZeroBaseError,
)
from .kernel import (
    SampleGrid,
    check_positive_definite,
    check_quasi_invariance,
    default_grid,
    kernel_full,
    kernel_series,
    normalize_kernel,
)
from .mobius import (
    H,
    X,
    X0,
    X1,
    Y,
    Y_LOWER,
    GroupElement,
    LieAlgebraElement,
    act,
    exp_basis,
)
from .operator import (
    TruncatedOperator,
    check_homogeneity,
    mobius_calculus,
    representation_matrix,
    shift_block,
    truncate,
)
from .representation import (
    ModelParams,
    TriangularRep,
    act_U,
    check_cocycle,
    multiplier_J,
)
from .scalars import VectorPolynomial

__version__ = "0.1.0"

__all__ = [
    "BranchWarning",
    "ConfigError",
    "DomainError",
    "GroupElement",
    "H",
    "LieAlgebraElement",
    "ModelParams",
    "NormalizationError",
    "PoleError",
    "SampleGrid",
    "SingularKernelColumnError",
    "SingularResolventError",
    "TriangularRep",
    "TruncatedOperator",
    "TruncationLossWarning",
    "VectorPolynomial",
    "X",
    "X0",
    "X1",
    "Y",
    "Y_LOWER",
    "ZeroBaseError",
    "act",
    "act_U",
    "basis_value_matrix",
    "check_cocycle",
    "check_homogeneity",
    "check_positive_definite",
    "check_quasi_invariance",
    "default_grid",
    "e_basis",
    "exp_basis",
    "g_matrix",
    "kernel_full",
    "kernel_series",
    "mobius_calculus",
    "multiplier_J",
    "normalize_kernel",
    "op_E",
    "op_F",
    "op_H",
    "representation_matrix",
    "shift_block",
    "truncate",
    "u_closed",
]
