"""Fault catalogue: each verify check must fail under at least one planted fault.

A fault is a monkeypatch of one ingredient of the program.  For every fault the
test pins which checks of a suite fail at the model (1.6, 2, mu = (1, 0.7, 1.3));
the other checks of the suite cannot see that fault.  The rep faults sit in the
multiplier J, the Pascal table exp(S_m) and the sl(2) operators H and F, patched
at their (c, params) signatures on coefficient arrays.  The kernel faults sit in
one D_j entry, one lam_j inside K_j, the mu-weighting of K, one G(n) entry that
reaches the series oracle and one Leibniz term of the derivative form.  The
shift and operator faults sit in one W(n) entry, one G(n) entry, the
mu-weighting of K, one U_j entry and one Taylor coefficient of g(T).  A check
that no fault can move is listed in CANNOT_FAIL with the reason.
"""

import dataclasses

import numpy as np
import pytest

from cdhom import basis, kernel, operator, representation, verify
from cdhom.representation import TriangularRep

CFG = verify.RunConfig(lam=1.6, m=2, mu=(1.0, 0.7, 1.3))
SUITE_CHECKS = {suite: {c.name for c in verify.CHECKS if c.suite == suite} for suite in verify.SUITES[1:]}


def _wrap_multiplier(monkeypatch, shift_eta=0.0, shift_den=None):
    """Run J with eta + shift_eta and the denominator cz + d + shift_den(z)."""
    original = representation._multiplier

    def faulty(c, d, z, rep, eta):
        if shift_den is not None:
            d = d + shift_den(z)
        return original(c, d, z, rep, eta + shift_eta)

    monkeypatch.setattr(representation, "_multiplier", faulty)


def _eta_in_j(monkeypatch):
    _wrap_multiplier(monkeypatch, shift_eta=0.01)


def _pascal_entry(monkeypatch):
    original = TriangularRep.from_params.__func__

    def from_params(cls, params):
        pascal = original(cls, params).pascal.copy()
        pascal[2, 1] += 0.01  # C(2, 1) = 2
        return cls(m=params.m, pascal=pascal)

    monkeypatch.setattr(TriangularRep, "from_params", classmethod(from_params))


def _op_h_component(monkeypatch):
    original = basis.op_H

    def op_h(c, params):
        out = original(c, params)
        out[..., 1] *= 1.01
        return out

    monkeypatch.setattr(verify, "op_H", op_h)


def _shift_weight_in_f(monkeypatch):
    original = basis.op_F

    def op_f(c, params):
        out = original(c, params)
        out[..., :-1, 2] -= 0.01 * c[..., 1]  # the S_m weight moving component 1 to 2 reads 2.01 in -F
        return out

    monkeypatch.setattr(verify, "op_F", op_f)


def _denominator_z(monkeypatch):
    _wrap_multiplier(monkeypatch, shift_den=lambda z: 0.01 * z)


def _denominator_abs_z2(monkeypatch):
    _wrap_multiplier(monkeypatch, shift_den=lambda z: 0.01 * (z * z.conj()))


def _w_entry(monkeypatch):
    original = operator.shift_table

    def shift_table(n_max, params):
        table = original(n_max, params)
        if n_max >= 3:
            table[3, 2, 1] *= 1.01  # W(3)[2, 1], below the diagonal
        return table

    for module in (operator, verify):
        monkeypatch.setattr(module, "shift_table", shift_table)


def _g_entry(monkeypatch):
    original = basis._ladder_coefficients

    def ladder_coefficients(n_max, params):
        table = original(n_max, params)
        if n_max >= 3:
            table[3, 1, 0] *= 1.01  # G(3)[1, 0]
        return table

    monkeypatch.setattr(basis, "_ladder_coefficients", ladder_coefficients)


def _d0_entry(monkeypatch):
    original = kernel.d_j_diagonal

    def d_j_diagonal(j, params):
        out = original(j, params)
        if j == 0:
            out[1, 1] *= 1.01  # D_0[1, 1]
        return out

    monkeypatch.setattr(kernel, "d_j_diagonal", d_j_diagonal)


def _lam1_in_k1(monkeypatch):
    original = kernel.kernel_Kj

    def kernel_kj(j, z, w, params):
        return original(j, z, w, dataclasses.replace(params, lam=params.lam + 0.05) if j == 1 else params)

    monkeypatch.setattr(kernel, "kernel_Kj", kernel_kj)


def _leibniz_term(monkeypatch):
    original = kernel._deriv_power_entry

    def deriv_power_entry(a, b, beta, z, w):
        # del^1 delbar^0 moves and its mirror del^0 delbar^1 does not, so K(z, w) != K(w, z)^*.
        return original(a, b, beta, z, w) * (1.01 if (a, b) == (1, 0) else 1.0)

    monkeypatch.setattr(kernel, "_deriv_power_entry", deriv_power_entry)


def _mu_unsquared_in_k(monkeypatch):
    original = kernel.kernel_Kj
    # kernel_full weights K_j by mu_j^2; dividing K_j by mu_j leaves mu_j.
    monkeypatch.setattr(kernel, "kernel_Kj", lambda j, z, w, params: original(j, z, w, params) / params.mu[j])


def _u_entry(monkeypatch):
    original = operator.representation_matrix

    def representation_matrix(g, params, rep, n_trunc):
        result = original(g, params, rep, n_trunc)
        blocks = result.blocks.copy()
        blocks[1, 0, 0] += 0.01  # U_0 from degree 0 to degree 1
        return operator.RepresentationMatrixResult(blocks=blocks, truncation_loss=result.truncation_loss)

    for module in (operator, verify):
        monkeypatch.setattr(module, "representation_matrix", representation_matrix)


def _taylor_coefficient(monkeypatch):
    original = operator._block_calculus

    def block_calculus(g, t, max_degree=None):
        out = original(g, t, max_degree)
        top = out.shape[0] - 1
        out[np.arange(1, top + 1), :, np.arange(top), :] *= 1.01  # the blocks (n+1, n) hold only the T^1 term
        return out

    monkeypatch.setattr(operator, "_block_calculus", block_calculus)


# fault: (plant, the checks of the suite it makes fail)
REP_FAULTS = {
    "eta+0.01 in J": (_eta_in_j, {"infinitesimal_generators"}),
    "pascal C(2,1)+0.01": (_pascal_entry, {"cocycle", "infinitesimal_generators"}),
    "op_H component 1 x1.01": (_op_h_component, {"sl2_commutators", "infinitesimal_generators"}),
    "S_m weight 1->2 +0.01 in -F": (_shift_weight_in_f, {"ladder_recursion", "infinitesimal_generators"}),
    "denominator +0.01 z": (
        _denominator_z,
        {"cocycle", "rotation_multiplier_constant", "rotation_k_type", "infinitesimal_generators"},
    ),
    "denominator +0.01 |z|^2": (
        _denominator_abs_z2,
        {
            "cocycle",
            "rotation_multiplier_constant",
            "multiplier_holomorphy",
            "rotation_k_type",
            "infinitesimal_generators",
        },
    ),
}
KERNEL_FAULTS = {
    "D_0[1,1] x1.01": (_d0_entry, {"kernel_oracle", "quasi_invariance", "monotone_truncation"}),
    "lam_1+0.05 in K_1": (_lam1_in_k1, {"kernel_oracle", "quasi_invariance"}),
    "mu_j^2 -> mu_j in K": (_mu_unsquared_in_k, {"kernel_oracle", "monotone_truncation"}),
    "G(3)[1,0] x1.01": (_g_entry, {"kernel_oracle", "monotone_truncation"}),
    "Leibniz del^1 term x1.01": (
        _leibniz_term,
        {"hermitian_symmetry", "kernel_oracle", "positive_definite", "quasi_invariance", "monotone_truncation"},
    ),
}
SHIFT_FAULTS = {
    "W(3)[2,1] x1.01": (_w_entry, {"golden_w", "adjoint_reproducing", "column_action"}),
    "G(3)[1,0] x1.01": (_g_entry, {"golden_g", "adjoint_reproducing", "column_action"}),
    "mu_j^2 -> mu_j in K": (_mu_unsquared_in_k, {"golden_k"}),
}
OPERATOR_FAULTS = {
    "W(3)[2,1] x1.01": (_w_entry, {"homogeneity_interior"}),
    "U_0[1,0] +0.01": (_u_entry, {"homogeneity_rotation", "homogeneity_interior", "representation_unitarity"}),
    "T^1 coefficient x1.01": (
        _taylor_coefficient,
        {"homogeneity_rotation", "homogeneity_interior", "calculus_rotation"},
    ),
}
FAULTS = {"kernel": KERNEL_FAULTS, "shift": SHIFT_FAULTS, "operator": OPERATOR_FAULTS}
CANNOT_FAIL = {
    "normalization": "phi(z) K(z, 0) is root inv(A) A with A = K(z, 0): it measures only the rounding of inv(A) @ A",
    "shift_norm_bound": "||T_N|| <= max ||W(n)|| holds for every block shift, whatever its W(n)",
    "homogeneity_monotone": "a fault adds the same residual at N = 20, 40 and 60 in its fixed window: the rise stays 0",
}


def _failing(suite: str) -> set[str]:
    return {c.name for c in verify.run_suite(CFG, suite).checks if not c.passed}


def test_rep_suite_passes_without_a_fault():
    assert _failing("rep") == set()


@pytest.mark.parametrize("fault", REP_FAULTS)
def test_rep_fault_fails_exactly_the_checks_that_can_see_it(monkeypatch, fault):
    plant, expected = REP_FAULTS[fault]
    plant(monkeypatch)
    assert _failing("rep") == expected


def test_every_rep_check_fails_under_some_fault():
    assert set().union(*(expected for _, expected in REP_FAULTS.values())) == SUITE_CHECKS["rep"]


@pytest.mark.parametrize("suite", FAULTS)
def test_suite_passes_without_a_fault(suite):
    assert _failing(suite) == set()


@pytest.mark.parametrize("suite, fault", [(suite, fault) for suite, faults in FAULTS.items() for fault in faults])
def test_fault_fails_exactly_the_checks_of_its_suite_that_can_see_it(monkeypatch, suite, fault):
    plant, expected = FAULTS[suite][fault]
    plant(monkeypatch)
    assert _failing(suite) == expected


def _uncovered(*suites: str) -> set[str]:
    """The checks of the suites that no fault makes fail and CANNOT_FAIL does not name."""
    failed = set().union(*(expected for suite in suites for _, expected in FAULTS[suite].values()))
    assert failed.isdisjoint(CANNOT_FAIL)
    return set().union(*(SUITE_CHECKS[suite] for suite in suites)) - failed - set(CANNOT_FAIL)


def test_every_kernel_check_fails_under_some_fault_or_cannot_fail():
    assert _uncovered("kernel") == set()


def test_every_shift_and_operator_check_fails_under_some_fault_or_cannot_fail():
    assert _uncovered("shift", "operator") == set()
    assert set(CANNOT_FAIL) <= set().union(*(SUITE_CHECKS[suite] for suite in FAULTS))
