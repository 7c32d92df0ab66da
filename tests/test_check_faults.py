"""Fault catalogue: each verify check must fail under at least one planted fault.

A fault is a monkeypatch of one ingredient of the program.  For every fault the
test pins which checks of a suite fail at the model (1.6, 2, mu = (1, 0.7, 1.3));
the other checks of the suite cannot see that fault.  The rep suite is covered so
far: its faults sit in the multiplier J, the Pascal table exp(S_m) and the sl(2)
operators H and -F, patched at their (f, params) signatures.
"""

import pytest

from cdhom import basis, representation, verify
from cdhom.representation import TriangularRep
from cdhom.scalars import VectorPolynomial

CFG = verify.RunConfig(lam=1.6, m=2, mu=(1.0, 0.7, 1.3))
REP_CHECKS = {check.name for check in verify.CHECKS if check.suite == "rep"}


def _wrap_multiplier(monkeypatch, shift_eta=0.0, shift_den=None):
    """Run J and J0 with eta + shift_eta and the denominator cz + d + shift_den(z)."""
    original = representation._multiplier

    def faulty(c, d, z, rep, eta=None):
        if shift_den is not None:
            d = d + shift_den(z)
        return original(c, d, z, rep, None if eta is None else eta + shift_eta)

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

    def op_h(f, params):
        coeffs = original(f, params).coeffs.copy()
        coeffs[:, 1] *= 1.01
        return VectorPolynomial(coeffs)

    monkeypatch.setattr(verify, "op_H", op_h)


def _shift_weight_in_minus_f(monkeypatch):
    original = basis._minus_f_coeffs

    def minus_f_coeffs(f, params):
        out = original(f, params)
        out[:-1, 2] += 0.01 * f.coeffs[:, 1]  # the S_m weight moving component 1 to 2 reads 2.01
        return out

    monkeypatch.setattr(basis, "_minus_f_coeffs", minus_f_coeffs)


def _denominator_z(monkeypatch):
    _wrap_multiplier(monkeypatch, shift_den=lambda z: 0.01 * z)


def _denominator_abs_z2(monkeypatch):
    _wrap_multiplier(monkeypatch, shift_den=lambda z: 0.01 * (z * z.conj()))


# fault: (plant, the rep checks it makes fail)
REP_FAULTS = {
    "eta+0.01 in J": (_eta_in_j, {"infinitesimal_generators"}),
    "pascal C(2,1)+0.01": (_pascal_entry, {"cocycle", "infinitesimal_generators"}),
    "op_H component 1 x1.01": (_op_h_component, {"sl2_commutators", "infinitesimal_generators"}),
    "S_m weight 1->2 +0.01 in -F": (_shift_weight_in_minus_f, {"ladder_recursion", "infinitesimal_generators"}),
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
    assert set().union(*(expected for _, expected in REP_FAULTS.values())) == REP_CHECKS
