"""The check registry: one declaration per report name, in a pinned order, and check scales."""

import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest

from cdhom import goldens, kernel, verify
from cdhom.errors import ConfigError
from cdhom.kernel import check_quasi_invariance, kernel_full, kernel_series
from cdhom.mobius import X, X0, X1, Y, Y_LOWER, act, exp_basis
from cdhom.operator import RepresentationMatrixResult, TruncatedOperator, shift_table
from cdhom.representation import TriangularRep, check_cocycle, multiplier_J
from cdhom.verify import (
    CHECKS,
    DEFAULT_TOLERANCES,
    Run,
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
from test_check_faults import KERNEL_FAULTS, _plant_w

GENERATORS = (("x", X), ("y", Y_LOWER), ("X0", X0), ("X1", X1), ("Y", Y))

# Report order; byte-identical reports depend on it.
REPORT_ORDER = [
    "hermitian_symmetry", "kernel_oracle", "positive_definite", "quasi_invariance",
    "normalization", "monotone_truncation",
    "golden_g", "golden_w", "golden_k", "adjoint_reproducing", "column_action", "commutator_F",
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

    residual, parameters, _ = check_hermitian_symmetry(Run(cfg))
    assert parameters["scale"] == scale([(z, w) for z in pts for w in pts]) > 1.0
    assert residual <= 1e-15  # an ulp of |K| is about 2e-15 here, so the relative residual is below 2e-16
    seeded = seeded_points(cfg.seed + 3, 3, cfg.r_max)
    residual, parameters, _ = check_monotone_truncation(Run(cfg))
    assert parameters["scale"] == scale(zip(seeded, seeded[::-1])) > 1.0
    assert residual <= cfg.tolerance("monotone_truncation")


def test_monotone_truncation_catches_a_deviation_that_grows_with_the_cut(monkeypatch):
    cfg = RunConfig(lam=1.6, m=2, mu=(1.0, 0.7, 1.3))
    assert check_monotone_truncation(Run(cfg))[0] <= cfg.tolerance("monotone_truncation")
    series = verify.kernel_series
    monkeypatch.setattr(verify, "kernel_series", lambda z, w, p, n: series(z, w, p, n) + 1e-9 * n * np.eye(p.m + 1))
    assert check_monotone_truncation(Run(cfg))[0] > cfg.tolerance("monotone_truncation")


def test_positive_definite_is_relative_to_the_gram_scale():
    # max |K| is about 2e16 here, so the min eigenvalue -2.43 is rounding; quasi_invariance is relative too.
    cfg = RunConfig(lam=1.0, m=1, mu=(1e-8, 1e8))
    residual, parameters, _ = check_pd(Run(cfg))
    assert parameters["min_eigenvalue"] < -1.0 and parameters["scale"] > 1e16
    assert residual == -parameters["min_eigenvalue"] / parameters["scale"] <= cfg.tolerance("positive_definite")
    assert check_qi(Run(cfg))[0] <= cfg.tolerance("quasi_invariance")  # its scale reads K at the moved points


def _oracle_deviation(cfg):
    """The largest |series - K| over every ordered grid pair, each evaluated, with its pair and the scale."""
    p, pts = cfg.params(), cfg.grid().points
    grid = np.array(pts)
    series = kernel_series(grid[:, None], grid[None, :], p, cfg.truncation)
    full = np.array([[kernel_full(z, w, p) for w in pts] for z in pts])
    dev = np.max(np.abs(series - full), axis=(2, 3))
    i, k = np.unravel_index(np.argmax(dev), dev.shape)
    pair = [[pts[i].real, pts[i].imag], [pts[k].real, pts[k].imag]]
    return float(dev[i, k]), pair, max(1.0, float(np.max(np.abs(full))))


def test_kernel_oracle_is_relative_to_the_kernel_scale():
    # |K| > 1 on the grid: the deviation is divided by max |K| over the pairs compared.
    cfg = RunConfig(lam=1.6, m=2, mu=(1.0, 0.7, 1.3))
    deviation, pair, scale = _oracle_deviation(cfg)
    residual, parameters, _ = check_kernel_oracle(Run(cfg))
    assert parameters == {"truncation": cfg.truncation, "pair": pair, "scale": scale} and scale > 1.0
    assert residual == deviation / scale <= cfg.tolerance("kernel_oracle")
    # |K| <= 1 on the grid (mu_0^2 / (1 - r^2)^(2 lam) < 0.45): the residual is the absolute deviation.
    cfg = RunConfig(lam=1.0, m=0, mu=(0.5,))
    deviation, _, scale = _oracle_deviation(cfg)
    residual, parameters, _ = check_kernel_oracle(Run(cfg))
    assert parameters["scale"] == scale == 1.0
    assert residual == deviation


def test_normalization_records_the_worst_condition_of_k_z0():
    cfg = RunConfig(lam=1.6, m=2, mu=(1.0, 0.7, 1.3))
    p = cfg.params()
    conds = [float(np.linalg.cond(kernel_full(z, 0.0, p))) for z in cfg.grid().points]
    residual, parameters, _ = check_normalization(Run(cfg))
    assert parameters == {"cond_k_z0": max(conds)} and max(conds) > 1.0
    assert residual <= cfg.tolerance("normalization")
    _, parameters, _ = check_normalization(Run(RunConfig(lam=1.0, m=0, mu=(1.0,))))
    assert parameters["cond_k_z0"] == 1.0  # a 1x1 K(z, 0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_run_config_rejects_tolerance_overrides_that_are_not_finite_and_nonnegative(value):
    with pytest.raises(ConfigError, match="finite and >= 0"):
        RunConfig(lam=1.0, m=1, mu=(1.0, 1.0), tolerances=(("golden_w", value),))
    assert RunConfig(lam=1.0, m=1, mu=(1.0, 1.0), tolerances=(("golden_w", 0.0),)).tolerance("golden_w") == 0.0


def test_cocycle_records_the_worst_pair_and_point():
    cfg = RunConfig(lam=3.7, m=6, mu=(1.0, 0.8, 1.2, 0.9, 1.1, 1.3, 0.7))
    p = cfg.params()
    residual, parameters, _ = check_cocycle_sweep(Run(cfg))
    assert parameters["pairs"] == 100 and parameters["points"] == 17
    labels = {f"exp({t}*{name})": exp_basis(e, t) for name, e in GENERATORS for t in (0.2, -0.13)}
    g, h = (labels[label] for label in parameters["worst_pair"])
    z = complex(*parameters["worst_point"])
    at_worst, scale = check_cocycle(g, h, np.array([z]), p, TriangularRep.from_params(p))  # the array path, as the sweep
    assert at_worst[0] / scale[0] == residual <= cfg.tolerance("cocycle")
    assert parameters["scale"] == scale[0] >= 1.0
    record = next(c for c in run_suite(cfg, "rep").checks if c.name == "cocycle")
    assert record.parameters == parameters


@pytest.mark.parametrize("lam,m,mu", [(1.6, 2, (1.0, 0.7, 1.3)), (1.0, 1, (1e-8, 1e8))])
def test_quasi_invariance_records_the_worst_pair_and_scale(lam, m, mu):
    cfg = RunConfig(lam=lam, m=m, mu=mu)
    p, pts = cfg.params(), cfg.grid().points
    rep = TriangularRep.from_params(p)
    residual, parameters, _ = check_qi(Run(cfg))
    labels = dict(verify._subgroup_elements())
    g = labels[parameters["worst_element"]]
    z, w = (complex(*point) for point in parameters["pair"])
    i, k = pts.index(z), pts.index(w)
    jz = multiplier_J(g, pts, p, rep)
    gz = act(g, pts).tolist()
    moved = kernel_full(gz[i], gz[k], p)
    j_norms = np.linalg.norm(jz, axis=(1, 2))  # batched as in the check; np.linalg.norm(jz[i]) can differ by one bit
    scale = max(1.0, float(j_norms[i] * np.linalg.norm(moved) * j_norms[k]))
    at_worst = float(np.linalg.norm(jz[i] @ moved @ jz[k].conj().T - kernel_full(z, w, p))) / scale
    assert parameters["scale"] == scale >= 1.0
    assert at_worst == residual == max(check_quasi_invariance(h, cfg.grid(), p, rep) for h in labels.values())
    record = next(c for c in run_suite(cfg, "kernel").checks if c.name == "quasi_invariance")
    assert record.parameters == parameters


def test_hermitian_symmetry_records_the_worst_pair():
    cfg = RunConfig(lam=1.6, m=2, mu=(1.0, 0.7, 1.3))
    p, pts = cfg.params(), cfg.grid().points
    residual, parameters, _ = check_hermitian_symmetry(Run(cfg))
    z, w = (complex(*point) for point in parameters["pair"])
    at_worst = float(np.max(np.abs(kernel_full(z, w, p) - kernel_full(w, z, p).conj().T)))
    assert residual == at_worst / parameters["scale"] > 0.0
    assert pts.index(z) <= pts.index(w)  # of a pair and its mirror, which read alike, the first is named


def test_hermitian_symmetry_does_not_pass_over_a_nan(monkeypatch):
    cfg = RunConfig(lam=1.6, m=2, mu=(1.0, 0.7, 1.3))
    pts = cfg.grid().points

    def poisoned(z, w, params):
        return kernel_full(z, w, params) * (np.nan if (z, w) == (pts[3], pts[5]) else 1.0)

    monkeypatch.setattr(kernel, "kernel_full", poisoned)  # z_3, z_5 is a pair i <= k, which Run.k_grid evaluates
    monkeypatch.setattr(verify, "kernel_full", poisoned)
    residual, parameters, _ = check_hermitian_symmetry(Run(cfg))
    assert np.isnan(residual)
    assert parameters["pair"] == [[pts[3].real, pts[3].imag], [pts[5].real, pts[5].imag]]


def test_kernel_checks_evaluate_each_unordered_grid_pair_once(monkeypatch):
    # The 12-point grid has 144 ordered pairs and 78 with i <= k.  Only hermitian_symmetry, which
    # licenses the mirror, evaluates every ordered pair: 78 through Run.k_grid and 66 pairs k < i itself.
    cfg = RunConfig(lam=1.6, m=2, mu=(1.0, 0.7, 1.3))
    p, grid = cfg.params(), cfg.grid()
    calls = []

    def counted(z, w, params):
        calls.append((z, w))
        return kernel_full(z, w, params)

    monkeypatch.setattr(kernel, "kernel_full", counted)
    monkeypatch.setattr(verify, "kernel_full", counted)

    def evaluations(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    assert evaluations(check_hermitian_symmetry, Run(cfg)) == 144
    assert evaluations(check_kernel_oracle, Run(cfg)) == 78
    assert evaluations(check_pd, Run(cfg)) == 78
    assert evaluations(check_qi, Run(cfg)) == 78 * 10  # the fixed grid, then one moved grid per subgroup element
    one = evaluations(check_quasi_invariance, exp_basis(X1, 0.1), grid, p, TriangularRep.from_params(p))
    assert one == 156


def test_a_kernel_run_evaluates_the_grid_once(monkeypatch):
    # Run.k_grid's 78 pairs i <= k, which kernel_oracle, positive_definite and quasi_invariance's fixed grid
    # read too; hermitian_symmetry's 66 pairs k < i; 9 moved grids of 78; 13 + 3 for the rest.
    cfg = RunConfig(lam=1.6, m=2, mu=(1.0, 0.7, 1.3))
    calls = []

    def counted(z, w, params):
        calls.append((z, w))
        return kernel_full(z, w, params)

    monkeypatch.setattr(kernel, "kernel_full", counted)
    monkeypatch.setattr(verify, "kernel_full", counted)
    run_suite(cfg, "kernel")
    assert len(calls) == 78 + 66 + 9 * 78 + 13 + 3 == 862


def test_the_shared_grid_does_not_outlive_its_run(monkeypatch):
    cfg = RunConfig(lam=1.6, m=2, mu=(1.0, 0.7, 1.3))
    assert not Run(cfg).k_grid.flags.writeable
    # A clean run, then a fault in K on the same RunConfig object: a grid kept from the clean run would hide it.
    assert run_suite(cfg, "kernel").passed
    plant, expected = KERNEL_FAULTS["D_0[1,1] x1.01"]
    plant(monkeypatch)
    assert {"kernel_oracle", "quasi_invariance"} <= expected
    assert {c.name for c in run_suite(cfg, "kernel").checks if not c.passed} == expected


def test_grid_checks_name_the_first_nan_pair(monkeypatch):
    # Two NaN pairs, (z_1, z_2) and (z_3, z_5): every grid check names the first of them.
    cfg = RunConfig(lam=1.6, m=2, mu=(1.0, 0.7, 1.3))
    pts = cfg.grid().points
    poisoned_pairs = {(pts[1], pts[2]), (pts[3], pts[5])}

    def poisoned(z, w, params):
        return kernel_full(z, w, params) * (np.nan if (z, w) in poisoned_pairs else 1.0)

    monkeypatch.setattr(kernel, "kernel_full", poisoned)
    monkeypatch.setattr(verify, "kernel_full", poisoned)
    for check in (check_hermitian_symmetry, check_kernel_oracle, check_qi):
        residual, parameters, _ = check(Run(cfg))
        assert np.isnan(residual)
        assert parameters["pair"] == [[pts[1].real, pts[1].imag], [pts[2].real, pts[2].imag]], check.__name__


def poison_pair(monkeypatch, cfg, i, k):
    """Make kernel_full, in kernel and in verify, return NaN at the grid pairs (z_i, z_k) and (z_k, z_i)."""
    pts = cfg.grid().points
    poisoned_pairs = {(pts[i], pts[k]), (pts[k], pts[i])}

    def poisoned(z, w, params):
        return kernel_full(z, w, params) * (np.nan if (z, w) in poisoned_pairs else 1.0)

    monkeypatch.setattr(kernel, "kernel_full", poisoned)
    monkeypatch.setattr(verify, "kernel_full", poisoned)


def test_a_nan_in_k_fails_positive_definite_and_leaves_finite_scales(monkeypatch):
    cfg = RunConfig(lam=1.6, m=2, mu=(1.0, 0.7, 1.3))
    p, pts = cfg.params(), cfg.grid().points
    poison_pair(monkeypatch, cfg, 1, 2)
    records = {c.name: c for c in run_suite(cfg, "kernel").checks}
    pd = records["positive_definite"]
    assert not pd.passed and np.isnan(pd.residual) and pd.parameters["min_eigenvalue"] is None
    # The scales come from the finite entries: the ordered grid, and its mirror over i <= k.
    finite = [(i, k) for i, k in itertools.product(range(len(pts)), repeat=2) if {i, k} != {1, 2}]
    ordered = max(float(np.max(np.abs(kernel_full(pts[i], pts[k], p)))) for i, k in finite)
    mirrored = max(float(np.max(np.abs(kernel_full(pts[min(i, k)], pts[max(i, k)], p)))) for i, k in finite)
    assert records["hermitian_symmetry"].parameters["scale"] == ordered > 13.0
    assert records["kernel_oracle"].parameters["scale"] == mirrored > 13.0
    assert pd.parameters["scale"] == mirrored
    for name in ("hermitian_symmetry", "kernel_oracle"):
        assert np.isnan(records[name].residual) and not records[name].passed


PAIR_REDUCTION_MODELS = [
    (1.0, 1, (1.0, 1.0)),
    (1.6, 2, (1.0, 0.7, 1.3)),
    (3.5, 5, (1.0, 0.8, 1.2, 0.9, 1.1, 1.3)),
    (3.7, 6, (1.0, 0.8, 1.2, 0.9, 1.1, 1.3, 0.7)),
    (5.0, 8, (1.0,) * 9),
    (8.0, 12, (1.0,) * 13),
    (1.0, 1, (1e-8, 1e8)),
]


@pytest.mark.parametrize("lam,m,mu", PAIR_REDUCTION_MODELS)
def test_the_pair_reduction_loses_nothing(lam, m, mu):
    # References evaluate K at every ordered pair; a pair (w, z) differs from the mirror of
    # (z, w) by rounding only, so each relative residual moves by a few eps at most.
    eps = np.finfo(float).eps
    cfg = RunConfig(lam=lam, m=m, mu=mu)
    p, grid = cfg.params(), cfg.grid()
    deviation, _, scale = _oracle_deviation(cfg)
    residual, parameters, _ = check_kernel_oracle(Run(cfg))
    assert parameters["scale"] == pytest.approx(scale, rel=4 * eps, abs=0.0)
    assert abs(residual - deviation / scale) <= 4 * eps
    # One subgroup element of quasi_invariance; the check takes its pairs i <= k alone.
    pts, g, rep = grid.points, exp_basis(X1, 0.2), TriangularRep.from_params(p)
    jz, gz = multiplier_J(g, pts, p, rep), act(g, pts).tolist()
    j_norms = np.linalg.norm(jz, axis=(1, 2))  # batched, as in the check: it may differ from norm(jz[i]) by an ulp
    ordered = {}
    for i, k in itertools.product(range(len(pts)), repeat=2):
        moved = kernel_full(gz[i], gz[k], p)
        scale = max(1.0, float(j_norms[i] * np.linalg.norm(moved) * j_norms[k]))
        ordered[i, k] = float(np.linalg.norm(jz[i] @ moved @ jz[k].conj().T - kernel_full(pts[i], pts[k], p))) / scale
    got = check_quasi_invariance(g, grid, p, rep)
    assert got == max(r for (i, k), r in ordered.items() if i <= k)  # the same arithmetic on the same pairs
    assert 0.0 <= max(ordered.values()) - got <= 4 * eps


def test_cocycle_sweep_memory_bounded():
    # The multipliers are batched over h and the points, one g at a time; all 100 pairs at once take several MB.
    cfg = RunConfig(lam=3.7, m=6, mu=(1.0, 0.8, 1.2, 0.9, 1.1, 1.3, 0.7))
    assert traced_peak(check_cocycle_sweep, Run(cfg)) <= 1.5e6


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
        residual, parameters, _ = check(Run(cfg))
        assert residual <= 1e-14 and residual <= cfg.tolerance(name), name
        assert parameters["scale"] == max(1.0, float(np.max(np.abs(closed[name](parameters)))))


@pytest.mark.parametrize("lam", [600.0, 1000.0])
def test_sl2_commutators_are_relative_to_their_own_terms_at_large_lambda(lam):
    # H and F scale a coefficient by about lam + degree; against max |f| alone, rounding read 1.7e-10 at lam = 600.
    cfg = RunConfig(lam=lam, m=2, mu=(1.0,) * 3)
    residual, parameters, _ = verify.check_sl2(Run(cfg))
    assert residual <= 1e-15 and parameters["relation"] in ("[H,E]=E", "[H,F]=-F", "[E,F]=-2H")
    assert parameters["scale"] > lam


@pytest.mark.filterwarnings("error")
def test_cocycle_is_finite_where_the_squares_of_its_residual_overflow():
    # At lam = 1000 this pair's residual is about 1.7e181, past the 1e154 whose square leaves the float range.
    cfg = RunConfig(lam=1000.0, m=2, mu=(1.0,) * 3)
    p = cfg.params()
    g = exp_basis(Y_LOWER, 0.2)
    residual, scale = check_cocycle(g, g, -0.5, p, TriangularRep.from_params(p))
    assert 1e154 < residual < math.inf and residual / scale <= cfg.tolerance("cocycle")
    residual, parameters, _ = check_cocycle_sweep(Run(cfg))
    assert residual <= cfg.tolerance("cocycle") and math.isfinite(parameters["scale"])


@pytest.mark.parametrize("lam,m,mu", [(1.0, 1, (1.0, 1.0)), (3.7, 6, (1.0,) * 7), (20.0, 30, (1.0,) * 31)])
def test_commutator_f_records_its_degree_and_scale(lam, m, mu):
    # The scale is max e * max ||W(n)||_F, and max e = e_N[0] = sqrt(N (2 lam_0 + N - 1)).
    cfg = RunConfig(lam=lam, m=m, mu=mu)
    n_trunc, p = cfg.truncation, cfg.params()
    residual, parameters, note = verify.check_commutator_f(Run(cfg))
    max_e = math.sqrt(n_trunc * (2 * lam - m + n_trunc - 1))
    max_w = max(np.linalg.norm(shift_table(n_trunc - 1, p), axis=(1, 2)))
    assert parameters["scale"] == pytest.approx(max_e * max_w, rel=1e-15) and note == ""
    assert 0 <= parameters["degree"] <= n_trunc - 2
    assert residual <= 1e-15


def test_commutator_f_needs_two_degrees_of_truncation():
    residual, parameters, note = verify.check_commutator_f(Run(RunConfig(lam=1.6, m=2, mu=(1.0,) * 3, truncation=1)))
    assert residual == 0.0 and parameters == {} and "truncation 1" in note
    residual, parameters, _ = verify.check_commutator_f(Run(RunConfig(lam=1.6, m=2, mu=(1.0,) * 3, truncation=2)))
    assert parameters["degree"] == 0 and residual <= 1e-15


def test_a_nan_shift_weight_fails_the_shift_checks_that_read_it(monkeypatch):
    _plant_w(monkeypatch, 3, 2, 1, np.nan)
    cfg = RunConfig(lam=1.6, m=2, mu=(1.0, 0.7, 1.3))
    failing = {
        "shift": {
            "golden_w": {"degree": 3},
            "commutator_F": {"degree": 2},
            "column_action": {"degree": 3},
            "adjoint_reproducing": {},
        },
        # The calculus of every operator check but unitarity reads T, and a NaN weight leaves its resolvent singular.
        "operator": dict.fromkeys(
            ("homogeneity_rotation", "homogeneity_interior", "homogeneity_monotone", "calculus_rotation"), {}
        ),
    }
    for suite, expected in failing.items():
        report = run_suite(cfg, suite)
        records = {c.name: c for c in report.checks}
        assert {name for name, record in records.items() if not record.passed} == set(expected), suite
        written = {c["name"]: c["residual"] for c in json.loads(report.to_json())["checks"]}
        for name, where in expected.items():
            record = records[name]
            assert not math.isfinite(record.residual) and written[name] is None, name
            assert {key: record.parameters[key] for key in where} == where, name
            assert math.isfinite(record.parameters.get("scale", 1.0)), name
    assert "singular resolvent" in records["calculus_rotation"].note
    assert "W(3) has a non-finite entry" in records["homogeneity_rotation"].note  # not the Taylor coefficients of g


def test_a_nan_k_fails_monotone_truncation(monkeypatch):
    # A NaN K at one of its seeded pairs (z, w) fails the check; the scale comes from the other, finite pairs.
    cfg = RunConfig(lam=1.6, m=2, mu=(1.0, 0.7, 1.3))
    p, pts = cfg.params(), seeded_points(cfg.seed + 3, 3, cfg.r_max)

    def poisoned(z, w, params):
        return kernel_full(z, w, params) * (np.nan if (z, w) == (pts[0], pts[2]) else 1.0)

    monkeypatch.setattr(verify, "kernel_full", poisoned)
    record = verify._run_check(next(c for c in CHECKS if c.name == "monotone_truncation"), Run(cfg))
    assert np.isnan(record.residual) and not record.passed
    finite = [kernel_full(pts[k], pts[2 - k], p) for k in (1, 2)]
    assert record.parameters["scale"] == max(float(np.max(np.abs(k))) for k in finite) > 1.0


def test_golden_checks_read_one_table_each(monkeypatch):
    calls = Counter()

    def counted(name):
        original = getattr(verify, name)

        def table(n_max, params):
            calls[name, n_max] += 1
            return original(n_max, params)

        return table

    for name in ("g_table", "shift_table"):
        monkeypatch.setattr(verify, name, counted(name))
    cfg = RunConfig(lam=1.6, m=2, mu=(1.0, 0.7, 1.3))
    check_golden_g(Run(cfg)), check_golden_w(Run(cfg))
    assert calls == {("g_table", 20): 1, ("shift_table", 20): 1}


@pytest.mark.parametrize("lam,m", [(1.6, 2), (3.7, 6)])
def test_verify_reads_no_dense_operator_matrix(monkeypatch, lam, m):
    def refuse(self):
        raise AssertionError("verify read a dense matrix")

    monkeypatch.setattr(TruncatedOperator, "matrix", property(refuse))
    monkeypatch.setattr(RepresentationMatrixResult, "matrix", property(refuse))
    assert run_suite(RunConfig(lam=lam, m=m, mu=(1.0,) * (m + 1)), "all").passed
