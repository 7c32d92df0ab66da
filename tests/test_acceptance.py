"""Acceptance suite: the release gate, one check per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Tolerances are pinned in this module; each criterion prints
`[PASS]`/`[FAIL]` with its measured extreme before asserting.
"""

import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cdhom import (
    GroupElement,
    ModelParams,
    NormalizationError,
    TriangularRep,
    check_homogeneity,
    check_positive_definite,
    check_quasi_invariance,
    default_grid,
    exp_basis,
    g_matrix,
    kernel_full,
    kernel_series,
    op_E,
    op_F,
    op_H,
    shift_block,
    u_closed,
)
from cdhom import goldens
from cdhom.mobius import X, X0, X1, Y, Y_LOWER
from cdhom.representation import check_cocycle

GOLDEN_DIR = Path(__file__).resolve().parent / "fixtures" / "golden"
GOLDEN_LAMBDAS = {1: (0.75, 1.0, 2.0), 2: (1.25, 1.6, 2.5)}
GOLDEN_MUS = (0.5, 1.0, 2.0)
ORACLE_TUPLES = [
    (1, 1.0, (1.0, 1.0)),
    (1, 2.0, (1.0, 0.5)),
    (2, 1.6, (1.0, 0.7, 1.3)),
    (3, 2.25, (1.0, 1.0, 1.0, 1.0)),
]


def report(name: str, extreme: float, tolerance: float, ok: bool | None = None):
    ok = extreme <= tolerance if ok is None else ok
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: extreme {extreme:.3e} vs tolerance {tolerance:.1e}")
    assert ok, f"{name}: {extreme} exceeds {tolerance}"


def mk(lam, m, mu):
    p = ModelParams(lam=lam, m=m, mu=tuple(mu))
    return p, TriangularRep.from_params(p)


def test_golden_g_matrices():
    worst = 0.0
    for m, builder in ((1, goldens.g_matrix_m1), (2, goldens.g_matrix_m2)):
        for lam in GOLDEN_LAMBDAS[m]:
            p = ModelParams(lam=lam, m=m, mu=tuple([1.0] * (m + 1)))
            for n in range(21):
                dev = np.max(np.abs(g_matrix(n, p) - builder(n, lam)))
                worst = max(worst, float(dev))
    report("golden coefficient matrices (m=1, m=2; n<=20)", worst, 1e-12)


def test_golden_shift_blocks():
    worst = 0.0
    for lam in GOLDEN_LAMBDAS[1]:
        for mu1 in GOLDEN_MUS:
            p = ModelParams(lam=lam, m=1, mu=(1.0, mu1))
            for n in range(21):
                dev = np.max(np.abs(shift_block(n, p) - goldens.shift_block_m1(n, lam, mu1)))
                worst = max(worst, float(dev))
    for lam in GOLDEN_LAMBDAS[2]:
        for mu1, mu2 in itertools.product(GOLDEN_MUS, repeat=2):
            p = ModelParams(lam=lam, m=2, mu=(1.0, mu1, mu2))
            for n in range(21):
                dev = np.max(np.abs(shift_block(n, p) - goldens.shift_block_m2(n, lam, mu1, mu2)))
                worst = max(worst, float(dev))
    report("golden shift blocks (m=1, m=2; n<=20, mu sweep)", worst, 1e-12)


def test_golden_kernels_from_fixtures():
    worst = 0.0
    for m, tag in ((1, "2"), (2, "3")):
        payload = json.loads((GOLDEN_DIR / f"k{tag}.json").read_text())
        points = [
            (complex(pt["z"]["re"], pt["z"]["im"]), complex(pt["w"]["re"], pt["w"]["im"]))
            for pt in payload["points"]
        ]
        for record in payload["values"]:
            z, w = points[record["point"]]
            ref = np.array(
                [[complex(c["re"], c["im"]) for c in row] for row in record["matrix"]]
            )
            p = ModelParams(lam=record["lambda"], m=m, mu=(1.0, *record["mu"]))
            dev = np.max(np.abs(kernel_full(z, w, p) - ref))
            worst = max(worst, float(dev))
    report("golden kernels at 10 seeded point pairs (m=1, m=2)", worst, 1e-10)


def test_kernel_series_oracle():
    worst = 0.0
    grid = default_grid()
    for m, lam, mu in ORACLE_TUPLES:
        p, _ = mk(lam, m, mu)
        for z, w in itertools.product(grid.points, repeat=2):
            dev = np.max(np.abs(kernel_series(z, w, p, 60) - kernel_full(z, w, p)))
            worst = max(worst, float(dev))
    report("basis-series oracle vs closed-form kernel (N=60, default grid)", worst, 1e-8)


def test_ladder_closed_form_vs_recursion():
    worst = 0.0
    for m, lam in ((1, 1.0), (2, 1.5), (3, 2.0), (4, 2.6)):
        p, _ = mk(lam, m, [1.0] * (m + 1))
        for j in range(m + 1):
            current = u_closed(j, 0, p)
            for n in range(15):
                current = -op_F(current, p)
                ref = u_closed(j, n + 1, p)
                dev = float(np.max(np.abs(current - ref))) / max(float(np.max(np.abs(ref))), 1.0)
                worst = max(worst, dev)
    report("ladder closed form vs recursion (m<=4, n<=15, all j)", worst, 1e-10)


def test_sl2_commutation_relations():
    worst = 0.0
    rng = np.random.default_rng(314)
    for m, lam in ((1, 1.0), (2, 1.4), (3, 2.0)):
        p, _ = mk(lam, m, [1.0] * (m + 1))
        for _ in range(3):
            f = rng.standard_normal((16, m + 1)) + 1j * rng.standard_normal((16, m + 1))
            scale = float(np.max(np.abs(f)))
            he = op_H(op_E(f), p) - op_E(op_H(f, p))
            worst = max(worst, float(np.max(np.abs(he - op_E(f)))) / scale)
            hf = op_H(op_F(f, p), p) - op_F(op_H(f, p), p)
            worst = max(worst, float(np.max(np.abs(hf + op_F(f, p)))) / scale)
            ef = op_E(op_F(f, p)) - op_F(op_E(f), p)
            worst = max(worst, float(np.max(np.abs(ef + 2.0 * op_H(f, p)))) / scale)
    report("sl(2) commutation relations on degree-15 polynomials", worst, 1e-10)


def test_cocycle_and_quasi_invariance():
    grid = default_grid()
    p, rep = mk(1.6, 2, (1.0, 0.7, 1.3))
    elements = [exp_basis(e, t) for e in (X, Y_LOWER, X0, X1, Y) for t in (0.2, -0.2, 0.09)]
    worst_c = 0.0
    for g, h in itertools.product(elements, repeat=2):
        for z in grid.points[::3]:
            worst_c = max(worst_c, check_cocycle(g, h, z, p, rep)[0])
    report("multiplier cocycle identity (|t| <= 0.2)", worst_c, 1e-10)

    worst_q = 0.0
    for m, lam, mu in ORACLE_TUPLES[:3]:
        pq, repq = mk(lam, m, mu)
        for elem in (X0, X1, Y):
            for t in (0.2, -0.2):
                g = exp_basis(elem, t)
                worst_q = max(worst_q, check_quasi_invariance(g, grid, pq, repq))
    report("kernel quasi-invariance under the disc group (|t| <= 0.2)", worst_q, 1e-8)


def test_positive_definiteness_and_degenerate_failure():
    grid = default_grid()
    worst = 0.0
    for m, lam, mu in ORACLE_TUPLES:
        p, _ = mk(lam, m, mu)
        rep_pd = check_positive_definite(p, grid)
        worst = min(worst, rep_pd.min_eigenvalue)
    report("Gram positive definiteness (min eigenvalue >= -1e-10)", -worst, 1e-10)

    degenerate = ModelParams(lam=0.5, m=1, mu=(1.0, 1.0), allow_degenerate=True)
    try:
        check_positive_definite(degenerate, grid)
        failed_as_expected, diagnostic = False, ""
    except NormalizationError as exc:
        failed_as_expected, diagnostic = True, str(exc)
    print(f"[{'PASS' if failed_as_expected else 'FAIL'}] degenerate 2*lam = m run fails "
          f"with diagnostic: {diagnostic!r}")
    assert failed_as_expected and "degenerate" in diagnostic


def test_homogeneity_at_truncation():
    p, rep = mk(1.0, 1, (1.0, 0.8))
    worst_rot = max(
        check_homogeneity(GroupElement.rotation(theta), p, rep, 40) for theta in (0.3, -0.45)
    )
    report("homogeneity, rotation subgroup (N=40)", worst_rot, 1e-10)

    g = exp_basis(X1, 0.05)
    interior = check_homogeneity(g, p, rep, 40)
    report("homogeneity, interior block, exp(0.05*X1) (N=40, guard 5)", interior, 1e-4)

    seq = [check_homogeneity(g, p, rep, n, window=15) for n in (20, 40, 60)]
    worst_increase = max(b - a for a, b in zip(seq, seq[1:]))
    print(f"       residuals on the fixed 15-degree window: "
          + ", ".join(f"N={n}: {r:.3e}" for n, r in zip((20, 40, 60), seq)))
    report("homogeneity residual non-increasing through N in {20, 40, 60}",
           max(0.0, worst_increase), 1e-12)


def test_cli_determinism_and_exit_codes():
    def run(*args):
        return subprocess.run([sys.executable, "-m", "cdhom", *args], capture_output=True, text=True)

    base = ["--lambda", "1", "--m", "1", "--mu", "1,1"]
    first = run("verify", *base, "--suite", "shift", "--seed", "11")
    second = run("verify", *base, "--suite", "shift", "--seed", "11")
    deterministic = first.stdout == second.stdout and first.returncode == second.returncode == 0
    codes = {
        "pass": run("kernel-eval", *base, "--z", "0", "--w", "0").returncode,
        "verify-failure": run("verify", "--lambda", "0.5", "--m", "1", "--mu", "1,1",
                              "--allow-degenerate", "--suite", "kernel").returncode,
        "domain": run("kernel-eval", *base, "--z", "2", "--w", "0").returncode,
        "config": run("kernel-eval", "--lambda", "1", "--m", "1", "--mu", "x", "--z", "0", "--w", "0").returncode,
    }
    contract = codes == {"pass": 0, "verify-failure": 1, "domain": 2, "config": 3}
    ok = deterministic and contract
    print(f"[{'PASS' if ok else 'FAIL'}] CLI determinism and exit-code contract: "
          f"deterministic={deterministic}, codes={codes}")
    assert ok
