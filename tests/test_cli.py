"""Black-box CLI tests: exit codes, determinism, formats, schema, fixtures."""

import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

PKG_ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((PKG_ROOT / "src" / "cdhom" / "schemas" / "report.schema.json").read_text())
GOLDEN_DIR = Path(__file__).resolve().parent / "fixtures" / "golden"

BASE_M1 = ["--lambda", "1", "--m", "1", "--mu", "1,1"]


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "cdhom", *args], capture_output=True, text=True, **kw
    )


def test_kernel_eval_origin_m1():
    res = run_cli("kernel-eval", *BASE_M1, "--z", "0", "--w", "0")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    mat = payload["matrix"]
    assert mat[0][0] == {"re": 1.0, "im": 0.0}
    assert mat[1][1] == {"re": 2.0, "im": 0.0}
    assert mat[0][1] == {"re": 0.0, "im": 0.0}


def test_kernel_eval_scalar_case():
    res = run_cli("kernel-eval", "--lambda", "1", "--m", "0", "--mu", "1", "--z", "0", "--w", "0")
    assert res.returncode == 0
    assert json.loads(res.stdout)["matrix"] == [[{"re": 1.0, "im": 0.0}]]


def test_kernel_eval_matches_series_oracle():
    from cdhom import ModelParams, kernel_series

    res = run_cli(
        "kernel-eval", "--lambda", "1.6", "--m", "2", "--mu", "1,0.7,1.3",
        "--z", "0.2", "--w", "0.1j",
    )
    assert res.returncode == 0
    mat = json.loads(res.stdout)["matrix"]
    got = np.array([[complex(c["re"], c["im"]) for c in row] for row in mat])
    oracle = kernel_series(0.2, 0.1j, ModelParams(lam=1.6, m=2, mu=(1.0, 0.7, 1.3)), 60)
    assert np.max(np.abs(got - oracle)) <= 1e-8


def test_kernel_eval_csv_format():
    res = run_cli("kernel-eval", *BASE_M1, "--z", "0", "--w", "0", "--format", "csv")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "row,col,re,im"
    assert len(lines) == 5


def test_shift_weights_m1_value():
    res = run_cli("shift-weights", *BASE_M1, "--nmax", "1", "--format", "csv")
    assert res.returncode == 0
    rows = {}
    for line in res.stdout.strip().splitlines()[1:]:
        n, r, c, v = line.split(",")
        rows[(int(n), int(r), int(c))] = float(v)
    assert rows[(1, 1, 0)] == pytest.approx(-1.0 / np.sqrt(3.0), abs=1e-12)
    assert len(rows) == 8  # exactly two blocks


def test_shift_weights_single_block():
    res = run_cli("shift-weights", *BASE_M1, "--nmax", "0", "--format", "csv")
    lines = res.stdout.strip().splitlines()
    assert len(lines) == 1 + 4


def test_basis_emit_m1():
    res = run_cli("basis-emit", *BASE_M1, "--nmax", "2", "--format", "json")
    assert res.returncode == 0
    records = json.loads(res.stdout)["coefficients"]
    lookup = {(r["n"], r["row"], r["col"]): r["value"] for r in records}
    assert lookup[(2, 1, 0)] == pytest.approx(2.0)
    assert lookup[(2, 1, 1)] == pytest.approx(np.sqrt(3.0))


def test_verify_default_passes_and_validates(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("verify", *BASE_M1, "--suite", "kernel", "--out", str(out))
    assert res.returncode == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])


def test_verify_full_report_schema(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli(
        "verify", "--lambda", "1.6", "--m", "2", "--mu", "1,0.7,1.3",
        "--suite", "shift", "--out", str(out),
    )
    assert res.returncode == 0
    jsonschema.validate(json.loads(out.read_text()), SCHEMA)


def test_verify_determinism_byte_identical():
    args = ["verify", *BASE_M1, "--suite", "shift", "--seed", "77"]
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


@pytest.mark.parametrize(
    "suite, check",
    [("kernel", "positive_definite"), ("shift", "golden_g"), ("operator", "homogeneity_rotation")],
)
def test_verify_degenerate_negative(tmp_path, suite, check):
    from cdhom.verify import DEFAULT_TOLERANCES

    out = tmp_path / "report.json"
    res = run_cli(
        "verify", "--lambda", "0.5", "--m", "1", "--mu", "1,1",
        "--allow-degenerate", "--suite", suite, "--out", str(out),
    )
    assert res.returncode == 1, res.stderr
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["passed"] is False
    assert all(c["name"] in DEFAULT_TOLERANCES for c in report["checks"])
    record = next(c for c in report["checks"] if c["name"] == check)
    assert not record["passed"]
    assert "degenerate" in record["note"]


@pytest.mark.parametrize(
    "model",
    [
        ["--lambda", "3.7", "--m", "6", "--mu", "1,0.8,1.2,0.9,1.1,1.3,0.7"],
        ["--lambda", "5", "--m", "8", "--mu", "1,0.8,1.2,0.9,1.1,1.3,0.7,1.05,0.95"],
        ["--lambda", "8", "--m", "12", "--mu", ",".join(["1"] * 13)],
    ],
    ids=["m6", "m8", "m12"],
)
def test_verify_operator_suite_passes_at_large_m(tmp_path, model):
    # The exact discrete-series U_g keeps homogeneity_rotation near 1e-13 at every m;
    # recovering U_g from samples read 3.9e-10 at m = 6 and 2.9e-7 at m = 12.
    out = tmp_path / "report.json"
    res = run_cli("verify", *model, "--suite", "operator", "--out", str(out))
    assert res.returncode == 0, res.stderr
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["homogeneity_rotation"]["residual"] <= 1e-12
    assert checks["homogeneity_rotation"]["parameters"]["worst_element"].startswith("rotation(")


def test_verify_tolerance_override_forces_failure():
    res = run_cli("verify", *BASE_M1, "--suite", "shift", "--tol", "golden_w=1e-30")
    assert res.returncode == 1


def test_exit_code_domain_error():
    for z, w in (("1.5", "0"), ("0", "nan")):
        res = run_cli("kernel-eval", *BASE_M1, "--z", z, "--w", w)
        assert res.returncode == 2, (z, w)
        assert "domain error" in res.stderr


def test_exit_code_config_errors():
    assert run_cli("kernel-eval", "--lambda", "1", "--m", "1", "--mu", "bad", "--z", "0", "--w", "0").returncode == 3
    assert run_cli("verify", "--lambda", "0.5", "--m", "1", "--mu", "1,1").returncode == 3
    assert run_cli("nonsense").returncode == 3
    assert run_cli("verify", *BASE_M1, "--tol", "nosuchcheck=1").returncode == 3
    for lam, mu in (("1", "1,inf"), ("1", "1,nan"), ("inf", "1,1")):
        res = run_cli("kernel-eval", "--lambda", lam, "--m", "1", "--mu", mu, "--z", "0", "--w", "0")
        assert res.returncode == 3, (lam, mu)
        assert "config error" in res.stderr


def _overflow_cases():
    huge = ["--lambda", "1e300", "--m", "1", "--mu", "1,1"]
    cases = [
        # W(1)[2, 0] is about (2*lam)^(-5/2), below the float range (at m = 1 the table is finite).
        ("shift-weights", ["--lambda", "1e300", "--m", "2", "--mu", "1,1,1", "--nmax", "2"]),
        ("basis-emit", huge + ["--nmax", "3"]),  # G(2) is finite (G(2)[0, 0] = 1.414e300); G(3) overflows
        ("kernel-eval", huge + ["--z", "0.1", "--w", "0.1"]),
        ("verify", huge + ["--suite", "rep"]),
        ("verify", huge + ["--suite", "operator"]),  # through the point-array multiplier
        ("verify", huge + ["--suite", "shift"]),
    ]
    for i, (command, argv) in enumerate(cases):
        yield pytest.param(command, argv, id=f"{command}-extra{i}")
    # 2*lam overflows to inf, so the kernel's principal powers get an infinite exponent.
    for m in range(4):
        model = ["--lambda", "1.7e308", "--m", str(m), "--mu", ",".join(["1"] * (m + 1))]
        yield pytest.param("verify", model + ["--suite", "kernel"], id=f"verify-kernel-2lam-inf-m{m}")


@pytest.mark.parametrize("command, extra", _overflow_cases())
def test_exit_code_overflowing_parameters(command, extra):
    res = run_cli(command, *extra)
    assert res.returncode == 3, res.stderr
    assert res.stderr.startswith("config error") and "Traceback" not in res.stderr
    assert "RuntimeWarning" not in res.stderr
    assert res.stdout == ""


def test_shift_weights_at_huge_lambda_match_mpmath():
    # G(3) overflows at lam = 1e300, but no weight W(n), n <= 2, leaves the float range.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 400  # G(n+1)^-1 G(n) cancels about 300 digits here
    res = run_cli("shift-weights", "--lambda", "1e300", "--m", "1", "--mu", "1,0.5", "--nmax", "2")
    assert res.returncode == 0, res.stderr
    got = {(r["n"], r["row"], r["col"]): r["value"] for r in json.loads(res.stdout)["weights"]}
    assert len(got) == 12
    two_l = [2 * mp.mpf("1e300") - 1, 2 * mp.mpf("1e300") + 1]  # 2*lam_j

    def g(n):  # G(n)[l, j] from the ladder closed form, with rising factorials as explicit products
        def rf(x, count):
            return mp.fprod(x + i for i in range(count))

        out = mp.zeros(2, 2)
        for j in range(min(n, 1) + 1):
            norm = mp.sqrt(rf(two_l[j], n - j) * mp.factorial(n - j))
            for k in range(min(n - j, 1 - j) + 1):
                out[j + k, j] = mp.binomial(n - j, k) * rf(j + 1, k) * rf(two_l[j] + k, n - j - k) / norm
        return out

    mu = (1, mp.mpf("0.5"))
    for n in range(3):
        g_cur, g_next = g(n), g(n + 1)
        for col in range(2):  # X = G(n+1)^-1 G(n) by forward substitution, W = D(mu)^-1 X D(mu)
            x0 = g_cur[0, col] / g_next[0, 0]
            x1 = (g_cur[1, col] - g_next[1, 0] * x0) / g_next[1, 1]
            for row, x in enumerate((x0, x1)):
                ref, value = x * mu[col] / mu[row], got[n, row, col]
                if ref == 0:
                    assert value == 0.0, (n, row, col)
                else:
                    assert abs((value - ref) / ref) <= 1e-14, (n, row, col)


def test_verify_kernel_suite_at_high_truncation(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli(
        "verify", "--lambda", "1.6", "--m", "2", "--mu", "1,0.7,1.3",
        "--truncation", "200", "--suite", "kernel", "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    assert all(c["residual"] is not None and c["passed"] for c in report["checks"])  # null marks non-finite


def test_fixtures_regeneration_is_stable(tmp_path):
    res = run_cli("fixtures", "--out", str(tmp_path))
    assert res.returncode == 0
    for name in ("g2", "w2", "k2", "g3", "w3", "k3"):
        fresh = (tmp_path / f"{name}.json").read_bytes()
        committed = (GOLDEN_DIR / f"{name}.json").read_bytes()
        assert fresh == committed, f"{name}.json drifted from the committed fixture"


@pytest.mark.parametrize("m", [0, 1, 2, 6])
@pytest.mark.parametrize("command, key", [("shift-weights", "weights"), ("basis-emit", "coefficients")])
def test_table_writer_matches_json_dumps(tmp_path, command, key, m):
    # The template writer against the json encoder over the per-record dicts it replaced.
    from cdhom import ModelParams, g_matrix, shift_block
    from cdhom.cli import main

    lam, mu = m / 2.0 + 0.85, [1.0 + 0.1 * j for j in range(m + 1)]
    block = shift_block if command == "shift-weights" else g_matrix
    p = ModelParams(lam=lam, m=m, mu=tuple(mu))
    for nmax in (0, 1, 3, 40):
        out = tmp_path / f"{command}-{m}-{nmax}.json"
        argv = [command, "--lambda", repr(lam), "--m", str(m), "--mu", ",".join(map(repr, mu)), "--nmax", str(nmax)]
        assert main(argv + ["--out", str(out)]) == 0
        records = [
            {"n": n, "row": row, "col": col, "value": float(block(n, p)[row, col])}
            for n in range(nmax + 1)
            for row in range(m + 1)
            for col in range(m + 1)
        ]
        payload = {"config": {"lambda": lam, "m": m, "mu": mu}, key: records}
        assert out.read_bytes() == json.dumps(payload, indent=2, sort_keys=True).encode(), (nmax, m)
