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


def test_verify_tolerance_override_forces_failure():
    res = run_cli("verify", *BASE_M1, "--suite", "shift", "--tol", "golden_w=1e-30")
    assert res.returncode == 1


def test_exit_code_domain_error():
    res = run_cli("kernel-eval", *BASE_M1, "--z", "1.5", "--w", "0")
    assert res.returncode == 2
    assert "domain error" in res.stderr


def test_exit_code_config_errors():
    assert run_cli("kernel-eval", "--lambda", "1", "--m", "1", "--mu", "bad", "--z", "0", "--w", "0").returncode == 3
    assert run_cli("verify", "--lambda", "0.5", "--m", "1", "--mu", "1,1").returncode == 3
    assert run_cli("nonsense").returncode == 3
    assert run_cli("verify", *BASE_M1, "--tol", "nosuchcheck=1").returncode == 3


def test_fixtures_regeneration_is_stable(tmp_path):
    res = run_cli("fixtures", "--out", str(tmp_path))
    assert res.returncode == 0
    for name in ("g2", "w2", "k2", "g3", "w3", "k3"):
        fresh = (tmp_path / f"{name}.json").read_bytes()
        committed = (GOLDEN_DIR / f"{name}.json").read_bytes()
        assert fresh == committed, f"{name}.json drifted from the committed fixture"
