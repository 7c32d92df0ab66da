"""Black-box CLI tests: exit codes, determinism, formats, schema, fixtures.

Most tests call cli.main in this process (call_cli); the few that need a
fresh interpreter (the python -m cdhom entry point, determinism across
processes, exit codes of the process itself) start one (run_cli).
"""

import contextlib
import io
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

PKG_ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((PKG_ROOT / "src" / "cdhom" / "schemas" / "report.schema.json").read_text())
GOLDEN_DIR = Path(__file__).resolve().parent / "fixtures" / "golden"

BASE_M1 = ["--lambda", "1", "--m", "1", "--mu", "1,1"]


def run_cli(*args, **kw):
    """python -m cdhom with these arguments, in a new process."""
    return subprocess.run(
        [sys.executable, "-m", "cdhom", *args], capture_output=True, text=True, **kw
    )


def call_cli(*args):
    """cli.main(args) in this process, returned as run_cli returns a process.

    stdout and stderr are captured, and SystemExit (raised by argparse) gives the exit
    code.  Every warning is written to the captured stderr, not only its first occurrence
    as in a new process, so the stderr assertions see all of them.
    """
    from cdhom.cli import main

    out, err = io.StringIO(), io.StringIO()

    def show(message, category, filename, lineno, file=None, line=None):
        err.write(warnings.formatwarning(message, category, filename, lineno, line))

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return subprocess.CompletedProcess(["cdhom", *args], code, out.getvalue(), err.getvalue())


def test_kernel_eval_origin_m1():
    res = run_cli("kernel-eval", *BASE_M1, "--z", "0", "--w", "0")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    mat = payload["matrix"]
    assert mat[0][0] == {"re": 1.0, "im": 0.0}
    assert mat[1][1] == {"re": 2.0, "im": 0.0}
    assert mat[0][1] == {"re": 0.0, "im": 0.0}


def test_kernel_eval_scalar_case():
    res = call_cli("kernel-eval", "--lambda", "1", "--m", "0", "--mu", "1", "--z", "0", "--w", "0")
    assert res.returncode == 0
    assert json.loads(res.stdout)["matrix"] == [[{"re": 1.0, "im": 0.0}]]


def test_kernel_eval_matches_series_oracle():
    from cdhom import ModelParams, kernel_series

    res = call_cli(
        "kernel-eval", "--lambda", "1.6", "--m", "2", "--mu", "1,0.7,1.3",
        "--z", "0.2", "--w", "0.1j",
    )
    assert res.returncode == 0
    mat = json.loads(res.stdout)["matrix"]
    got = np.array([[complex(c["re"], c["im"]) for c in row] for row in mat])
    oracle = kernel_series(0.2, 0.1j, ModelParams(lam=1.6, m=2, mu=(1.0, 0.7, 1.3)), 60)
    assert np.max(np.abs(got - oracle)) <= 1e-8


def test_kernel_eval_csv_format():
    res = call_cli("kernel-eval", *BASE_M1, "--z", "0", "--w", "0", "--format", "csv")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "row,col,re,im"
    assert len(lines) == 5


def test_shift_weights_m1_value():
    res = call_cli("shift-weights", *BASE_M1, "--nmax", "1", "--format", "csv")
    assert res.returncode == 0
    rows = {}
    for line in res.stdout.strip().splitlines()[1:]:
        n, r, c, v = line.split(",")
        rows[(int(n), int(r), int(c))] = float(v)
    assert rows[(1, 1, 0)] == pytest.approx(-1.0 / np.sqrt(3.0), abs=1e-12)
    assert len(rows) == 8  # exactly two blocks


def test_shift_weights_single_block():
    res = call_cli("shift-weights", *BASE_M1, "--nmax", "0", "--format", "csv")
    lines = res.stdout.strip().splitlines()
    assert len(lines) == 1 + 4


def test_basis_emit_m1():
    res = call_cli("basis-emit", *BASE_M1, "--nmax", "2", "--format", "json")
    assert res.returncode == 0
    records = json.loads(res.stdout)["coefficients"]
    lookup = {(r["n"], r["row"], r["col"]): r["value"] for r in records}
    assert lookup[(2, 1, 0)] == pytest.approx(2.0)
    assert lookup[(2, 1, 1)] == pytest.approx(np.sqrt(3.0))


def test_verify_default_passes_and_validates(tmp_path):
    out = tmp_path / "report.json"
    res = call_cli("verify", *BASE_M1, "--suite", "kernel", "--out", str(out))
    assert res.returncode == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])
    # cond_k_z0 is an optional number >= 1 on the normalization record.
    (record,) = [c for c in report["checks"] if c["name"] == "normalization"]
    assert record["parameters"]["cond_k_z0"] >= 1.0
    record["parameters"]["cond_k_z0"] = 0.5
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, SCHEMA)
    del record["parameters"]["cond_k_z0"]
    jsonschema.validate(report, SCHEMA)
    # pair ([[re, im], [re, im]]) and scale (>= 1) are optional on these records.
    for name in ("hermitian_symmetry", "kernel_oracle", "quasi_invariance"):
        (record,) = [c for c in report["checks"] if c["name"] == name]
        assert len(record["parameters"]["pair"]) == 2 and record["parameters"]["scale"] >= 1.0
        for key, bad in (("pair", [[0.1, 0.2]]), ("pair", [[0.1, 0.2], [0.3]]), ("scale", 0.5)):
            good, record["parameters"][key] = record["parameters"][key], bad
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(report, SCHEMA)
            record["parameters"][key] = good
        del record["parameters"]["pair"], record["parameters"]["scale"]
        jsonschema.validate(report, SCHEMA)


def test_verify_rep_report_locates_the_worst_cocycle_residual(tmp_path):
    out = tmp_path / "report.json"
    res = call_cli("verify", "--lambda", "1.6", "--m", "2", "--mu", "1,0.7,1.3", "--suite", "rep", "--out", str(out))
    assert res.returncode == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    # worst_pair (two element labels) and worst_point ([re, im]) are optional on the cocycle record.
    (record,) = [c for c in report["checks"] if c["name"] == "cocycle"]
    assert len(record["parameters"]["worst_pair"]) == len(record["parameters"]["worst_point"]) == 2
    for key, bad in (("worst_pair", ["exp(0.2*x)"]), ("worst_point", [0.25, -0.1, 0.0]), ("worst_point", ["0.25", "-0.1"])):
        good, record["parameters"][key] = record["parameters"][key], bad
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, SCHEMA)
        record["parameters"][key] = good
    del record["parameters"]["worst_pair"], record["parameters"]["worst_point"]
    jsonschema.validate(report, SCHEMA)


def test_verify_full_report_schema(tmp_path):
    out = tmp_path / "report.json"
    res = call_cli(
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
    res = call_cli(
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
    res = call_cli("verify", *model, "--suite", "operator", "--out", str(out))
    assert res.returncode == 0, res.stderr
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["homogeneity_rotation"]["residual"] <= 1e-12
    assert checks["homogeneity_rotation"]["parameters"]["worst_element"].startswith("rotation(")


def test_verify_tolerance_override_forces_failure():
    res = run_cli("verify", *BASE_M1, "--suite", "shift", "--tol", "golden_w=1e-30")
    assert res.returncode == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_verify_rejects_tolerance_overrides_that_are_not_finite_and_nonnegative(value):
    # A non-finite tolerance would be written as NaN or Infinity, which is not JSON.
    res = call_cli("verify", *BASE_M1, "--suite", "shift", "--tol", f"golden_w={value}")
    assert res.returncode == 3
    assert res.stderr.startswith("config error") and "golden_w" in res.stderr
    assert res.stdout == ""


def test_verify_csv_leaves_a_non_finite_residual_empty():
    # The JSON report writes null there; neither format may hold inf or nan.
    res = call_cli("verify", "--lambda", "0.5", "--m", "1", "--mu", "1,1", "--allow-degenerate",
                   "--suite", "kernel", "--format", "csv")
    assert res.returncode == 1
    assert "positive_definite,,1e-10,false" in res.stdout.splitlines()
    for line in res.stdout.splitlines()[1:]:
        assert all(field == "" or math.isfinite(float(field)) for field in line.split(",")[1:3]), line


_MODEL_FLAGS = {"--help", "--lambda", "--m", "--mu", "--format", "--out", "--allow-degenerate"}
_VERIFY_FLAGS = {"--truncation", "--rmax", "--tol", "--seed"}


@pytest.mark.parametrize(
    "command, flags",
    [
        ("kernel-eval", _MODEL_FLAGS | {"--z", "--w"}),
        ("shift-weights", _MODEL_FLAGS | {"--nmax"}),
        ("basis-emit", _MODEL_FLAGS | {"--nmax"}),
        ("verify", _MODEL_FLAGS | _VERIFY_FLAGS | {"--suite"}),
        ("fixtures", {"--help", "--out", "--seed"}),
    ],
)
def test_help_lists_exactly_the_flags_a_subcommand_reads(command, flags):
    res = call_cli(command, "--help")
    assert res.returncode == 0
    assert set(re.findall(r"--[a-z][a-z-]*", res.stdout)) == flags


@pytest.mark.parametrize("flag, value", [("--truncation", "500"), ("--rmax", "0.9"), ("--tol", "golden_w=1"), ("--seed", "3")])
@pytest.mark.parametrize(
    "command, extra",
    [("kernel-eval", ["--z", "0", "--w", "0"]), ("shift-weights", ["--nmax", "2"]), ("basis-emit", ["--nmax", "2"])],
)
def test_closed_form_commands_reject_the_verify_flags(command, extra, flag, value):
    # K, W(n) and G(n) are fixed by (lambda, m, mu) alone, so these commands read no numerical setting.
    res = call_cli(command, *BASE_M1, *extra, flag, value)
    assert res.returncode == 3
    assert res.stderr == f"cdhom: error: unrecognized arguments: {flag} {value}\n"
    assert res.stdout == ""


def test_exit_code_domain_error():
    for z, w in (("1.5", "0"), ("0", "nan")):
        res = run_cli("kernel-eval", *BASE_M1, "--z", z, "--w", w)
        assert res.returncode == 2, (z, w)
        assert "domain error" in res.stderr


def test_exit_code_config_errors(tmp_path):
    assert call_cli("kernel-eval", "--lambda", "1", "--m", "1", "--mu", "bad", "--z", "0", "--w", "0").returncode == 3
    assert call_cli("verify", "--lambda", "0.5", "--m", "1", "--mu", "1,1").returncode == 3
    assert call_cli("nonsense").returncode == 3
    assert call_cli("verify", *BASE_M1, "--tol", "nosuchcheck=1").returncode == 3
    for lam, mu in (("1", "1,inf"), ("1", "1,nan"), ("inf", "1,1")):
        res = call_cli("kernel-eval", "--lambda", lam, "--m", "1", "--mu", mu, "--z", "0", "--w", "0")
        assert res.returncode == 3, (lam, mu)
        assert "config error" in res.stderr
    # numpy's generators take only nonnegative seeds; -1 is refused too, not only the seeds numpy rejects.
    for argv in (
        ["verify", *BASE_M1, "--seed", "-5", "--suite", "shift"],
        ["verify", *BASE_M1, "--seed", "-5", "--suite", "kernel"],
        ["verify", *BASE_M1, "--seed", "-1", "--suite", "shift"],
        ["fixtures", "--seed", "-5", "--out", str(tmp_path / "fixtures")],
    ):
        res = call_cli(*argv)
        assert res.returncode == 3, argv
        assert res.stderr == "config error: seed must be >= 0, got " + argv[argv.index("--seed") + 1] + "\n"
    assert not (tmp_path / "fixtures").exists()
    # An --out that cannot be written: a directory, or a path through a file.
    (tmp_path / "file").write_text("")
    for argv in (
        ["kernel-eval", *BASE_M1, "--z", "0", "--w", "0", "--out", str(tmp_path)],
        ["shift-weights", *BASE_M1, "--nmax", "2", "--out", str(tmp_path / "file" / "x.json")],
        ["fixtures", "--out", str(tmp_path / "file")],
    ):
        res = call_cli(*argv)
        assert res.returncode == 3, argv
        assert res.stderr.startswith("config error: cannot write --out ") and res.stderr.count("\n") == 1, argv


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
        # Sizes whose arrays exceed the address space: numpy refuses them at once, allocating nothing.
        ("shift-weights", BASE_M1 + ["--nmax", "1000000000000000"]),
        ("verify", BASE_M1 + ["--truncation", "1000000000000000", "--suite", "kernel"]),
        ("verify", huge + ["--suite", "kernel"]),  # a principal power in K(z, w) overflows
    ]
    for i, (command, argv) in enumerate(cases):
        yield pytest.param(command, argv, id=f"{command}-extra{i}")
    # 2*lam overflows to inf, so ModelParams rejects the model before any kernel code runs;
    # the kernel's own overflow is reached by the lam = 1e300 case above.
    for m in range(4):
        model = ["--lambda", "1.7e308", "--m", str(m), "--mu", ",".join(["1"] * (m + 1))]
        yield pytest.param("verify", model + ["--suite", "kernel"], id=f"verify-kernel-2lam-rejected-m{m}")


@pytest.mark.parametrize("command, extra", _overflow_cases())
def test_exit_code_overflowing_parameters(command, extra):
    res = call_cli(command, *extra)
    assert res.returncode == 3, res.stderr
    assert res.stderr.startswith("config error") and "Traceback" not in res.stderr
    assert "RuntimeWarning" not in res.stderr
    assert res.stdout == ""
    if "1e300" in extra and (command == "kernel-eval" or extra[-1] == "kernel"):
        assert "K(z, w) leaves the float range at lam = 1e+300" in res.stderr
    if "1.7e308" in extra:
        assert "2*lam overflows the float range" in res.stderr


def test_kernel_eval_reports_a_non_finite_kernel_as_one_config_error_line():
    from cdhom import ModelParams, kernel_full

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning from numpy would raise here instead
        with pytest.raises(OverflowError, match=r"K\(z, w\) leaves the float range at lam = 1e\+160"):
            kernel_full(0.1, 0.0, ModelParams(lam=1e160, m=2, mu=(1.0, 1.0, 1.0)))
    res = call_cli("kernel-eval", "--lambda", "1e160", "--m", "2", "--mu", "1,1,1", "--z", "0.1", "--w", "0")
    assert res.returncode == 3 and res.stdout == ""
    assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("config error:")


def test_verify_reports_a_nan_in_k_as_a_failed_positive_definite(monkeypatch):
    from test_verify import poison_pair

    from cdhom.verify import RunConfig

    poison_pair(monkeypatch, RunConfig(lam=1.6, m=2, mu=(1.0, 0.7, 1.3)), 1, 2)
    res = call_cli("verify", "--lambda", "1.6", "--m", "2", "--mu", "1,0.7,1.3", "--suite", "kernel")
    assert res.returncode == 1 and "Traceback" not in res.stderr
    payload = json.loads(res.stdout, parse_constant=lambda name: pytest.fail(f"{name} in the report"))
    jsonschema.validate(payload, SCHEMA)
    pd = next(c for c in payload["checks"] if c["name"] == "positive_definite")
    assert pd["residual"] is None and pd["parameters"]["min_eigenvalue"] is None and not pd["passed"]


def test_shift_weights_at_huge_lambda_match_mpmath():
    # G(3) overflows at lam = 1e300, but no weight W(n), n <= 2, leaves the float range.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 400  # G(n+1)^-1 G(n) cancels about 300 digits here
    res = call_cli("shift-weights", "--lambda", "1e300", "--m", "1", "--mu", "1,0.5", "--nmax", "2")
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
    res = call_cli(
        "verify", "--lambda", "1.6", "--m", "2", "--mu", "1,0.7,1.3",
        "--truncation", "200", "--suite", "kernel", "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    assert all(c["residual"] is not None and c["passed"] for c in report["checks"])  # null marks non-finite


def test_verify_kernel_suite_on_a_small_grid_radius(tmp_path):
    # --rmax scales the 12 grid points to radii rmax * (0.3, 0.6, 0.9); 0.3 once put them outside it.
    out = tmp_path / "report.json"
    res = call_cli("verify", *BASE_M1, "--rmax", "0.3", "--suite", "kernel", "--out", str(out))
    assert res.returncode in (0, 1), res.stderr
    assert "Traceback" not in res.stderr
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["config"]["r_max"] == 0.3


def test_verify_rep_suite_at_m28_reports_the_k_type_check(tmp_path):
    # Every monomial value at |z0| = 0.33 and degree >= 30 lies below 1e-14; the check must still measure.
    out = tmp_path / "report.json"
    res = call_cli("verify", "--lambda", "18.67", "--m", "28", "--mu", ",".join(["1"] * 29), "--suite", "rep", "--out", str(out))
    assert res.returncode in (0, 1), res.stderr  # cocycle fails on scale at this m
    assert "Traceback" not in res.stderr
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    (record,) = [c for c in report["checks"] if c["name"] == "rotation_k_type"]
    assert record["passed"] and 0.0 < record["residual"] <= 1e-10


@pytest.mark.parametrize(
    "model, suite",
    [
        (["--lambda", "1", "--m", "1", "--mu", "1e-8,1e8"], "kernel"),
        (["--lambda", "3.7", "--m", "6", "--mu", "1e-5,1,1,1,1,1,1e5"], "all"),
    ],
    ids=["m1", "m6"],
)
def test_verify_reports_a_singular_kernel_column_as_a_failed_normalization(tmp_path, model, suite):
    # cond K(z, 0) > 1e13 on the grid: the normalizing map is undefined, which is a failed check, not a crash.
    out = tmp_path / "report.json"
    res = call_cli("verify", *model, "--suite", suite, "--out", str(out))
    assert res.returncode == 1, res.stderr
    assert "Traceback" not in res.stderr
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    (record,) = [c for c in report["checks"] if c["name"] == "normalization"]
    assert record["residual"] is None and not record["passed"]
    assert "numerically singular" in record["note"]
    assert record["note"].startswith("ill-conditioned K(z, 0)") and "degenerate" not in record["note"]


def test_fixtures_regeneration_is_stable(tmp_path):
    res = call_cli("fixtures", "--out", str(tmp_path))
    assert res.returncode == 0
    for name in ("g2", "w2", "k2", "g3", "w3", "k3"):
        fresh = (tmp_path / f"{name}.json").read_bytes()
        committed = (GOLDEN_DIR / f"{name}.json").read_bytes()
        assert fresh == committed, f"{name}.json drifted from the committed fixture"


@pytest.mark.parametrize("m", [0, 1, 2, 6])
@pytest.mark.parametrize("command, key", [("shift-weights", "weights"), ("basis-emit", "coefficients")])
def test_table_writer_matches_json_dumps(tmp_path, command, key, m):
    # The bulk writer against the json encoder over the per-record dicts it replaced; every nmax < 0 is the empty table.
    from cdhom import ModelParams, g_matrix, shift_block
    from cdhom.cli import main

    lam, mu = m / 2.0 + 0.85, [1.0 + 0.1 * j for j in range(m + 1)]
    block = shift_block if command == "shift-weights" else g_matrix
    p = ModelParams(lam=lam, m=m, mu=tuple(mu))
    for nmax in (-5, -2, -1, 0, 1, 3, 40):
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


@pytest.mark.parametrize("m", [0, 1, 2, 6])
@pytest.mark.parametrize("command", ["shift-weights", "basis-emit"])
def test_table_csv_matches_per_record_layout(tmp_path, command, m):
    # The bulk writer against one f"{n},{row},{col},{value!r}" line per entry under the header.
    from cdhom import ModelParams, g_matrix, shift_block
    from cdhom.cli import main

    lam, mu = m / 2.0 + 0.85, [1.0 + 0.1 * j for j in range(m + 1)]
    block = shift_block if command == "shift-weights" else g_matrix
    p = ModelParams(lam=lam, m=m, mu=tuple(mu))
    for nmax in (-5, -2, -1, 0, 1, 3, 40):
        out = tmp_path / f"{command}-{m}-{nmax}.csv"
        argv = [command, "--lambda", repr(lam), "--m", str(m), "--mu", ",".join(map(repr, mu)), "--nmax", str(nmax)]
        assert main(argv + ["--format", "csv", "--out", str(out)]) == 0
        lines = ["n,row,col,value"] + [
            f"{n},{row},{col},{float(block(n, p)[row, col])!r}"
            for n in range(nmax + 1)
            for row in range(m + 1)
            for col in range(m + 1)
        ]
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode(), (nmax, m)


def test_table_writer_edge_floats_match_json_dumps():
    # Signed zero, the smallest subnormal, and the floats whose repr switches to exponent form or rounds.
    from cdhom.cli import _table_csv, _table_json

    table = np.array([
        [[-0.0, 5e-324, 1e16], [1e22, 0.1, -1e-7]],
        [[1e15, 123456789.125, -2.5e-308], [0.0, 1.0, -1e16]],
    ])
    config = {"lambda": 1.0, "m": 1, "mu": [1.0, 1.0]}
    records = [
        {"n": n, "row": row, "col": col, "value": float(table[n, row, col])} for n, row, col in np.ndindex(table.shape)
    ]
    payload = {"config": config, "weights": records}
    assert _table_json(config, "weights", table) == json.dumps(payload, indent=2, sort_keys=True)
    lines = ["n,row,col,value"] + [f"{r['n']},{r['row']},{r['col']},{r['value']!r}" for r in records]
    assert _table_csv(table) == "\n".join(lines) + "\n"
    assert "-0.0" in _table_json(config, "weights", table) and "5e-324" in _table_csv(table)
