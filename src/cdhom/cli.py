"""Command-line surface: evaluate kernels and weights, run verifications.

Subcommands: kernel-eval, shift-weights, basis-emit, verify, fixtures.
Exit codes: 0 success, 1 verification failure, 2 domain error, 3 config
error.  Output is JSON (schema under cdhom/schemas/) or flat CSV, with
complex numbers serialized as {"re": ..., "im": ...}; identical config
and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import goldens
from .basis import g_matrix
from .errors import ConfigError, DomainError, NormalizationError, PoleError
from .kernel import kernel_full
from .operator import shift_block
from .verify import RunConfig, run_suite, seeded_points

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_DOMAIN = 2
EXIT_CONFIG = 3

GOLDEN_N_MAX = 20
GOLDEN_LAMBDAS = {1: (0.75, 1.0, 2.0), 2: (1.25, 1.6, 2.5)}
GOLDEN_MUS = (0.5, 1.0, 2.0)
GOLDEN_POINT_COUNT = 10


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage with the config-error exit code."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _parse_mu(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse --mu {text!r}: comma-separated reals expected") from exc


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex number {text!r} (use e.g. 0.1+0.2j)") from exc


def _parse_tols(pairs: list[str]) -> tuple[tuple[str, float], ...]:
    out = []
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--tol expects name=value, got {pair!r}")
        name, _, val = pair.partition("=")
        try:
            out.append((name, float(val)))
        except ValueError as exc:
            raise ConfigError(f"cannot parse tolerance value in {pair!r}") from exc
    return tuple(out)


def _add_model_args(sub: argparse.ArgumentParser):
    sub.add_argument("--lambda", dest="lam", type=float, required=True, help="weight parameter (2*lambda > m)")
    sub.add_argument("--m", type=int, required=True, help="block size minus one")
    sub.add_argument("--mu", type=str, required=True, help="m+1 comma-separated positive scale factors")
    sub.add_argument("--truncation", type=int, default=60, help="series/operator truncation degree")
    sub.add_argument("--rmax", type=float, default=0.5, help="grid radius for verification checks")
    sub.add_argument("--tol", action="append", default=[], metavar="CHECK=VAL", help="tolerance override")
    sub.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    sub.add_argument("--out", type=str, default="", help="write output to this path instead of stdout")
    sub.add_argument("--seed", type=int, default=20260810, help="seed for sampled points")
    sub.add_argument("--allow-degenerate", action="store_true", help="permit 2*lambda <= m (negative tests)")


def _config_from(args) -> RunConfig:
    return RunConfig(
        lam=args.lam,
        m=args.m,
        mu=_parse_mu(args.mu),
        truncation=args.truncation,
        r_max=args.rmax,
        tolerances=_parse_tols(args.tol),
        fmt=args.fmt,
        seed=args.seed,
        allow_degenerate=args.allow_degenerate,
    )


def _emit(text: str, out: str):
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _c(value: complex) -> dict:
    return {"re": float(value.real), "im": float(value.imag)}


def _complex_matrix(mat: np.ndarray) -> list:
    return [[_c(v) for v in row] for row in mat]


def cmd_kernel_eval(args) -> int:
    cfg = _config_from(args)
    z, w = _parse_complex(args.z), _parse_complex(args.w)
    mat = kernel_full(z, w, cfg.params())
    if cfg.fmt == "json":
        payload = {
            "config": {"lambda": cfg.lam, "m": cfg.m, "mu": list(cfg.mu)},
            "z": _c(z),
            "w": _c(w),
            "matrix": _complex_matrix(mat),
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        lines = ["row,col,re,im"]
        for i, row in enumerate(mat):
            for k, v in enumerate(row):
                lines.append(f"{i},{k},{float(v.real)!r},{float(v.imag)!r}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _table_command(block, key: str):
    """A subcommand that tabulates the real (m+1)x(m+1) matrices block(n, params), n <= nmax."""

    def command(args) -> int:
        cfg = _config_from(args)
        p = cfg.params()
        records = []
        for n in range(args.nmax + 1):
            mat = block(n, p)
            for row in range(p.m + 1):
                for col in range(p.m + 1):
                    records.append({"n": n, "row": row, "col": col, "value": float(mat[row, col])})
        if cfg.fmt == "json":
            payload = {"config": {"lambda": cfg.lam, "m": cfg.m, "mu": list(cfg.mu)}, key: records}
            _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
        else:
            lines = ["n,row,col,value"] + [f"{r['n']},{r['row']},{r['col']},{r['value']!r}" for r in records]
            _emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK

    return command


# The lambdas look the block functions up at call time, so wrappers installed on
# this module's names (as the benchmark's tracer does) see every call.
cmd_shift_weights = _table_command(lambda n, p: shift_block(n, p), "weights")
cmd_basis_emit = _table_command(lambda n, p: g_matrix(n, p), "coefficients")


def cmd_verify(args) -> int:
    cfg = _config_from(args)
    report = run_suite(cfg, args.suite)
    _emit(report.to_json() if cfg.fmt == "json" else report.to_csv(), args.out)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def fixture_payloads(seed: int) -> dict[str, dict]:
    """Golden fixture data from the hand-expanded m=1 and m=2 closed forms."""
    out: dict[str, dict] = {}
    for m, tag in ((1, "2"), (2, "3")):
        lams = GOLDEN_LAMBDAS[m]
        g_vals, w_vals, k_vals = [], [], []
        zs = seeded_points(seed + 1, GOLDEN_POINT_COUNT)
        ws = seeded_points(seed + 2, GOLDEN_POINT_COUNT)
        for lam in lams:
            for n in range(GOLDEN_N_MAX + 1):
                g = goldens.g_matrix_m1(n, lam) if m == 1 else goldens.g_matrix_m2(n, lam)
                g_vals.append({"n": n, "lambda": lam, "matrix": [[float(v) for v in row] for row in g]})
            mu_grids = [(mu1,) for mu1 in GOLDEN_MUS] if m == 1 else [
                (mu1, mu2) for mu1 in GOLDEN_MUS for mu2 in GOLDEN_MUS
            ]
            for mus in mu_grids:
                for n in range(GOLDEN_N_MAX + 1):
                    w = (
                        goldens.shift_block_m1(n, lam, *mus)
                        if m == 1
                        else goldens.shift_block_m2(n, lam, *mus)
                    )
                    w_vals.append(
                        {"n": n, "lambda": lam, "mu": list(mus), "matrix": [[float(v) for v in row] for row in w]}
                    )
                for i, (z, w_pt) in enumerate(zip(zs, ws)):
                    k = (
                        goldens.kernel_m1(z, w_pt, lam, *mus)
                        if m == 1
                        else goldens.kernel_m2(z, w_pt, lam, *mus)
                    )
                    k_vals.append(
                        {"lambda": lam, "mu": list(mus), "point": i, "matrix": _complex_matrix(k)}
                    )
        points = [{"z": _c(z), "w": _c(w_pt)} for z, w_pt in zip(zs, ws)]
        out[f"g{tag}"] = {"family": "coefficient_matrix", "m": m, "values": g_vals}
        out[f"w{tag}"] = {"family": "shift_block", "m": m, "values": w_vals}
        out[f"k{tag}"] = {"family": "kernel", "m": m, "seed": seed, "points": points, "values": k_vals}
    return out


def cmd_fixtures(args) -> int:
    outdir = Path(args.out or "fixtures")
    outdir.mkdir(parents=True, exist_ok=True)
    for name, payload in fixture_payloads(args.seed).items():
        (outdir / f"{name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    sys.stdout.write(f"wrote 6 fixture files to {outdir}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cdhom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_kernel = sub.add_parser("kernel-eval", help="evaluate the matrix kernel at one point pair")
    _add_model_args(p_kernel)
    p_kernel.add_argument("--z", required=True, help="first point, e.g. 0.1+0.2j")
    p_kernel.add_argument("--w", required=True, help="second point")
    p_kernel.set_defaults(func=cmd_kernel_eval)

    p_shift = sub.add_parser("shift-weights", help="tabulate shift blocks W(n)")
    _add_model_args(p_shift)
    p_shift.add_argument("--nmax", type=int, default=10, help="largest block index")
    p_shift.set_defaults(func=cmd_shift_weights)

    p_basis = sub.add_parser("basis-emit", help="tabulate basis coefficient matrices G(n)")
    _add_model_args(p_basis)
    p_basis.add_argument("--nmax", type=int, default=10, help="largest degree")
    p_basis.set_defaults(func=cmd_basis_emit)

    p_verify = sub.add_parser("verify", help="run verification suites and emit a report")
    _add_model_args(p_verify)
    p_verify.add_argument("--suite", choices=("all", "kernel", "shift", "rep", "operator"), default="all")
    p_verify.set_defaults(func=cmd_verify)

    p_fix = sub.add_parser("fixtures", help="write golden fixture files from the explicit closed forms")
    p_fix.add_argument("--out", type=str, default="fixtures")
    p_fix.add_argument("--seed", type=int, default=20260810)
    p_fix.set_defaults(func=cmd_fixtures)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except (DomainError, PoleError, NormalizationError) as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
