"""Command-line surface: evaluate kernels and weights, run verifications.

Subcommands: kernel-eval, shift-weights, basis-emit, verify, fixtures.
Only verify reads the numerical settings --truncation, --rmax, --tol and
--seed; the others print closed forms fixed by (lambda, m, mu) alone.
Exit codes: 0 success, 1 verification failure, 2 domain error, 3 config
error (including parameters so large that a computed value overflows,
sizes such as --nmax or --truncation whose arrays cannot be allocated, and
an --out path that cannot be written).
An --out file is rewritten in place: opened without truncation, written
from its start and then, if it is a regular file, cut at the new length, so
it keeps its inode, mode, symlinks and hard links.  It is not atomic, and it
is less safe across a crash than a truncating open: a crash soon after a
rewrite can leave a file of the new length holding old bytes, or a mix of
old and new.
Output is JSON (schema under cdhom/schemas/) or flat CSV, with complex
numbers serialized as {"re": ..., "im": ...}; identical config and seed
produce byte-identical output.  The shift-weights and basis-emit tables
are written in one bulk pass over their entries, byte-identical to
json.dumps(payload, indent=2, sort_keys=True) of the same records.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import stat
import sys
from pathlib import Path

import numpy as np

from . import goldens
from .basis import g_table
from .errors import ConfigError, DomainError, NormalizationError, PoleError
from .kernel import kernel_full
from .operator import shift_table
from .representation import ModelParams
from .verify import SUITES, RunConfig, run_suite, seeded_points

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
    sub.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    sub.add_argument("--out", type=str, default="", help="write output to this path instead of stdout")
    sub.add_argument("--allow-degenerate", action="store_true", help="permit 2*lambda <= m (negative tests)")


def _params_from(args) -> ModelParams:
    return ModelParams(lam=args.lam, m=args.m, mu=_parse_mu(args.mu), allow_degenerate=args.allow_degenerate)


def _write(path: Path, text: str):
    """Write text to path in place, making its directory; a path that cannot be written is a config error.

    The file is opened without O_TRUNC, overwritten from its start and, if it is a regular
    file, cut at the new length, so it keeps its inode, mode and links.  After a truncating
    open, ext4 starts writing the new contents to disk when the file is closed, so a crash
    leaves it empty or whole; on a virtual disk that flush made each rewrite of a 4 KB to
    1.2 MB file wait 50-110 ms, against 0.1 ms in place.  In place there is no such flush:
    a crash soon after a rewrite can leave the new length holding old bytes, or a mix of
    old and new.  A new path is created and written as before.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as file:
            file.write(text.encode("utf-8"))
            if stat.S_ISREG(os.fstat(file.fileno()).st_mode):  # /dev/null and pipes cannot be truncated
                file.truncate()
    except OSError as exc:
        raise ConfigError(f"cannot write --out {path}: {exc}") from exc


def _emit(text: str, out: str):
    if out:
        _write(Path(out), text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _c(value: complex) -> dict:
    return {"re": float(value.real), "im": float(value.imag)}


def _complex_matrix(mat: np.ndarray) -> list:
    return [[_c(v) for v in row] for row in mat]


def cmd_kernel_eval(args) -> int:
    p = _params_from(args)
    z, w = _parse_complex(args.z), _parse_complex(args.w)
    mat = kernel_full(z, w, p)  # OverflowError when a value of K is not finite
    if args.fmt == "json":
        payload = {
            "config": {"lambda": p.lam, "m": p.m, "mu": list(p.mu)},
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


# A table entry [n, row, col] is written as head(row, col) + str(n) + mid(row, col) + repr(value).
_JSON_HEAD = '    {{\n      "col": {col},\n      "n": '
_JSON_MID = ',\n      "row": {row},\n      "value": '
_JSON_SEPARATOR = "\n    },\n"  # closes one record before the next opens
_RECORDS_SLOT = "@records@"


def _table_records(table: np.ndarray, head: str, mid: str, separator: str = "") -> str:
    """Every entry [n, row, col] of table, in C order, as head + str(n) + mid + repr(value), joined by separator.

    head and mid are filled with row and col once per cell of a block, str(n)
    is made once per degree and the values go through repr (float.__repr__,
    as json writes them); the fragments are interleaved in one list and
    joined once.
    """
    count, rows, cols = table.shape
    cells = list(itertools.product(range(rows), range(cols)))
    parts = [""] * (4 * table.size)
    parts[0::4] = [separator + head.format(row=row, col=col) for row, col in cells] * count
    parts[1::4] = itertools.chain.from_iterable(itertools.repeat(str(n), len(cells)) for n in range(count))
    parts[2::4] = [mid.format(row=row, col=col) for row, col in cells] * count
    parts[3::4] = map(repr, table.ravel().tolist())
    if parts:
        parts[0] = parts[0].removeprefix(separator)
    return "".join(parts)


def _table_json(config: dict, key: str, table: np.ndarray) -> str:
    """The table as json.dumps(payload, indent=2, sort_keys=True) writes it, byte for byte.

    json formats floats with float.__repr__ and ints with int.__repr__, and
    sorts the record keys col, n, row, value, so the records are written in
    bulk by _table_records; the rest of the payload still goes through
    json, with a placeholder string where the records belong.
    """
    text = json.dumps({"config": config, key: _RECORDS_SLOT}, indent=2, sort_keys=True)
    before, _, after = text.partition(json.dumps(_RECORDS_SLOT))
    if not table.size:
        return f"{before}[]{after}"
    records = _table_records(table, _JSON_HEAD, _JSON_MID, _JSON_SEPARATOR)
    return "".join((before, "[\n", records, "\n    }\n  ]", after))


def _table_csv(table: np.ndarray) -> str:
    """The table as CSV lines n,row,col,value under a header, values written with float.__repr__."""
    return "n,row,col,value" + _table_records(table, "\n", ",{row},{col},") + "\n"  # each record opens a line


def _table_command(table, key: str):
    """A subcommand that tabulates the real (m+1)x(m+1) matrices table(nmax, params)[n], n <= nmax."""

    def command(args) -> int:
        p = _params_from(args)
        values = table(args.nmax, p)  # finite or OverflowError; (0, m+1, m+1) when nmax < 0
        if args.fmt == "json":
            config = {"lambda": p.lam, "m": p.m, "mu": list(p.mu)}
            _emit(_table_json(config, key, values), args.out)
        else:
            _emit(_table_csv(values), args.out)
        return EXIT_OK

    return command


# The lambdas look the table functions up at call time, so wrappers installed on
# this module's names (as the benchmark's tracer does) see every call.
cmd_shift_weights = _table_command(lambda n_max, p: shift_table(n_max, p), "weights")
cmd_basis_emit = _table_command(lambda n_max, p: g_table(n_max, p), "coefficients")


def cmd_verify(args) -> int:
    cfg = RunConfig(
        lam=args.lam,
        m=args.m,
        mu=_parse_mu(args.mu),
        truncation=args.truncation,
        r_max=args.rmax,
        tolerances=_parse_tols(args.tol),
        seed=args.seed,
        allow_degenerate=args.allow_degenerate,
    )
    report = run_suite(cfg, args.suite)
    _emit(report.to_json() if args.fmt == "json" else report.to_csv(), args.out)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def fixture_payloads(seed: int) -> dict[str, dict]:
    """Golden fixture data from the hand-expanded m=1 and m=2 closed forms."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    out: dict[str, dict] = {}
    for m, tag in ((1, "2"), (2, "3")):
        closed = {family: getattr(goldens, f"{family}_m{m}") for family in ("g_matrix", "shift_block", "kernel")}
        mu_grids = [(mu1,) for mu1 in GOLDEN_MUS] if m == 1 else [
            (mu1, mu2) for mu1 in GOLDEN_MUS for mu2 in GOLDEN_MUS
        ]
        g_vals, w_vals, k_vals = [], [], []
        zs = seeded_points(seed + 1, GOLDEN_POINT_COUNT)
        ws = seeded_points(seed + 2, GOLDEN_POINT_COUNT)
        for lam in GOLDEN_LAMBDAS[m]:
            for n in range(GOLDEN_N_MAX + 1):
                g = closed["g_matrix"](n, lam)
                g_vals.append({"n": n, "lambda": lam, "matrix": [[float(v) for v in row] for row in g]})
            for mus in mu_grids:
                for n in range(GOLDEN_N_MAX + 1):
                    w = closed["shift_block"](n, lam, *mus)
                    w_vals.append(
                        {"n": n, "lambda": lam, "mu": list(mus), "matrix": [[float(v) for v in row] for row in w]}
                    )
                for i, (z, w_pt) in enumerate(zip(zs, ws)):
                    k = closed["kernel"](z, w_pt, lam, *mus)
                    k_vals.append({"lambda": lam, "mu": list(mus), "point": i, "matrix": _complex_matrix(k)})
        points = [{"z": _c(z), "w": _c(w_pt)} for z, w_pt in zip(zs, ws)]
        out[f"g{tag}"] = {"family": "coefficient_matrix", "m": m, "values": g_vals}
        out[f"w{tag}"] = {"family": "shift_block", "m": m, "values": w_vals}
        out[f"k{tag}"] = {"family": "kernel", "m": m, "seed": seed, "points": points, "values": k_vals}
    return out


def cmd_fixtures(args) -> int:
    payloads = fixture_payloads(args.seed)  # a bad seed raises before any directory is made
    outdir = Path(args.out or "fixtures")
    for name, payload in payloads.items():
        _write(outdir / f"{name}.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
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
    p_verify.add_argument(
        "--truncation", type=int, default=RunConfig.truncation, help="series/operator truncation degree"
    )
    p_verify.add_argument("--rmax", type=float, default=RunConfig.r_max, help="grid radius for verification checks")
    p_verify.add_argument("--tol", action="append", default=[], metavar="CHECK=VAL", help="tolerance override")
    p_verify.add_argument("--seed", type=int, default=RunConfig.seed, help="seed for sampled points")
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.set_defaults(func=cmd_verify)

    p_fix = sub.add_parser("fixtures", help="write golden fixture files from the explicit closed forms")
    p_fix.add_argument("--out", type=str, default="fixtures")
    p_fix.add_argument("--seed", type=int, default=RunConfig.seed)
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
    except OverflowError as exc:
        sys.stderr.write(f"config error: the parameters are out of the representable range ({exc})\n")
        return EXIT_CONFIG
    except MemoryError as exc:
        sys.stderr.write(f"config error: the requested size does not fit in memory ({exc})\n")
        return EXIT_CONFIG
    except (DomainError, PoleError, NormalizationError) as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
