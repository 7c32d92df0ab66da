"""cdhom benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory and nothing is installed.  With --trace 0 the run
reports the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run (see perfbench/README.md).  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the lines before it say the same for a reader, with the provenance.  The
full record of the run, and the spans of a traced run, are written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("pass_share", "share"),
)

_TIMED_LAYERS = (
    "scalars.VectorPolynomial.__call__",
    "basis.e_basis",
    "basis.u_closed",
    "basis.g_matrix",
    "basis.basis_value_matrix",
    "kernel.kernel_series",
    "kernel.kernel_full",
    "kernel.check_positive_definite",
    "kernel.check_quasi_invariance",
    "kernel.normalize_kernel",
    "representation.multiplier_J",
    "representation.check_cocycle",
    "operator.shift_block",
    "operator.truncate",
    "operator.representation_matrix",
    "operator.mobius_calculus",
    "operator.check_homogeneity",
    "operator.reproducing_coefficients",
)
_CALLS_REPORTED = (
    "scalars.VectorPolynomial.__call__",
    "basis.e_basis",
    "basis.g_matrix",
    "kernel.kernel_series",
    "kernel.kernel_full",
    "representation.multiplier_J",
    "operator.shift_block",
    "operator.representation_matrix",
)
PER_LAYER = (
    *((f"{n}.calls", "count") for n in _CALLS_REPORTED),
    ("scalars.pochhammer.calls", "count"),
    ("mobius.act.calls", "count"),
    *((f"{n}.self_s", "s") for n in _TIMED_LAYERS),
    ("basis.e_basis.distinct_ratio", "ratio"),
    ("basis.g_matrix.distinct_ratio", "ratio"),
    ("kernel.kernel_series.total_s", "s"),
    ("kernel.kernel_series.wall_share", "share"),
    ("goldens.self_s", "s"),
    ("verify.run_suite.self_s", "s"),
    *((f"verify.suite.{s}.s", "s") for s in ("kernel", "shift", "rep", "operator")),
    ("cli.main.self_s", "s"),
    ("cli.bytes_out", "B"),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)

# Operation latencies are summarised per group of passes holding at least this
# many operations, and the run reports the median over groups.  In 200
# operations the 11th largest is p95: a tail, but not the extreme one that
# scheduler noise on a shared machine decides.
GROUP_MIN_OPS = 200
# Fresh interpreters started for setup_s: half before the passes and half
# after them, so the median spans the run's changes in machine speed.
SETUP_REPEATS = 24
SETUP_TIMEOUT_S = 60
# What a user does first: import the package, build a model, evaluate the kernel once.
SETUP_PROGRAM = (
    "import sys; sys.path.insert(0, sys.argv[1]); import cdhom; "
    "p = cdhom.ModelParams(lam=1.6, m=2, mu=(1.0, 0.7, 1.3)); "
    "k = cdhom.kernel_full(0.1+0.2j, 0.3-0.1j, p); print(repr(complex(k[0, 0])), flush=True)"
)


def load_package():
    """Import cdhom from this checkout's src/, or exit without a result."""
    if not (SRC / "cdhom" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cdhom sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import cdhom
    import cdhom.cli  # noqa: F401  (also imports verify and goldens)

    if Path(cdhom.__file__).resolve().parent != (SRC / "cdhom").resolve():
        sys.exit(f"perfbench: imported cdhom from {cdhom.__file__}, not from {SRC}")
    return cdhom


def measure_setup(cdhom, probe, count: int) -> list[tuple[float, float]]:
    """Time `count` fresh interpreters from start to their first kernel value.

    Returns (wall time, wall time rescaled by the speed probe) of each
    start; the probe is sampled right before and after every start.
    """
    expected = complex(cdhom.kernel_full(0.1 + 0.2j, 0.3 - 0.1j, cdhom.ModelParams(lam=1.6, m=2, mu=(1.0, 0.7, 1.3)))[0, 0])
    times = []
    for _ in range(count):
        probe.sample(probe.BURST)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-I", "-c", SETUP_PROGRAM, str(SRC)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, text=True,
        )
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        probe.sample(probe.BURST)
        if proc.returncode != 0 or complex(line.strip() or "nan") != expected:
            raise RuntimeError(f"set-up program failed (exit {proc.returncode}): {line!r} {err[-500:]}")
        times.append((t1 - t0, (t1 - t0) * probe.factor(t0, t1)))
    return times


def op_groups(latencies: list[float], pass_ends: list[int]) -> list[list[float]]:
    """Consecutive passes joined into groups of at least GROUP_MIN_OPS operations.

    A short tail of passes joins the last group; a run with fewer
    operations than that is one group.
    """
    groups, start = [], 0
    for end in pass_ends:
        if end - start >= GROUP_MIN_OPS:
            groups.append(latencies[start:end])
            start = end
    if start < len(latencies):
        if groups:
            groups[-1] = groups[-1] + latencies[start:]
        else:
            groups.append(latencies[start:])
    return groups


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest nearest-rank percentile with at least 10 operations beyond it.

    With 10 operations or fewer no percentile qualifies; the tail is then
    the largest operation (p100), which the run states.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - 10 if n > 10 else n
    return ordered[rank - 1], 100.0 * rank / n


def blas_threads():
    """Thread count the OpenBLAS that numpy loaded reports, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def provenance(cdhom, seed: int, trace: bool) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "CDHOM_THREADS": os.environ.get("CDHOM_THREADS"),
        "verify_pool_size": cdhom.verify._max_workers(),
        "cdhom_version": cdhom.__version__,
        "seed": seed,
        "git_commit": commit,
        "trace": trace,
        "loadavg_at_start": [round(v, 2) for v in os.getloadavg()],
    }


def run_passes(workload, ledger, seconds: float, tracer=None):
    """Run whole passes while the budget allows another; at least the workload's MIN_PASSES.

    With a tracer every pass is traced, and each measured call is
    followed by an untraced copy of itself (`workloads.Env`), which gives
    the tracing overhead.  Returns the (start, end) of each pass, the
    number of operations recorded at the end of each pass, and for a
    traced run the trace, bytes written and copy pairs of each pass.
    """
    env = workload.env
    passes, pass_ends, traces = [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        if tracer is not None:
            tracer.reset()
            tracer.install(env.c)
        env.bytes_out = 0
        env.pairs = []
        t0 = time.perf_counter()
        try:
            workload.run_pass(k, ledger)
        finally:
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.uninstall()
        passes.append((t0, t1))
        pass_ends.append(len(ledger.ops))
        if tracer is not None:
            traces.append((tracer.snapshot(), (t0, t1), env.bytes_out, env.pairs))
        k += 1
        if k >= workload.MIN_PASSES and time.perf_counter() - start + (t1 - t0) > seconds:
            return passes, pass_ends, traces


def layer_metrics(traces, probe) -> dict:
    """Per-layer metrics, averaged over the traced passes.

    Span times are as measured; the trace.* pass times are rescaled by the
    speed probe like run_s.  A traced pass also holds the untraced copy of
    each measured call: trace.run_s leaves the copies out, and
    trace.untraced_run_s puts each copy in place of its traced call.
    """
    per_pass = []
    for trace, (p0, p1), bytes_out, pairs in traces:
        calls, total, self_s = trace.totals()
        row = {}
        for name in _CALLS_REPORTED:
            row[f"{name}.calls"] = calls.get(name, 0)
        for name in _TIMED_LAYERS:
            row[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in ("scalars.pochhammer", "mobius.act"):
            row[f"{name}.calls"] = trace.counts.get(name, 0)
        for name in ("basis.e_basis", "basis.g_matrix"):
            n_calls = calls.get(name, 0)
            row[f"{name}.distinct_ratio"] = trace.distinct.get(name, 0) / n_calls if n_calls else 0.0
        traced_wall = (p1 - p0) - sum(u1 - u0 for _, (u0, u1) in pairs)
        row["kernel.kernel_series.total_s"] = total.get("kernel.kernel_series", 0.0)
        row["kernel.kernel_series.wall_share"] = trace.busy("kernel.kernel_series") / traced_wall
        row["goldens.self_s"] = sum(v for k, v in self_s.items() if k.startswith("goldens."))
        row["verify.run_suite.self_s"] = sum(v for k, v in self_s.items() if k.startswith("verify.run_suite["))
        for suite in ("kernel", "shift", "rep", "operator"):
            row[f"verify.suite.{suite}.s"] = total.get(f"verify.run_suite[{suite}]", 0.0)
        row["cli.main.self_s"] = self_s.get("cli.main", 0.0)
        row["cli.bytes_out"] = bytes_out
        row["trace.spans"] = len(trace.spans)
        whole = probe.rescaled(p0, p1)
        traced_s = sum(probe.rescaled(*t) for t, _ in pairs)
        copies_s = sum(probe.rescaled(*u) for _, u in pairs)
        row["trace.run_s"] = whole - copies_s
        row["trace.untraced_run_s"] = whole - traced_s
        row["trace.overhead_s"] = traced_s - copies_s
        per_pass.append(row)
    return {key: statistics.fmean(row[key] for row in per_pass) for key in per_pass[0]}


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring budget; whole passes, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test only")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    args = parse_args(argv)
    cdhom = load_package()
    from tracing import Tracer
    from workloads import WORKLOADS, Env, Ledger

    seed = args.seed % 2**32
    trace = bool(args.trace)
    tmp = OUT / "tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    try:
        env = Env(cdhom, ROOT, tmp, tracer)
        info = provenance(cdhom, args.seed, trace)
        setups = 0 if trace else SETUP_REPEATS // 2
        setup_runs = measure_setup(cdhom, env.probe, setups)
        workload = WORKLOADS[args.workload](env, seed, tiny=args.tiny)
        ledger = Ledger()
        passes, pass_ends, traces = run_passes(workload, ledger, args.seconds, tracer)
        setup_runs += measure_setup(cdhom, env.probe, setups)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    probe = env.probe
    latencies = [(t1 - t0) * probe.factor(t0, t1) for t0, t1 in ledger.ops]
    pass_s = [probe.rescaled(t0, t1) for t0, t1 in passes]
    n_ops = len(latencies)
    groups = op_groups(latencies, pass_ends)
    tails = [tail(g) for g in groups]
    tail_pct = statistics.median(t[1] for t in tails)
    group_ops = statistics.median(len(g) for g in groups)
    if trace:
        values = layer_metrics(traces, probe)
        declared = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(t[1] for t in setup_runs),
            "run_s": statistics.median(pass_s),
            "op_p50_ms": 1e3 * statistics.median(statistics.median(g) for g in groups),
            "op_tail_ms": 1e3 * statistics.median(t[0] for t in tails),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_share": 1.0 - ledger.failed / ledger.attempted,
        }
        declared = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared}
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        raise RuntimeError(f"non-finite metric in {metrics}")
    result = {
        "correct": ledger.wrong == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "tiny": args.tiny,
        "provenance": info,
        "passes": {
            "pass_s": pass_s,
            "wall_s": [t1 - t0 for t0, t1 in passes],
            "speed_factor": [probe.rescaled(t0, t1) / (t1 - t0) for t0, t1 in passes],
        },
        "untraced_copies": [
            {
                "pairs": len(pairs),
                "traced_s": sum(probe.rescaled(*t) for t, _ in pairs),
                "untraced_s": sum(probe.rescaled(*u) for _, u in pairs),
            }
            for _, _, _, pairs in traces
        ],
        "probes": len(probe.took),
        "wall_op_p50_ms": 1e3 * statistics.median(t1 - t0 for t0, t1 in ledger.ops),
        "operations": n_ops,
        "tail_percentile": tail_pct,
        "op_groups": len(groups),
        "ops_per_group": group_ops,
        "largest_ops_ms": [1e3 * v for v in sorted(latencies)[-20:]],
        "fail_share": ledger.failed / ledger.attempted,
        "wrong_output": ledger.wrong,
        "setup_runs_wall_s": [t[0] for t in setup_runs],
        "failures": ledger.notes,
        "result": result,
    }
    runs_dir = OUT / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{int(trace)}{'.tiny' if args.tiny else ''}"
    (runs_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if trace:
        from tracing import save_spans

        save_spans(OUT / "spans" / f"{stem}.npz", [t[0] for t in traces])

    print(f"workload {args.workload}, seed {args.seed}, trace {int(trace)}: {json.dumps(info, sort_keys=True)}")
    print(f"passes: {len(passes)}{' (traced, each measured call followed by an untraced copy)' if trace else ''}; "
          f"{n_ops} operations in {len(groups)} group(s) of about {group_ops:g}; "
          f"tail = p{tail_pct:.1f} of each group, median over groups")
    print(f"attempted {ledger.attempted}, failed {ledger.failed} (fail_share {ledger.failed / ledger.attempted:.4g}, "
          f"wrong output {ledger.wrong})")
    for note in ledger.notes[:10]:
        print(f"  {note}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
