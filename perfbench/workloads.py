"""The three closed-loop workloads of the cdhom benchmark.

Each workload is one client in one process that waits for every result
before it asks for the next; the benchmark adds no threads of its own.
All inputs come from the seed.  A pass is one sweep over the workload's
input, and every operation's output goes through a correctness gate.

Outcomes are kept in a `Ledger`.  An operation fails when it raises,
returns a non-finite value, or its output fails the gate.  Two kinds of
failure are told apart:

* accuracy: a residual above its documented tolerance, whether the
  program's own verify report says so or the benchmark measures it;
* wrong output: anything the program does not itself report, that is a
  raise, a non-finite value, a report that breaks the schema, differs on
  repetition or disagrees with its exit code, a kernel that is not
  Hermitian or misses the m=2 golden form, or an emitted table that does
  not read back to `g_matrix`/`shift_block`.

Both kinds count in `failed`; only wrong output makes a run incorrect.
"""

from __future__ import annotations

import bisect
import cmath
import json
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# Check records per verify suite, used when an invocation yields no report.
SUITE_RECORDS = {"kernel": 6, "shift": 6, "rep": 7, "operator": 5}
SUITES = tuple(SUITE_RECORDS)
MU_RANGE = (0.6, 1.4)


def _probe_work(steps: int = 3000) -> complex:
    acc, z = 0j, 0.3 + 0.4j
    for i in range(steps):
        acc = acc * z + i
    return acc


class SpeedProbe:
    """A fixed piece of pure-Python work, timed between operations.

    On a shared machine the speed of a core changes by 20% and more over
    a few seconds, for CPU time as much as for wall time, so the same work
    takes a different time from one run to the next.  The benchmark times
    this probe at least every INTERVAL_S between operations and rescales
    each stretch of work by REFERENCE_S / (median probe time around it):
    times are reported at the speed at which the probe takes REFERENCE_S,
    the probe's tenth percentile on the 2-core machine of the seed numbers.
    A stretch longer than a few seconds is rescaled by the speed at its two
    ends only.  The probe does not touch cdhom, so no change to the program
    can move it.
    """

    REFERENCE_S = 2.5e-4
    INTERVAL_S = 0.02
    BURST = 5  # probes after an operation longer than LONG_S
    LONG_S = 0.1
    WINDOW_S = 0.5

    def __init__(self):
        self.starts: list[float] = []
        self.took: list[float] = []
        self._last = -math.inf

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            _probe_work()
            t1 = time.perf_counter()
            self.starts.append(t0)
            self.took.append(t1 - t0)
        self._last = t1

    def maybe(self, burst: bool = False) -> None:
        if burst:
            self.sample(self.BURST)
        elif time.perf_counter() - self._last >= self.INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median probe time within WINDOW_S of [start, end]."""
        i = bisect.bisect_left(self.starts, start - self.WINDOW_S)
        j = bisect.bisect_right(self.starts, end + self.WINDOW_S)
        if i == j:  # no probe in the window: take the nearest on either side
            i, j = max(0, i - 1), min(len(self.took), j + 1)
        return self.REFERENCE_S / statistics.median(self.took[i:j])

    def rescaled(self, start: float, end: float) -> float:
        """The time in [start, end] outside the probes, stretch by stretch rescaled.

        Each stretch of work between two probes gets the factor of its own
        surroundings, so a long pass is rescaled as finely as the probes
        allow.
        """
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_right(self.starts, end)
        edges = [start]
        for k in range(i, j):
            edges += [self.starts[k], min(end, self.starts[k] + self.took[k])]
        edges.append(end)
        return sum((b - a) * self.factor(a, b) for a, b in zip(edges[0::2], edges[1::2]) if b > a)


@dataclass
class Ledger:
    """Operation intervals (perf_counter start, end) and the outcome of every checked result."""

    ops: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list = field(default_factory=list)

    def outcome(self, ok: bool, what: str = "", wrong: bool = False, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if wrong:
                self.wrong += count
            if len(self.notes) < 40:
                self.notes.append(("wrong: " if wrong else "accuracy: ") + what)


class Env:
    """What every workload needs: the package, the gates' references, a scratch directory."""

    def __init__(self, cdhom, root, tmp, tracer=None):
        import jsonschema

        self.c = cdhom
        self.tmp = tmp
        self.tracer = tracer
        schema_path = root / "src" / "cdhom" / "schemas" / "report.schema.json"
        self.validator = jsonschema.Draft202012Validator(json.loads(schema_path.read_text()))
        self.tol = dict(cdhom.verify.DEFAULT_TOLERANCES)
        self.probe = SpeedProbe()
        self.bytes_out = 0
        self.op = 0
        self.pairs: list = []  # ((traced start, end), (untraced start, end)) of the current pass
        self._paired = 0
        self._copying = False

    def timed(self, ledger: Ledger, fn):
        """Run one latency operation; its interval is recorded even if it raises."""
        self.op += 1
        if self.tracer is not None:
            self.tracer.op_id = self.op
        self.probe.maybe()
        first = self._copy_first()
        copy = self._untraced_copy(fn) if first else None
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter()
            ledger.ops.append((t0, t1))
            self.probe.maybe(burst=t1 - t0 > self.probe.LONG_S)
        if first is False:
            copy = self._untraced_copy(fn)
        if copy is not None:
            self.pairs.append(((t0, t1), copy))
        return result

    def check(self, ledger: Ledger, label: str, compute, within) -> None:
        """One checked call that is not a latency operation: a residual and its bound."""
        self.probe.maybe()
        first = self._copy_first()
        copy = self._untraced_copy(compute) if first else None
        t0 = time.perf_counter()
        try:
            value = float(compute())
        except Exception as exc:
            ledger.outcome(False, f"{label} {_describe(exc)}", wrong=True)
            return
        finally:
            t1 = time.perf_counter()
            self.probe.maybe(burst=True)
        if first is False:
            copy = self._untraced_copy(compute)
        if copy is not None:
            self.pairs.append(((t0, t1), copy))
        if not math.isfinite(value):
            ledger.outcome(False, f"{label} = {value}", wrong=True)
        else:
            ledger.outcome(within(value), f"{label} = {value:.3g}")

    def _copy_first(self) -> bool | None:
        """Whether the untraced copy of the next call goes before it; None outside a traced pass.

        In a traced pass every measured call is made twice on the same
        input: traced, and with the tracer taken out.  The pair gives the
        tracing overhead of that call, at nearly the same machine speed.
        The second of two identical calls is often faster (warm caches,
        memory the first one mapped), so the order follows the Thue-Morse
        sequence over the calls of the run, which balances the two orders
        over every aligned block of 2, 4, 8, ... calls.
        """
        if self.tracer is None or not self.tracer.installed:
            return None
        n, self._paired = self._paired, self._paired + 1
        return bin(n).count("1") % 2 == 1

    def _untraced_copy(self, fn) -> tuple[float, float] | None:
        """Call `fn` with the tracer taken out; its (start, end), or None if it raised."""
        self.tracer.uninstall()
        self._copying = True
        t0 = time.perf_counter()
        try:
            fn()
            return t0, time.perf_counter()
        except (Exception, SystemExit):
            return None
        finally:
            t1 = time.perf_counter()
            self._copying = False
            self.tracer.install(self.c)
            self.probe.maybe(burst=t1 - t0 > self.probe.LONG_S)

    def cli(self, argv: list[str], out) -> tuple[int, str]:
        """One `cdhom` command with its output written to `out`; returns (exit code, text)."""
        rc = self.c.cli.main(argv + ["--out", str(out)])
        text = out.read_text(encoding="utf-8")
        if not self._copying:
            self.bytes_out += len(text.encode("utf-8"))
        return rc, text


def _num(x: float) -> str:
    return repr(float(x))


def _model_args(lam: float, m: int, mu) -> list[str]:
    return ["--lambda", _num(lam), "--m", str(m), "--mu", ",".join(_num(v) for v in mu)]


def _describe(exc: BaseException) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def _finite(a) -> bool:
    return bool(np.all(np.isfinite(a)))


class VerifySweep:
    """Distinct seeded parameter sets, each verified suite by suite through the CLI.

    This is the default user path.  Every pass draws new parameter sets, so
    the G(n) cache stays cold.  One operation is one suite invocation; for
    the failure count, one operation is one check record.  The short shift
    and rep suites run a second time, outside the timed operations, to
    check that the reports are byte-identical.
    """

    name = "verify-sweep"
    MIN_PASSES = 1
    LAYOUT = (2, 6)
    # At m=6 both homogeneity_rotation and homogeneity_monotone fail across this
    # lambda range (ROADMAP item 3), so every run shows the same known failures.
    LAMBDA_RANGE = {2: (1.3, 2.5), 6: (3.5, 3.9)}
    REPEATED = ("shift", "rep")

    def __init__(self, env: Env, seed: int, tiny: bool = False):
        self.env, self.seed = env, seed
        self.layout = (2,) if tiny else self.LAYOUT
        self.extra = ["--truncation", "8"] if tiny else []

    def parameter_sets(self, k: int) -> list[tuple]:
        rng = np.random.default_rng([self.seed, 1, k])
        out = []
        for m in self.layout:
            lam = float(rng.uniform(*self.LAMBDA_RANGE[m]))
            mu = tuple(float(v) for v in rng.uniform(*MU_RANGE, m + 1))
            out.append((m, lam, mu, int(rng.integers(0, 2**31 - 1))))
        return out

    def run_pass(self, k: int, ledger: Ledger) -> None:
        for m, lam, mu, check_seed in self.parameter_sets(k):
            base = ["verify", *_model_args(lam, m, mu), "--seed", str(check_seed), *self.extra]
            for suite in SUITES:
                self._suite(base + ["--suite", suite], suite, ledger, f"m={m} lambda={lam:.4f} {suite}")

    def _suite(self, argv: list[str], suite: str, ledger: Ledger, label: str) -> None:
        env = self.env
        out = env.tmp / "verify.json"
        try:
            rc, text = env.timed(ledger, lambda: env.cli(argv, out))
            report, problem = self._gate(rc, text, suite)
            if problem is None and suite in self.REPEATED:
                _, again = env.cli(argv, env.tmp / "verify-again.json")
                if again != text:
                    problem = "report differs on repetition"
        except (Exception, SystemExit) as exc:
            report, problem = None, _describe(exc)
        if problem is not None:
            ledger.outcome(False, f"{label}: {problem}", wrong=True, count=SUITE_RECORDS[suite])
            return
        for rec in report["checks"]:
            ledger.outcome(
                rec["passed"],
                f"{label}: {rec['name']} residual {rec['residual']} > tolerance {rec['tolerance']}",
            )

    def _gate(self, rc: int, text: str, suite: str):
        if rc not in (0, 1):
            return None, f"exit code {rc}"
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            return None, f"report is not JSON: {exc}"
        error = next(iter(self.env.validator.iter_errors(report)), None)
        if error is not None:
            return None, f"report breaks the schema: {error.message}"
        checks = report["checks"]
        if len(checks) != SUITE_RECORDS[suite]:
            return None, f"{len(checks)} check records, expected {SUITE_RECORDS[suite]}"
        if any(c["passed"] and c["residual"] is None for c in checks):
            return None, "a check with a non-finite residual passed"
        if report["passed"] != all(c["passed"] for c in checks) or rc != (0 if report["passed"] else 1):
            return None, f"exit code {rc} disagrees with the report"
        return report, None


@dataclass
class _KernelCase:
    params: object
    rep: object
    grid: object
    elements: list
    golden: dict  # (i, k) -> reference matrix, m = 2 only


class KernelGrid:
    """Closed-form kernel on a seeded point cloud that reaches |z| = 0.9.

    The cloud lies beyond the default grid radius 0.45, where
    (1 - z*conj(w))^(-beta) grows.  No series oracle and no operator layer
    run here.  One operation is one `kernel_full` pair.  The m=2 cloud has
    four times as many pairs as the m=6 cloud, so the median lands on m=2
    pairs and the tail on m=6 pairs.
    """

    name = "kernel-grid"
    MIN_PASSES = 1
    CASES = ((2, (1.3, 2.5), 24), (6, (3.6, 4.4), 12))  # (m, lambda range, cloud size)
    RADIUS = 0.9
    GOLDEN_PAIRS = 10

    def __init__(self, env: Env, seed: int, tiny: bool = False):
        c = env.c
        self.env = env
        self.cases = []
        for m, lam_range, size in self.CASES:
            rng = np.random.default_rng([seed, 2, m])
            size = 4 if tiny else size
            lam = float(rng.uniform(*lam_range))
            mu = tuple(float(v) for v in rng.uniform(*MU_RANGE, m + 1))
            params = c.ModelParams(lam=lam, m=m, mu=mu)
            radii = self.RADIUS * np.sqrt(rng.uniform(0.0, 1.0, size))
            radii[0] = self.RADIUS
            angles = rng.uniform(-math.pi, math.pi, size)
            points = tuple(complex(r * math.cos(a), r * math.sin(a)) for r, a in zip(radii, angles))
            grid = c.SampleGrid(points=points, r_max=0.95)
            t = rng.uniform(0.05, 0.2, 2) * rng.choice((-1.0, 1.0), 2)
            elements = [
                c.exp_basis(c.X1, float(t[0])),
                c.exp_basis(c.Y, float(t[1])),
                c.GroupElement.rotation(float(rng.uniform(-math.pi, math.pi))),
            ]
            golden = {}
            if m == 2:
                for _ in range(self.GOLDEN_PAIRS):
                    i, k = (int(v) for v in rng.integers(0, size, 2))
                    ref = c.goldens.kernel_m2(points[i], points[k], lam, mu[1] / mu[0], mu[2] / mu[0])
                    golden[(i, k)] = mu[0] ** 2 * ref
            rep = c.TriangularRep.from_params(params)
            self.cases.append(_KernelCase(params, rep, grid, elements, golden))

    def run_pass(self, k: int, ledger: Ledger) -> None:
        for case in self.cases:
            self._case(case, ledger)

    def _case(self, case: _KernelCase, ledger: Ledger) -> None:
        env, c, p = self.env, self.env.c, case.params
        pts = case.grid.points
        n = len(pts)
        vals: list[list] = [[None] * n for _ in range(n)]
        for i, z in enumerate(pts):
            for k, w in enumerate(pts):
                try:
                    vals[i][k] = env.timed(ledger, lambda: c.kernel_full(z, w, p))
                except Exception as exc:
                    vals[i][k] = exc
        tol_h, tol_g = env.tol["hermitian_symmetry"], env.tol["golden_k"]
        scale = 1.0
        for i in range(n):
            for k in range(n):
                v, label = vals[i][k], f"m={p.m} kernel_full(z{i}, z{k})"
                if isinstance(v, Exception):
                    ledger.outcome(False, f"{label} {_describe(v)}", wrong=True)
                    continue
                if not _finite(v):
                    ledger.outcome(False, f"{label} is not finite", wrong=True)
                    continue
                size = float(np.max(np.abs(v)))
                scale = max(scale, size)
                mirror = vals[k][i]
                if not isinstance(mirror, np.ndarray) or not _finite(mirror):
                    ledger.outcome(False, f"{label}: its mirror pair failed", wrong=True)
                    continue
                asym = float(np.max(np.abs(v - mirror.conj().T)))
                if asym > tol_h * max(1.0, size):
                    ledger.outcome(False, f"{label} not Hermitian: {asym:.3g}", wrong=True)
                    continue
                ref = case.golden.get((i, k))
                if ref is not None:
                    dev = float(np.max(np.abs(v - ref)))
                    if not dev <= tol_g * max(1.0, float(np.max(np.abs(ref)))):
                        ledger.outcome(False, f"{label} misses the m=2 golden form by {dev:.3g}", wrong=True)
                        continue
                ledger.outcome(True)
        env.check(
            ledger, f"m={p.m} check_positive_definite",
            lambda: c.check_positive_definite(p, case.grid).min_eigenvalue,
            lambda v: v >= -env.tol["positive_definite"] * scale,
        )
        for g in case.elements:
            env.check(
                ledger, f"m={p.m} check_quasi_invariance({g})",
                lambda: c.check_quasi_invariance(g, case.grid, p, case.rep),
                lambda v: v <= env.tol["quasi_invariance"] * scale,
            )
        env.check(
            ledger, f"m={p.m} normalize_kernel",
            lambda: c.normalize_kernel(p, case.grid).residual,
            lambda v: v <= env.tol["normalization"],
        )


@dataclass
class _OperatorCase:
    params: object
    rep: object
    m: int
    n_trunc: int
    residuals: list  # (label, group element, tolerance name)
    unitarity_theta: float
    calculus_theta: float
    adjoint_w: complex
    adjoint_xi: np.ndarray


class OperatorTruncation:
    """Truncated operators of two fixed parameter sets, so the G(n) cache stays warm.

    The parameters are the reference sets (m=2, lambda=1.6) and (m=6,
    lambda=4) at truncations N = 40 and 80; the seed picks the rotations,
    boosts and sample points.  Six residuals per truncation give 12 of the
    costliest kind (m=6, N=80) in two passes, so the tail (the 11th
    largest) is one of them; a run therefore has at least two passes,
    even when a slow machine makes them outlast the budget.  exp(0.05*X1) is always among the boosts:
    at N = 80 its interior residual is above the 1e-4 tolerance for both
    m, which this workload must show.  The CLI tables `shift-weights` and
    `basis-emit` at a large --nmax use the basis layer the other way
    round from verify-sweep: many n for one parameter set.  One operation
    is one homogeneity residual or one emission.
    """

    name = "operator-truncation"
    MIN_PASSES = 2
    PARAMS = {2: (1.6, (1.0, 0.7, 1.3)), 6: (4.0, (1.0,) * 7)}
    TRUNCATIONS = (40, 80)
    NMAX = 400
    UNITARITY_N, UNITARITY_GUARD = 40, 10

    def __init__(self, env: Env, seed: int, tiny: bool = False):
        c = env.c
        self.env = env
        self.truncations = (8, 12) if tiny else self.TRUNCATIONS
        self.nmax = 20 if tiny else self.NMAX
        self.unitarity_n = 8 if tiny else self.UNITARITY_N
        self.unitarity_guard = 3 if tiny else self.UNITARITY_GUARD
        rng = np.random.default_rng([seed, 3])
        self.models = {}
        self.cases = []
        for m, (lam, mu) in self.PARAMS.items():
            params = c.ModelParams(lam=lam, m=m, mu=mu)
            rep = c.TriangularRep.from_params(params)
            self.models[m] = params
            for n_trunc in self.truncations:
                theta = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.6))
                residuals = [
                    (f"rotation({theta:.4f})", c.GroupElement.rotation(theta), "homogeneity_rotation"),
                    ("exp(0.05*X1)", c.exp_basis(c.X1, 0.05), "homogeneity_interior"),
                ]
                for gen_name, gen in (("X1", c.X1), ("Y", c.Y), ("X1", c.X1), ("Y", c.Y)):
                    t = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.04, 0.055))
                    residuals.append((f"exp({t:.4f}*{gen_name})", c.exp_basis(gen, t), "homogeneity_interior"))
                r = rng.uniform(0.0, 0.3)
                w = complex(r * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
                xi = rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)
                self.cases.append(_OperatorCase(
                    params, rep, m, n_trunc, residuals,
                    float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)), w, xi,
                ))
        # Reference tables for the emissions, computed once before any pass.
        self.tables = {
            m: {
                "shift-weights": np.array([c.shift_block(n, p) for n in range(self.nmax + 1)]),
                "basis-emit": np.array([c.g_matrix(n, p) for n in range(self.nmax + 1)]),
            }
            for m, p in self.models.items()
        }

    def run_pass(self, k: int, ledger: Ledger) -> None:
        for case in self.cases:
            self._case(case, ledger)
        for m, p in self.models.items():
            for command in ("shift-weights", "basis-emit"):
                self._emission(command, m, p, ledger)

    def _case(self, case: _OperatorCase, ledger: Ledger) -> None:
        env, c, p, n_trunc = self.env, self.env.c, case.params, case.n_trunc
        where = f"m={case.m} N={n_trunc}"
        for label, g, tol_name in case.residuals:
            try:
                value = float(env.timed(ledger, lambda: c.check_homogeneity(g, p, case.rep, n_trunc)))
            except Exception as exc:
                ledger.outcome(False, f"{where} homogeneity {label} {_describe(exc)}", wrong=True)
                continue
            if not math.isfinite(value):
                ledger.outcome(False, f"{where} homogeneity {label} = {value}", wrong=True)
            else:
                tol = env.tol[tol_name]
                ledger.outcome(value <= tol, f"{where} homogeneity {label} = {value:.3g} > {tol_name} {tol:g}")
        try:
            t_mat = c.truncate(p, n_trunc).matrix
        except Exception as exc:
            ledger.outcome(False, f"{where} truncate {_describe(exc)}", wrong=True)
            return
        env.check(
            ledger, f"{where} mobius_calculus(rotation)",
            lambda: self._calculus_residual(case, t_mat),
            lambda v: v <= env.tol["calculus_rotation"],
        )
        env.check(
            ledger, f"{where} reproducing_coefficients",
            lambda: self._adjoint_residual(case, t_mat),
            lambda v: v <= env.tol["adjoint_reproducing"],
        )
        if n_trunc == self.truncations[0]:
            env.check(
                ledger, f"m={case.m} N={self.unitarity_n} representation_matrix unitarity",
                lambda: self._unitarity_residual(case),
                lambda v: v <= env.tol["representation_unitarity"],
            )

    def _calculus_residual(self, case: _OperatorCase, t_mat: np.ndarray) -> float:
        g = self.env.c.GroupElement.rotation(case.calculus_theta)
        out = self.env.c.mobius_calculus(g, t_mat)
        return float(np.max(np.abs(out - cmath.exp(1j * case.calculus_theta) * t_mat)))

    def _adjoint_residual(self, case: _OperatorCase, t_mat: np.ndarray) -> float:
        coeffs = self.env.c.operator.reproducing_coefficients(case.adjoint_w, case.adjoint_xi, case.params, case.n_trunc)
        resid = t_mat.conj().T @ coeffs - np.conjugate(case.adjoint_w) * coeffs
        return float(np.linalg.norm(resid) / np.linalg.norm(coeffs))

    def _unitarity_residual(self, case: _OperatorCase) -> float:
        c, m, n_trunc = self.env.c, case.m, self.unitarity_n
        g = c.GroupElement.rotation(case.unitarity_theta)
        u = c.representation_matrix(g, case.params, case.rep, n_trunc).matrix
        keep = [n * (m + 1) + j for n in range(n_trunc - self.unitarity_guard + 1) for j in range(min(n, m) + 1)]
        gram = (u.conj().T @ u - np.eye(u.shape[0]))[np.ix_(keep, keep)]
        return float(np.linalg.norm(gram))

    def _emission(self, command: str, m: int, p, ledger: Ledger) -> None:
        env = self.env
        argv = [command, *_model_args(p.lam, m, p.mu), "--nmax", str(self.nmax)]
        label = f"m={m} {command} --nmax {self.nmax}"
        try:
            rc, text = env.timed(ledger, lambda: env.cli(argv, env.tmp / f"{command}.json"))
            problem = self._table_problem(command, m, rc, text)
        except (Exception, SystemExit) as exc:
            problem = _describe(exc)
        ledger.outcome(problem is None, f"{label}: {problem}", wrong=True)

    def _table_problem(self, command: str, m: int, rc: int, text: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        try:
            records = json.loads(text)["weights" if command == "shift-weights" else "coefficients"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            return f"table does not parse: {exc}"
        ref = self.tables[m][command]
        got = np.full(ref.shape, np.nan)
        try:
            for rec in records:
                got[rec["n"], rec["row"], rec["col"]] = rec["value"]
        except (KeyError, IndexError, TypeError) as exc:
            return f"malformed record: {exc}"
        if len(records) != ref.size or not np.array_equal(got, ref):
            return "table does not read back to the in-process values"
        return None


WORKLOADS = {w.name: w for w in (VerifySweep, KernelGrid, OperatorTruncation)}
