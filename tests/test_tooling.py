"""The benchmark reads the package from outside: every name it traces must exist, and its counts must match."""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import cdhom.cli
import cdhom.verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up while it executes
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_names_resolve_in_the_package():
    tracing = _load("tracing")
    missing = []
    for module_name, path in tracing.TIMED + tracing.COUNTED:
        holder = importlib.import_module(f"cdhom.{module_name}")
        for attr in path.split("."):
            holder = getattr(holder, attr, None)
        if not callable(holder):
            missing.append(f"{module_name}.{path}")
    assert not missing, f"traced names missing from cdhom: {missing}"


# Suffixes run.py appends to a layer name "<module>.<function>" to name a per-layer metric.
_LAYER_METRIC = re.compile(r"^(.+)\.(?:calls|self_s|distinct_ratio|total_s|wall_share)$")


def test_layers_the_benchmark_reports_resolve_in_the_package():
    # A layer that no longer resolves would read 0 in every traced run instead of failing.
    run = _load("run")
    layers = set(run._TIMED_LAYERS + run._CALLS_REPORTED)
    layers |= {match[1] for name, _ in run.PER_LAYER if (match := _LAYER_METRIC.match(name))}
    missing = []
    for layer in sorted(layers):
        holder = cdhom
        for attr in layer.split("."):
            holder = getattr(holder, attr, None)
        if holder is None:
            missing.append(layer)
    assert not missing, f"layers perfbench/run.py reports are missing from cdhom: {missing}"


# A package name the benchmark reads: c.<path>, self.c.<path>, self.env.c.<path> or cdhom.<path>.
_PACKAGE_NAME = re.compile(r"(?<![\w.])(?:self\.(?:env\.)?)?(?:c|cdhom)\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)")


def test_names_the_benchmark_reads_resolve_in_the_package():
    missing = []
    for name in ("workloads", "run"):
        for path in sorted(set(_PACKAGE_NAME.findall((PERFBENCH / f"{name}.py").read_text()))):
            holder = cdhom
            for attr in path.split("."):
                holder = getattr(holder, attr, None)
            if holder is None:
                missing.append(f"{name}.py: {path}")
    assert not missing, f"names the benchmark reads are missing from cdhom: {missing}"


def test_result_attributes_the_benchmark_reads_exist():
    p = cdhom.ModelParams(lam=1.0, m=1, mu=(1.0, 1.0))
    grid, g = cdhom.default_grid(), cdhom.GroupElement.rotation(0.3)
    results = {
        "check_positive_definite": cdhom.check_positive_definite(p, grid),
        "normalize_kernel": cdhom.normalize_kernel(p, grid),
        "truncate": cdhom.truncate(p, 4),
        "representation_matrix": cdhom.representation_matrix(g, p, cdhom.TriangularRep.from_params(p), 4),
    }
    text = (PERFBENCH / "workloads.py").read_text()
    # kernel-grid compares the residual of one element with a tolerance.
    assert type(cdhom.check_quasi_invariance(g, grid, p, cdhom.TriangularRep.from_params(p))) is float
    for function, result in results.items():
        attrs = set(re.findall(rf"\.{function}\([^()]*\)\.(\w+)", text))
        assert attrs, f"the benchmark no longer reads a result of {function}"
        assert all(hasattr(result, attr) for attr in attrs), (function, attrs)


def test_tolerance_names_the_benchmark_reads_are_registered():
    # env.tol["<name>"] lookups, and the tol_name closing each (label, element, tol_name) residual tuple.
    text = (PERFBENCH / "workloads.py").read_text()
    looked_up = set(re.findall(r'env\.tol\["(\w+)"\]', text))
    tol_names = set(re.findall(r'\(f?"[^"\n]*", c\.[^\n]*, "(\w+)"\)', text))
    assert looked_up and tol_names, "the benchmark no longer reads tolerances this way"
    assert sorted((looked_up | tol_names) - set(cdhom.verify.DEFAULT_TOLERANCES)) == []


def test_dense_calculus_keeps_the_shape_the_benchmark_subtracts_from():
    # operator-truncation's _calculus_residual subtracts e^(i theta) * t_mat from mobius_calculus(g, t_mat).
    t_mat = cdhom.truncate(cdhom.ModelParams(lam=1.6, m=2, mu=(1.0, 0.7, 1.3)), 8).matrix
    out = cdhom.mobius_calculus(cdhom.GroupElement.rotation(0.3), t_mat)
    assert out.dtype == complex and out.shape == t_mat.shape


def test_benchmark_provenance_hook_exists():
    assert cdhom.verify._max_workers() == 1  # recorded by perfbench/run.py as the verify pool size


def test_benchmark_record_counts_match_the_check_registry():
    # The benchmark charges SUITE_RECORDS failures to a verify call that yields no report.
    counts = {}
    for check in cdhom.verify.CHECKS:
        counts[check.suite] = counts.get(check.suite, 0) + 1
    assert _load("workloads").SUITE_RECORDS == counts
