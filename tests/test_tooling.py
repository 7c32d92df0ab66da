"""The benchmark reads the package from outside: every name it traces must exist, and its counts must match."""

import importlib
import importlib.util
import sys
from pathlib import Path

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


def test_benchmark_provenance_hook_exists():
    assert cdhom.verify._max_workers() == 1  # recorded by perfbench/run.py as the verify pool size


def test_benchmark_record_counts_match_the_check_registry():
    # The benchmark charges SUITE_RECORDS failures to a verify call that yields no report.
    counts = {}
    for check in cdhom.verify.CHECKS:
        counts[check.suite] = counts.get(check.suite, 0) + 1
    assert _load("workloads").SUITE_RECORDS == counts
