"""The benchmark's tracer wraps package names from outside; every name it lists must exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

import cdhom.verify

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up while it executes
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_names_resolve_in_the_package():
    tracing = _load_tracing()
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
