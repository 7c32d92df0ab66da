"""Per-layer tracing installed from outside the package.

`Tracer.install` replaces selected public functions of the cdhom modules
with wrappers, in every cdhom module that holds the same function object
(so `verify.kernel_full`, `cli.run_suite` and the `cdhom.*` re-exports are
wrapped too), and `uninstall` puts the originals back.  The places are
found once, so taking the tracer out around a single call is cheap.  A
timed wrapper records one span per call: id, name, start and end, the
CPU time of its thread at both, parent span, thread and the benchmark's
current operation id.  Spans stay in memory until the run ends.  The hottest scalar functions are counted only, because timing them
would cost more than the work they do.

Checks run by `verify.run_suite` execute in its thread pool; a span
opened by a pool thread with no open span of its own takes the innermost
open span of the main thread (that `run_suite` call) as parent.  Each
span also records the CPU time of its own thread.  Self time is:

* for a span of the main thread, its wall duration minus the part of it
  that its child spans (in any thread) cover;
* for a span of a pool thread, its thread's CPU time minus that of its
  children in the same thread.  The pool threads take turns holding the
  interpreter lock, so their wall time would include waiting for it.

Counters are kept per thread and summed at the end, so counts are exact
whatever the thread interleaving.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# Public functions that get one span per call, as (module, attribute path).
TIMED = (
    ("scalars", "VectorPolynomial.__call__"),
    ("basis", "e_basis"),
    ("basis", "u_closed"),
    ("basis", "g_matrix"),
    ("basis", "basis_value_matrix"),
    ("kernel", "kernel_series"),
    ("kernel", "kernel_full"),
    ("kernel", "check_positive_definite"),
    ("kernel", "check_quasi_invariance"),
    ("kernel", "normalize_kernel"),
    ("representation", "multiplier_J"),
    ("representation", "check_cocycle"),
    ("operator", "shift_block"),
    ("operator", "truncate"),
    ("operator", "representation_matrix"),
    ("operator", "mobius_calculus"),
    ("operator", "check_homogeneity"),
    ("operator", "reproducing_coefficients"),
    ("goldens", "g_matrix_m1"),
    ("goldens", "g_matrix_m2"),
    ("goldens", "shift_block_m1"),
    ("goldens", "shift_block_m2"),
    ("goldens", "kernel_m1"),
    ("goldens", "kernel_m2"),
    ("verify", "run_suite"),
    ("cli", "main"),
)
# The hottest scalars: counted only, since timing them costs more than their work.
COUNTED = (("scalars", "pochhammer"), ("mobius", "act"))


def _distinct_key(name: str, args: tuple):
    """Argument identity for the distinct-call ratios, or None if not tracked."""
    if name == "basis.e_basis":
        return args[:3]  # (j, n, params)
    if name == "basis.g_matrix":
        return args[:2]  # (n, params)
    return None


def _span_name(name: str, args: tuple, kwargs: dict) -> str:
    if name == "verify.run_suite":
        suite = args[1] if len(args) > 1 else kwargs.get("suite", "all")
        return f"verify.run_suite[{suite}]"
    return name


class _ThreadState:
    def __init__(self, index: int):
        self.index = index  # order of first use; the main thread is 0
        self.stack: list[int] = []
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.keys: dict[str, set] = {}


@dataclass
class Tracer:
    """Span recorder for one benchmark process."""

    op_id: int = -1
    _ids: itertools.count = field(default_factory=itertools.count)
    _local: threading.local = field(default_factory=threading.local)
    _states: list = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    installed: bool = False
    _main: _ThreadState | None = None
    _patches: list = field(default_factory=list)

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._states))
                self._states.append(st)
            self._local.st = st
        return st

    # ------------------------------------------------------------ wrappers

    def _timed(self, name: str, fn):
        tracked = name in ("basis.e_basis", "basis.g_matrix")
        clock, cpu = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            if st.stack:
                parent = st.stack[-1]
            else:
                main_stack = self._main.stack
                parent = main_stack[-1] if main_stack and st is not self._main else -1
            sid = next(self._ids)
            if tracked:
                st.keys.setdefault(name, set()).add(_distinct_key(name, args))
            label = _span_name(name, args, kwargs)
            st.stack.append(sid)
            t0, c0 = clock(), cpu()
            try:
                return fn(*args, **kwargs)
            finally:
                c1, t1 = cpu(), clock()
                st.stack.pop()
                st.spans.append((sid, label, t0, t1, parent, self.op_id, c0, c1, st.index))

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self._state().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package) -> None:
        """Wrap the traced names wherever the cdhom modules hold them."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        if self._main is None:
            self._main = self._state()
        if self._main is not self._state():
            raise RuntimeError("the tracer is installed from one thread only")
        if not self._patches:
            self._patches = self._find_patches(package)
        for holder, attr, _, wrapped in self._patches:
            setattr(holder, attr, wrapped)
        self.installed = True

    def uninstall(self) -> None:
        for holder, attr, original, _ in reversed(self._patches):
            setattr(holder, attr, original)
        self.installed = False

    def _find_patches(self, package) -> list:
        """(holder, attribute, original, wrapper) for every place a traced name is held."""
        patches = []
        modules = [mod for key, mod in sorted(sys.modules.items()) if key == package.__name__ or key.startswith(package.__name__ + ".")]
        for kind, targets in (("timed", TIMED), ("counted", COUNTED)):
            for module_name, path in targets:
                owner = sys.modules[f"{package.__name__}.{module_name}"]
                if "." in path:  # a method: wrap it on its class only
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    patches.append((cls, attr, original, self._timed(f"{module_name}.{path}", original)))
                    continue
                original = getattr(owner, path)
                make = self._timed if kind == "timed" else self._counted
                wrapped = make(f"{module_name}.{path}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, attr, original, wrapped))
        return patches

    def reset(self) -> None:
        """Drop everything recorded so far (between passes)."""
        with self._lock:
            for st in self._states:
                st.spans.clear()
                st.counts.clear()
                st.keys.clear()

    # ---------------------------------------------------------- aggregation

    def snapshot(self) -> "PassTrace":
        """Spans, counts and distinct-argument counts recorded since `reset`."""
        spans, counts, keys = [], {}, {}
        with self._lock:
            for st in self._states:
                spans.extend(st.spans)
                for name, n in st.counts.items():
                    counts[name] = counts.get(name, 0) + n
                for name, ks in st.keys.items():
                    keys.setdefault(name, set()).update(ks)
        spans.sort(key=lambda s: s[0])
        return PassTrace(spans=spans, counts=counts, distinct={k: len(v) for k, v in keys.items()})


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


@dataclass
class PassTrace:
    spans: list
    counts: dict
    distinct: dict

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, summed wall duration and summed self time.

        Self time is wall time on the main thread and thread CPU time on
        the pool threads (see the module docstring).
        """
        thread = {s[0]: s[8] for s in self.spans}
        kids_wall: dict[int, list] = {}
        kids_cpu: dict[int, float] = {}
        for sid, _, t0, t1, parent, _, c0, c1, th in self.spans:
            if parent >= 0:
                kids_wall.setdefault(parent, []).append((t0, t1))
                if thread.get(parent) == th:
                    kids_cpu[parent] = kids_cpu.get(parent, 0.0) + (c1 - c0)
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for sid, name, t0, t1, _, _, c0, c1, th in self.spans:
            if th == 0:
                kids = kids_wall.get(sid)
                own = (t1 - t0) - (_covered([(max(a, t0), min(b, t1)) for a, b in kids]) if kids else 0.0)
            else:
                own = (c1 - c0) - kids_cpu.get(sid, 0.0)
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (t1 - t0)
            self_s[name] = self_s.get(name, 0.0) + own
        return calls, total, self_s

    def busy(self, name: str) -> float:
        """Wall time during which at least one span of this name was open."""
        return _covered([(s[2], s[3]) for s in self.spans if s[1] == name])


def save_spans(path, traces: list[PassTrace]) -> None:
    """Write the spans of every traced pass as one compressed numpy archive."""
    names = sorted({s[1] for t in traces for s in t.spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [(k, s[0], index[s[1]], s[4], s[5], s[8]) for k, t in enumerate(traces) for s in t.spans]
    times = [(s[2], s[3], s[6], s[7]) for t in traces for s in t.spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        names=np.array(names),
        pass_id_name_parent_op_thread=np.array(rows, dtype=np.int64).reshape(-1, 6),
        start_end_cpu0_cpu1=np.array(times, dtype=float).reshape(-1, 4),
    )
