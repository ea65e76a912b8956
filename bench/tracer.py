"""Span tracer for the benchmark's traced run.

It wraps the public functions of the ibstring layers from outside the
program, so nothing in the package changes. A span records the wall time of
one call; self time is the span's duration minus the part of its interval
that child spans cover. Calls made on pool threads are children of the span
open on the main thread, so parallel children never push self time below
zero. The spans in PEAK_SPANS also record the tracemalloc peak of the
allocations made inside the call; tracemalloc runs only during those calls,
because tracing every allocation of an op would inflate its time by a third.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import statistics
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("spectral", "curve", "stokeslet", "dynamics", "equilibrium", "cli_io", "acceptance")
CONSTRUCTORS = (("spectral", "GridField"), ("curve", "CurveState"))
PEAK_SPANS = ("stokeslet.on_curve_velocity", "curve.well_stretched_constant")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Stats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    durations: list = field(default_factory=list)
    peak_bytes: int = 0


class _Span:
    __slots__ = ("name", "start", "parent", "children", "tracing_memory")

    def __init__(self, name, start, parent, tracing_memory):
        self.name, self.start, self.parent = name, start, parent
        self.children = []
        self.tracing_memory = tracing_memory


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Tracer:
    """Install with `install()`, run traced ops, then `uninstall()`.

    Stats accumulate over every traced op; `ops` counts them so metrics are
    reported per op.
    """

    def __init__(self) -> None:
        self.stats: dict[str, Stats] = defaultdict(Stats)
        self.pair_evals = 0
        self.step_intervals: list[float] = []
        self.ops = 0
        self._last_diag: float | None = None
        self._main_stack: list[_Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            # through sys.modules: the package attribute `stokeslet` is the function
            module = sys.modules[f"ibstring.{layer}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        # rebind every `from .x import f` copy of a wrapped name
        for name, module in list(sys.modules.items()):
            if name == "ibstring" or name.startswith("ibstring."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patch(module, attr, wrappers[obj])
        for layer, cls_name in CONSTRUCTORS:
            cls = getattr(sys.modules[f"ibstring.{layer}"], cls_name)
            self._patch(cls, "__post_init__", self._wrap(f"{layer}.{cls_name}", cls.__post_init__))
        acceptance = sys.modules["ibstring.acceptance"]
        self._patch(acceptance, "INVARIANTS", [
            (title, self._wrap(f"acceptance.inv{i + 1}", fn)) for i, (title, fn) in enumerate(acceptance.INVARIANTS)
        ])
        self._patch(acceptance, "CRITERIA", [
            dataclasses.replace(c, fn=self._wrap(f"acceptance.c{c.number}", c.fn)) for c in acceptance.CRITERIA
        ])

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name, args)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span)

        return traced

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list[_Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, args: tuple) -> _Span:
        stack = self._stack()
        tracing_memory = name in PEAK_SPANS and stack is self._main_stack and not tracemalloc.is_tracing()
        if tracing_memory:
            tracemalloc.start()
        now = time.perf_counter()
        main_top = self._main_stack[-1] if self._main_stack else None
        span = _Span(name, now, stack[-1] if stack else main_top, tracing_memory)
        stack.append(span)
        if name == "stokeslet.on_curve_velocity":
            self.pair_evals += args[0].n ** 2
        elif name == "dynamics.run":
            self._last_diag = None
        elif name == "dynamics.diagnostics_row":
            if self._last_diag is not None:
                self.step_intervals.append(now - self._last_diag)
            self._last_diag = now
        return span

    def _exit(self, span: _Span) -> None:
        end = time.perf_counter()
        self._stack().pop()
        peak = 0
        if span.tracing_memory:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        duration = end - span.start
        self_s = duration - _covered(span.children)
        if span.parent is not None:
            span.parent.children.append((span.start, end))
        with self._lock:
            st = self.stats[span.name]
            st.calls += 1
            st.self_s += self_s
            st.total_s += duration
            st.durations.append(duration)
            st.peak_bytes = max(st.peak_bytes, peak)

    # -- metrics ------------------------------------------------------------

    def step_interval_tail(self) -> tuple[str, float]:
        """Highest percentile with at least ten intervals beyond it, in ms."""
        ordered = sorted(self.step_intervals)
        for pct in TAIL_PERCENTILES:
            rank = math.ceil(pct / 100.0 * len(ordered))  # nearest-rank percentile
            if rank >= 1 and len(ordered) - rank >= 10:
                return f"p{pct:g}", 1e3 * ordered[rank - 1]
        return "none (fewer than 11 intervals)", 0.0

    def metric(self, name: str) -> float:
        """Value per traced op of a per-layer metric named `<layer>.<fn>.<kind>`."""
        ops = max(self.ops, 1)
        if name == "stokeslet.pair_evals":
            return self.pair_evals / ops
        if name == "stokeslet.pair_ns":
            ocv = self.stats.get("stokeslet.on_curve_velocity")
            return 1e9 * ocv.self_s / self.pair_evals if ocv and self.pair_evals else 0.0
        if name == "dynamics.step_interval.ms_p50":
            return 1e3 * statistics.median(self.step_intervals) if self.step_intervals else 0.0
        if name == "dynamics.step_interval.ms_tail":
            return self.step_interval_tail()[1]
        span, _, kind = name.rpartition(".")
        st = self.stats.get(span, Stats())
        if kind == "calls":
            return st.calls / ops
        if kind == "self_s":
            return st.self_s / ops
        if kind == "s":
            return st.total_s / ops
        if kind == "ms_p50":
            return 1e3 * statistics.median(st.durations) if st.durations else 0.0
        if kind == "peak_mb":
            return st.peak_bytes / 2**20
        raise KeyError(f"no per-layer metric rule for {name!r}")
