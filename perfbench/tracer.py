"""Per-layer tracing of the relfisher CLI, installed from outside the package.

Each hook replaces one name in the namespace of the module that calls it, for
example `relfisher.wavefunctions.assoc_laguerre`, with a wrapper. Nothing under
src/ changes. Every target is resolved before the run starts; a layer with a
missing target is reported as unmeasured, naming the hook, and never as zero.

Span layers (the CLI call, one oracle cell, one integration) record spans: id,
parent, process, thread, wall start and end, thread CPU time, and the CPU time
of the hooked per-point calls made directly inside the span. Point layers run
up to hundreds of thousands of times per run, so each thread aggregates them as
calls, busy CPU time and self CPU time. CPU clocks time the work because
`validate` runs cells on a thread pool: a wall clock would charge one thread's
work to the other while it waits for the interpreter lock. Records stay in
memory until `Tracer.report()` at the end of the run.
"""
from __future__ import annotations

import importlib
import itertools
import os
import threading
import time

# (layer, hooked name): each name is looked up in the module that calls it.
SPAN_HOOKS = (
    ("cli.main", "relfisher.cli.main"),
    ("relative_fisher.numeric_ir", "relfisher.cli.numeric_ir"),
    ("quadrature.integrate", "relfisher.relative_fisher.integrate"),
)
POINT_HOOKS = (
    ("relative_fisher.closed_form_ir", "relfisher.cli.closed_form_ir"),
    ("relative_fisher.closed_form_ir", "relfisher.relative_fisher.closed_form_ir"),
    ("systems.reference_state", "relfisher.cli.reference_state"),
    ("systems.reference_state", "relfisher.relative_fisher.reference_state"),
    ("systems.php_derived", "relfisher.wavefunctions.php_derived"),
    ("systems.php_derived", "relfisher.relative_fisher.php_derived"),
    ("wavefunctions.evaluate", "relfisher.relative_fisher.evaluate"),
    ("specfun.hermite", "relfisher.wavefunctions.hermite"),
    ("specfun.assoc_laguerre", "relfisher.wavefunctions.assoc_laguerre"),
    ("specfun.gegenbauer", "relfisher.wavefunctions.gegenbauer"),
    ("specfun.ln_gamma", "relfisher.wavefunctions.ln_gamma"),
)
# Not a module name: the integrand closure numeric_ir hands to the quadrature,
# wrapped on every call by the quadrature.integrate hook.
INTEGRAND = "relative_fisher.integrand"

# Span tuple fields and aggregate list fields.
ID, PARENT, LAYER, PID, THREAD, WALL_START, WALL_END, CPU, POINT_CPU, INFO = range(10)
CALLS, BUSY, SELF, ZERO = range(4)


def resolve(target: str):
    """Return (module, attribute) for 'package.module.name', or raise LookupError."""
    module_name, _, attr = target.rpartition(".")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"{target}: {exc}") from None
    if not callable(getattr(module, attr, None)):
        raise LookupError(f"{target}: no such callable")
    return module, attr


class _ThreadState(threading.local):
    def __init__(self, tracer: "Tracer") -> None:
        self.stack: list[int] = []    # ids of this thread's open spans
        self.frames: list[int] = [0]  # CPU ns charged by hooked per-point calls, per open call
        self.stats: dict[str, list[int]] = {}
        tracer._register(threading.get_native_id(), self.stats)


class Tracer:
    """Installs the span hooks, and the per-point hooks too when points is true."""

    def __init__(self, points: bool) -> None:
        self.points = points
        self.clock_ns = 0    # clock latency inside each timed per-point call
        self.wrapper_ns = 0  # rest of a per-point wrapper's cost, which its caller pays
        self.spans: list[tuple] = []
        self.root = 0
        self.unmeasured: dict[str, str] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._thread_stats: list[tuple[int, dict[str, list[int]]]] = []
        self._local = _ThreadState(self)

    def _register(self, thread: int, stats: dict[str, list[int]]) -> None:
        with self._lock:
            self._thread_stats.append((thread, stats))

    def install(self) -> None:
        """Resolve every hook first, then replace each resolved name by its wrapper."""
        if self.points:
            self.calibrate()
        resolved = []
        for kind, hooks in (("span", SPAN_HOOKS), ("point", POINT_HOOKS if self.points else ())):
            for layer, target in hooks:
                try:
                    resolved.append((kind, layer, target) + resolve(target))
                except LookupError as exc:
                    self.unmeasured.setdefault(layer, f"hook {exc}")
        for kind, layer, _, module, attr in resolved:
            original = getattr(module, attr)
            if layer == "quadrature.integrate":
                wrapper = self._integrate_wrapper(original)
            elif kind == "span":
                wrapper = self._span_wrapper(layer, original)
            else:
                wrapper = self._point_wrapper(layer, original, zero=layer == "wavefunctions.evaluate")
            setattr(module, attr, wrapper)

    def _span_wrapper(self, layer: str, fn, info=None):
        local = self._local
        spans = self.spans
        ids = self._ids
        wall = time.perf_counter_ns
        cpu = time.thread_time_ns
        pid = os.getpid()

        def wrapper(*args, **kwargs):
            stack = local.stack
            frames = local.frames
            # A cell on a pool thread has no open span there; its parent is the CLI call.
            parent = stack[-1] if stack else self.root
            span_id = next(ids)
            if not stack and not self.root:
                self.root = span_id
            stack.append(span_id)
            frames.append(0)
            extra = None
            w0 = wall()
            c0 = cpu()
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    extra = info(args, result)
                return result
            finally:
                c1 = cpu()
                w1 = wall()
                stack.pop()
                spans.append((span_id, parent, layer, pid, threading.get_native_id(),
                              w0, w1, c1 - c0, frames.pop(), extra))

        return wrapper

    def _point_wrapper(self, layer: str, fn, zero: bool = False, tally: list[int] | None = None):
        local = self._local
        cpu = time.thread_time_ns
        clock_ns, wrapper_ns = self.clock_ns, self.wrapper_ns

        def wrapper(*args, **kwargs):
            frames = local.frames
            frames.append(0)
            c0 = cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                raw = cpu() - c0
                elapsed = raw - clock_ns
                child = frames.pop()
                frames[-1] += raw + wrapper_ns
                stats = local.stats.get(layer)
                if stats is None:
                    stats = local.stats[layer] = [0, 0, 0, 0]
                stats[CALLS] += 1
                stats[BUSY] += elapsed
                stats[SELF] += elapsed - child
                if tally is not None:
                    tally[0] += 1
            if zero and getattr(result, "value", None) == 0.0 and getattr(result, "derivative", None) == 0.0:
                stats[ZERO] += 1
            return result

        wrapper.tally = tally
        return wrapper

    def _integrate_wrapper(self, fn):
        """Span around one integration. With per-point hooks it also wraps the
        integrand, so the integrand's calls and time are known per integration."""

        def info(args, result):
            tally = getattr(args[0], "tally", None)
            return [tally[0] if tally else None, getattr(result, "converged", None)]

        span = self._span_wrapper("quadrature.integrate", fn, info)
        if not self.points:
            return span

        def integrate(f, *args, **kwargs):
            return span(self._point_wrapper(INTEGRAND, f, tally=[0]), *args, **kwargs)

        return integrate

    def calibrate(self, calls: int = 20000, repeats: int = 5) -> None:
        """Measure what a per-point wrapper adds, so busy and self times exclude it.

        Part of the clock latency falls inside a wrapped call's own timed
        region (clock_ns, taken off its busy time). The rest of the wrapper's
        cost falls in its caller's time (wrapper_ns, taken off the caller's
        self time).
        """
        def noop():
            return None

        cpu = time.thread_time_ns
        inside, outside = [], []
        for _ in range(repeats):
            wrapped = self._point_wrapper("calibration", noop)
            c0 = cpu()
            for _ in range(calls):
                noop()
            plain = cpu() - c0
            c0 = cpu()
            for _ in range(calls):
                wrapped()
            traced = cpu() - c0
            busy = self._local.stats.pop("calibration")[BUSY] / calls
            inside.append(busy)
            outside.append((traced - plain) / calls - busy)
        self._local.frames[-1] = 0
        self.clock_ns = int(sorted(inside)[repeats // 2])
        self.wrapper_ns = max(0, int(sorted(outside)[repeats // 2]))

    def report(self) -> dict:
        with self._lock:
            threads = [(thread, {layer: list(values) for layer, values in stats.items()})
                       for thread, stats in self._thread_stats]
        return {
            "clock_ns": self.clock_ns,
            "wrapper_ns": self.wrapper_ns,
            "spans": self.spans,
            "threads": threads,
            "unmeasured": self.unmeasured,
        }
