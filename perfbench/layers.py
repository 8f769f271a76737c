"""Per-layer metrics from a traced invocation, the helpers they use, and the
single-threaded kernel baseline of the polynomial recurrences."""
from __future__ import annotations

import math
import statistics
import time

from tracer import (BUSY, CALLS, CPU, ID, INFO, INTEGRAND, LAYER, PARENT, PID, POINT_CPU, SELF,
                    THREAD, WALL_END, WALL_START, ZERO)

NS = 1e-9

KERNELS = {
    # family: (hooked name, arguments after the degree)
    "hermite": ("relfisher.specfun.hermite", (0.5,)),
    "assoc_laguerre": ("relfisher.specfun.assoc_laguerre", (0.5, 1.5)),
    "gegenbauer": ("relfisher.specfun.gegenbauer", (1.0, 0.3)),
}
KERNEL_DEGREES = (10, 100, 500)

# metric: (unit, better, layers it reads). A metric is unmeasured when any of
# its layers lost a hook or ran outside the traced process.
PER_LAYER = {
    "specfun.hermite.calls": ("count", "lower", ("specfun.hermite",)),
    "specfun.assoc_laguerre.calls": ("count", "lower", ("specfun.assoc_laguerre",)),
    "specfun.gegenbauer.calls": ("count", "lower", ("specfun.gegenbauer",)),
    "specfun.ln_gamma.calls": ("count", "lower", ("specfun.ln_gamma",)),
    "specfun.busy_s": ("s", "lower", ("specfun.hermite", "specfun.assoc_laguerre",
                                      "specfun.gegenbauer", "specfun.ln_gamma")),
    "specfun.share": ("ratio", "lower", ("specfun.hermite", "specfun.assoc_laguerre",
                                         "specfun.gegenbauer", "specfun.ln_gamma")),
    **{
        f"specfun.{family}.us_d{degree}": ("us", "lower", (f"kernel.{family}",))
        for family in KERNELS for degree in KERNEL_DEGREES
    },
    "wavefunctions.evaluate.calls": ("count", "lower", ("wavefunctions.evaluate",)),
    "wavefunctions.evaluate.self_s": ("s", "lower", ("wavefunctions.evaluate",)),
    "wavefunctions.zero_frac": ("ratio", "lower", ("wavefunctions.evaluate",)),
    "systems.php_derived.calls": ("count", "lower", ("systems.php_derived",)),
    "systems.php_derived.per_eval": ("ratio", "lower", ("systems.php_derived", INTEGRAND)),
    "systems.reference_state.calls": ("count", "lower", ("systems.reference_state",)),
    "systems.self_s": ("s", "lower", ("systems.php_derived", "systems.reference_state")),
    "quadrature.integrate.calls": ("count", "lower", ("quadrature.integrate",)),
    "quadrature.evaluations": ("count", "lower", ("quadrature.integrate", INTEGRAND)),
    "quadrature.evals_per_cell.p50": ("count", "lower", ("quadrature.integrate", INTEGRAND)),
    "quadrature.evals_per_cell.max": ("count", "lower", ("quadrature.integrate", INTEGRAND)),
    "quadrature.self_s": ("s", "lower", ("quadrature.integrate", INTEGRAND)),
    "quadrature.nonconverged": ("count", "lower", ("quadrature.integrate",)),
    "relative_fisher.numeric_ir.calls": ("count", "lower", ("relative_fisher.numeric_ir",)),
    "relative_fisher.numeric_ir.ms.p50": ("ms", "lower", ("relative_fisher.numeric_ir",)),
    "relative_fisher.numeric_ir.ms.p95": ("ms", "lower", ("relative_fisher.numeric_ir",)),
    "relative_fisher.numeric_ir.ms.max": ("ms", "lower", ("relative_fisher.numeric_ir",)),
    "relative_fisher.numeric_ir.wait_s": ("s", "lower", ("relative_fisher.numeric_ir",)),
    "relative_fisher.integrand.self_s": ("s", "lower", (INTEGRAND, "wavefunctions.evaluate")),
    "relative_fisher.closed_form_ir.calls": ("count", "lower", ("relative_fisher.closed_form_ir",)),
    "relative_fisher.closed_form_ir.busy_s": ("s", "lower", ("relative_fisher.closed_form_ir",)),
    "cli.self_s": ("s", "lower", ("cli.main", "relative_fisher.numeric_ir",
                                  "relative_fisher.closed_form_ir", "systems.reference_state")),
    "cli.rows": ("count", "higher", ()),
    "cli.bytes_out": ("B", "lower", ()),
    "cli.workers": ("count", "higher", ("relative_fisher.numeric_ir", "relative_fisher.closed_form_ir")),
    "trace.overhead_frac": ("ratio", "lower", ()),
    "trace.span_overhead_frac": ("ratio", "lower", ()),
}

# Counts that must repeat exactly between traced invocations of one input.
COUNT_METRICS = tuple(name for name, (unit, _, _) in PER_LAYER.items()
                      if unit == "count" and name != "cli.workers")

# Layers whose work is per cell and therefore lost when cells run in
# processes the tracer is not installed in.
_NUMERIC_LAYERS = ("relative_fisher.numeric_ir", "quadrature.integrate", INTEGRAND,
                   "wavefunctions.evaluate", "systems.php_derived", "specfun.hermite",
                   "specfun.assoc_laguerre", "specfun.gegenbauer", "specfun.ln_gamma")


def percentile(values: list[float], q: float) -> float:
    """q-th percentile (0..100) with linear interpolation between order statistics."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def span_self_ns(span: tuple, children: list[tuple]) -> int:
    """A span's CPU time minus the CPU time of its children on the same thread:
    child spans, and the hooked per-point calls made directly inside it.

    Children on other threads do not count: a cell on a pool thread uses that
    thread's CPU, not the CPU of the CLI call that waits for it.
    """
    same_thread = sum(c[CPU] for c in children if (c[PID], c[THREAD]) == (span[PID], span[THREAD]))
    return span[CPU] - span[POINT_CPU] - same_thread


def _spans(trace: dict) -> tuple[dict[str, list], dict[int, list]]:
    by_layer: dict[str, list] = {}
    by_parent: dict[int, list] = {}
    for span in trace["spans"]:
        by_layer.setdefault(span[LAYER], []).append(span)
        by_parent.setdefault(span[PARENT], []).append(span)
    return by_layer, by_parent


def _coverage(trace: dict, numeric_spans: int, numeric_rows: int) -> dict[str, str]:
    """Layers not measured: lost hooks, or cells that ran outside the traced process."""
    unmeasured = dict(trace["unmeasured"])
    if "relative_fisher.numeric_ir" not in unmeasured and numeric_spans != numeric_rows:
        reason = (f"numeric_ir traced for {numeric_spans} of {numeric_rows} cells: "
                  "the rest ran outside the traced process")
        for layer in _NUMERIC_LAYERS:
            unmeasured.setdefault(layer, reason)
    return unmeasured


def span_metrics(trace: dict, numeric_rows: int) -> tuple[dict[str, float], dict[str, str]]:
    """Per-cell wall times from an invocation traced with the span hooks only,
    which add little to its run time."""
    by_layer, _ = _spans(trace)
    numeric = by_layer.get("relative_fisher.numeric_ir", [])
    numeric_ms = [(s[WALL_END] - s[WALL_START]) * 1e-6 for s in numeric]
    values = {
        "relative_fisher.numeric_ir.ms.p50": percentile(numeric_ms, 50) if numeric_ms else 0.0,
        "relative_fisher.numeric_ir.ms.p95": percentile(numeric_ms, 95) if numeric_ms else 0.0,
        "relative_fisher.numeric_ir.ms.max": max(numeric_ms, default=0.0),
        "relative_fisher.numeric_ir.wait_s": sum(s[WALL_END] - s[WALL_START] - s[CPU]
                                                 for s in numeric) * NS,
    }
    return values, _coverage(trace, len(numeric), numeric_rows)


def point_metrics(trace: dict, numeric_rows: int) -> tuple[dict[str, float], dict[str, str]]:
    """Counts and CPU times from an invocation traced with every hook. Times
    exclude the calibrated cost of the per-point wrappers themselves."""
    by_layer, by_parent = _spans(trace)
    agg: dict[str, list[int]] = {}
    cell_threads = set()
    for thread, stats in trace["threads"]:
        for layer, values in stats.items():
            into = agg.setdefault(layer, [0, 0, 0, 0])
            for i, value in enumerate(values):
                into[i] += value
        if "relative_fisher.closed_form_ir" in stats:
            cell_threads.add(thread)

    def stat(layer: str, index: int) -> int:
        return agg.get(layer, [0, 0, 0, 0])[index]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    specfun = ("specfun.hermite", "specfun.assoc_laguerre", "specfun.gegenbauer", "specfun.ln_gamma")
    integrations = by_layer.get("quadrature.integrate", [])
    numeric = by_layer.get("relative_fisher.numeric_ir", [])
    evals = [s[INFO][0] for s in integrations]
    evaluations = stat(INTEGRAND, CALLS)
    values = {
        **{f"{layer}.calls": stat(layer, CALLS) for layer in specfun},
        "specfun.busy_s": sum(stat(layer, BUSY) for layer in specfun) * NS,
        "wavefunctions.evaluate.calls": stat("wavefunctions.evaluate", CALLS),
        "wavefunctions.evaluate.self_s": stat("wavefunctions.evaluate", SELF) * NS,
        "wavefunctions.zero_frac": ratio(stat("wavefunctions.evaluate", ZERO),
                                         stat("wavefunctions.evaluate", CALLS)),
        "systems.php_derived.calls": stat("systems.php_derived", CALLS),
        "systems.php_derived.per_eval": ratio(stat("systems.php_derived", CALLS), evaluations),
        "systems.reference_state.calls": stat("systems.reference_state", CALLS),
        "systems.self_s": (stat("systems.php_derived", SELF) + stat("systems.reference_state", SELF)) * NS,
        "quadrature.integrate.calls": len(integrations),
        "quadrature.evaluations": evaluations,
        "quadrature.evals_per_cell.p50": percentile(evals, 50) if evals else 0.0,
        "quadrature.evals_per_cell.max": max(evals, default=0),
        "quadrature.self_s": sum(span_self_ns(s, by_parent.get(s[ID], [])) for s in integrations) * NS,
        "quadrature.nonconverged": sum(1 for s in integrations if s[INFO][1] is not True),
        "relative_fisher.numeric_ir.calls": len(numeric),
        "relative_fisher.integrand.self_s": stat(INTEGRAND, SELF) * NS,
        "relative_fisher.closed_form_ir.calls": stat("relative_fisher.closed_form_ir", CALLS),
        "relative_fisher.closed_form_ir.busy_s": stat("relative_fisher.closed_form_ir", BUSY) * NS,
        "cli.self_s": sum(span_self_ns(s, by_parent.get(s[ID], []))
                          for s in by_layer.get("cli.main", [])) * NS,
        "cli.workers": len(cell_threads | {s[THREAD] for s in numeric}),
    }
    return values, _coverage(trace, len(numeric), numeric_rows)


def kernel_baseline(seconds_per_point: float = 0.05, repeats: int = 5) -> tuple[dict[str, float], dict[str, str]]:
    """Median microseconds per call of each recurrence family at each degree,
    in this (single) thread. Returns (values, unmeasured kernel layers)."""
    from tracer import resolve

    values: dict[str, float] = {}
    unmeasured: dict[str, str] = {}
    for family, (target, args) in KERNELS.items():
        try:
            module, attr = resolve(target)
        except LookupError as exc:
            unmeasured[f"kernel.{family}"] = f"hook {exc}"
            continue
        fn = getattr(module, attr)
        for degree in KERNEL_DEGREES:
            start = time.perf_counter()
            fn(degree, *args)
            single = max(time.perf_counter() - start, 1e-7)
            loops = max(1, int(seconds_per_point / repeats / single))
            samples = []
            for _ in range(repeats):
                start = time.perf_counter()
                for _ in range(loops):
                    fn(degree, *args)
                samples.append((time.perf_counter() - start) / loops * 1e6)
            values[f"specfun.{family}.us_d{degree}"] = statistics.median(samples)
    return values, unmeasured
