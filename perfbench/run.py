"""Benchmark of the relfisher CLI: three workloads, each a command a user types.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Every invocation runs in a fresh interpreter (perfbench/entry.py), because a
CLI user pays start-up on every call. With --trace 0 the run repeats the
workload's command for about S seconds and reports the end-to-end metrics as
medians over invocations. With --trace 1 it alternates plain and traced
invocations and reports the per-layer metrics. Every output passes through the
correctness gate (gate.py). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A results file with the
machine's details goes to .perfbench/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import gate
import layers
from workloads import LAYER_MAP, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENTRY = os.path.join(HERE, "entry.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")

# Every metric a plain run reports. The raw times drift with the shared
# host's speed by up to 30% between runs, so BENCHMARK.json bounds their
# counterparts in refs instead; wall_s and cells_per_s are printed and
# recorded, but not part of the JSON result.
METRICS = {
    "setup_s": "s",
    "wall_s": "s",
    "cells_per_s": "1/s",
    "wall_ref": "ref",
    "cells_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}
END_TO_END = ("setup_s", "wall_ref", "cells_per_ref", "peak_rss_mb")
MIN_SAMPLES = 3
SETUP_PROBES = 8
HARD_LIMIT_S = 165.0  # a run must end within 180 s, whatever the program does


class Runner:
    """Invokes CLI commands in fresh interpreters and checks their outputs."""

    def __init__(self, work: str, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.verdict = gate.Verdict()
        self.golden = gate.load_golden()

    def invoke(self, argv: tuple[str, ...], mode: str = "run") -> dict:
        """One fresh-interpreter run. Returns timings, exit status and output bytes."""
        self.count += 1
        report_path = os.path.join(self.work, f"report-{self.count}.json")
        out_path = os.path.join(self.work, f"out-{self.count}")
        argv = [arg.replace("{out}", out_path) for arg in argv]
        start = time.monotonic_ns()
        try:
            proc = subprocess.run(
                [sys.executable, ENTRY, report_path, mode, "--", *argv],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            return {"timeout": True, "argv": argv}
        end = time.monotonic_ns()
        sample = {"argv": argv, "returncode": proc.returncode, "wall_s": (end - start) * 1e-9,
                  "stdout": proc.stdout, "stderr": proc.stderr.decode("utf-8", "replace")[-2000:]}
        try:
            with open(report_path, encoding="utf-8") as handle:
                report = json.load(handle)
            os.unlink(report_path)
        except (OSError, ValueError):
            sample["returncode"] = proc.returncode or -1
            return sample
        sample["setup_s"] = (report["ready_ns"] - start) * 1e-9
        if mode != "setup":
            sample["returncode"] = report["returncode"]
            sample["dispatch_s"] = (report["done_ns"] - report["dispatch_ns"]) * 1e-9
            sample["peak_rss_mb"] = report["maxrss_kb"] / 1024.0
            sample["main_cpu_ns"] = report["main_cpu_ns"]
            if "trace" in report:
                sample["trace"] = report["trace"]
        if os.path.exists(out_path):
            if os.path.isdir(out_path):
                sample["files"] = {}
                for name in sorted(os.listdir(out_path)):
                    with open(os.path.join(out_path, name), "rb") as handle:
                        sample["files"][name] = handle.read()
                shutil.rmtree(out_path)
            else:
                with open(out_path, "rb") as handle:
                    sample["output"] = handle.read()
                os.unlink(out_path)
        return sample

    def check(self, invocation, sample: dict) -> gate.Verdict:
        """Gate one workload invocation and record rows and cells for the metrics."""
        if invocation.kind == "validate":
            expected = gate.expected_validate_rows(self.golden, invocation.variant)
            if sample.get("timeout"):
                verdict = gate.Verdict(len(expected), len(expected), 0, ["timed out"])
            else:
                text = sample["stdout"].decode("utf-8", "replace")
                verdict = gate.check_validate(text, sample["returncode"], expected,
                                              invocation.variant.get("Z"))
                data = sample["stdout"]
        else:
            golden = self.golden["digests"][f"compute@Z={invocation.variant['Z']:g}"]
            data = sample.get("output", b"")
            if sample.get("timeout"):
                verdict = gate.Verdict(golden["rows"], golden["rows"], 0, ["timed out"])
            else:
                verdict = gate.check_digest(data, sample["returncode"], golden["sha256"],
                                            golden["rows"], "compute")
        if not sample.get("timeout"):
            sample["rows"] = max(0, data.count(b"\n") - 1)
            sample["bytes_out"] = len(data)
            sample["numeric_rows"] = verdict.numeric_rows
            sample["known_discrepancy"] = verdict.known_discrepancy
        self.verdict.add(verdict)
        return verdict

    def check_reproduce(self) -> None:
        """Regenerate the three reference-table targets and compare them byte for byte."""
        for target in gate.REPRODUCE_TARGETS:
            sample = self.invoke(("reproduce", target, "--out", "{out}"))
            files = sample.get("files", {})
            prefix = f"reproduce/{target}/"
            expected = {k[len(prefix):]: v for k, v in self.golden["digests"].items()
                        if k.startswith(prefix)}
            for name in sorted(set(expected) | set(files)):
                if name in expected:
                    verdict = gate.check_digest(files.get(name, b""), sample.get("returncode", -1),
                                                expected[name]["sha256"], 1, f"reproduce {name}")
                else:
                    verdict = gate.Verdict(1, 1, 0, [f"reproduce {target}: unexpected file {name}"])
                self.verdict.add(verdict)


def reference_loop() -> float:
    """Seconds this process takes for a fixed piece of interpreter-bound float work.

    The speed of the shared host drifts by tens of percent within a minute.
    Timing this loop next to every invocation gives a unit, "ref", that moves
    with the host: an invocation's time in refs changes only when the program
    does.
    """
    start = time.perf_counter()
    acc = 0.0
    for k in range(250_000):
        acc += (2.0 * k + 1.5 - 0.25) * 0.5 / (k + 1.0)
    return time.perf_counter() - start


def _median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples if key in s)


def measure(runner: Runner, invocation, seconds: float) -> tuple[dict, list[dict]]:
    """End-to-end metrics: medians over repeated plain invocations.

    A reference loop runs between invocations; each invocation's time is also
    given in refs, the mean of the loop times just before and after it. The
    first SETUP_PROBES invocations are each preceded by a probe that stops
    once the CLI is ready, so set-up is sampled across the run.
    """
    start = time.monotonic()
    probes: list[dict] = []
    samples: list[dict] = []
    ref_before = reference_loop()
    while True:
        if len(probes) < SETUP_PROBES:
            probes.append(runner.invoke(invocation.argv, "setup"))
        sample = runner.invoke(invocation.argv)
        ref_after = reference_loop()
        sample["ref_s"] = 0.5 * (ref_before + ref_after)
        ref_before = ref_after
        runner.check(invocation, sample)
        samples.append(sample)
        if sample.get("timeout") or "dispatch_s" not in sample:
            break
        now = time.monotonic()
        if len(samples) >= MIN_SAMPLES and now + _median(samples, "wall_s") > start + seconds:
            break
        if now > runner.deadline:
            break
    ok = [s for s in samples if "dispatch_s" in s]
    if not ok:
        return {}, samples
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in probes + ok if "setup_s" in s),
        "wall_s": _median(ok, "wall_s"),
        "cells_per_s": statistics.median(s["rows"] / s["dispatch_s"] for s in ok),
        "wall_ref": statistics.median(s["wall_s"] / s["ref_s"] for s in ok),
        "cells_per_ref": statistics.median(s["rows"] * s["ref_s"] / s["dispatch_s"] for s in ok),
        "peak_rss_mb": _median(ok, "peak_rss_mb"),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}, samples


def measure_traced(runner: Runner, invocation, seconds: float) -> tuple[dict, list[dict], list[str]]:
    """Per-layer metrics: medians over rounds of three invocations of the same
    command, plain, with span hooks and with every hook. Counts must repeat
    exactly between rounds."""
    start = time.monotonic()
    kernel_values, unmeasured = layers.kernel_baseline()
    rounds: list[dict[str, dict]] = []
    per_round: list[dict[str, float]] = []
    while True:
        round_start = time.monotonic()
        samples = {}
        for mode in ("run", "spans", "points"):
            samples[mode] = runner.invoke(invocation.argv, mode)
            runner.check(invocation, samples[mode])
        rounds.append(samples)
        if not all("dispatch_s" in sample for sample in samples.values()):
            break
        values = {"cli.rows": samples["run"]["rows"], "cli.bytes_out": samples["run"]["bytes_out"]}
        for mode, collect in (("spans", layers.span_metrics), ("points", layers.point_metrics)):
            trace = samples[mode].pop("trace")
            samples[mode]["wrapper_cost_ns"] = [trace["clock_ns"], trace["wrapper_ns"]]
            found, missing = collect(trace, samples[mode]["numeric_rows"])
            values.update(found)
            unmeasured.update(missing)
        values["specfun.share"] = values["specfun.busy_s"] / (samples["run"]["main_cpu_ns"] * 1e-9)
        values["trace.span_overhead_frac"] = samples["spans"]["wall_s"] / samples["run"]["wall_s"] - 1
        values["trace.overhead_frac"] = samples["points"]["wall_s"] / samples["run"]["wall_s"] - 1
        per_round.append(values)
        now = time.monotonic()
        if now + (now - round_start) > start + seconds or now > runner.deadline:
            break
    notes = []
    samples = [sample for round_ in rounds for sample in round_.values()]
    if not per_round:
        return {}, samples, notes
    for name in layers.COUNT_METRICS:
        seen = {values[name] for values in per_round}
        if len(seen) > 1:
            notes.append(f"{name} differs between traced invocations: {sorted(seen)}")
    values = {}
    for name in per_round[0]:
        middle = statistics.median_low if layers.PER_LAYER[name][0] == "count" else statistics.median
        values[name] = middle(v[name] for v in per_round)
    values.update(kernel_values)
    metrics = {}
    for name, (unit, _, needs) in layers.PER_LAYER.items():
        reasons = [f"{layer}: {unmeasured[layer]}" for layer in needs if layer in unmeasured]
        if reasons:
            metrics[name] = {"value": None, "unit": unit, "unmeasured": "; ".join(reasons)}
        else:
            metrics[name] = {"value": values[name], "unit": unit}
    return metrics, samples, notes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    return lines[1]


def run_workload(name: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    workload = WORKLOADS[name]
    invocation = workload.invocation(seed)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "command": "relfisher " + " ".join(invocation.argv), "why": workload.why,
        "python": sys.version.split()[0], "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "loadavg_start": _loadavg(), "git_commit": _git_commit(), "layer_map": LAYER_MAP,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        runner = Runner(work, deadline)
        runner.invoke(invocation.argv, "setup")  # warm the bytecode and file caches
        runner.check_reproduce()
        if trace:
            metrics, samples, notes = measure_traced(runner, invocation, seconds)
        else:
            metrics, samples = measure(runner, invocation, seconds)
            notes = []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    verdict = runner.verdict
    for sample in samples:
        sample.pop("stdout", None)
        sample.pop("output", None)
    record.update({
        "loadavg_end": _loadavg(),
        "metrics": metrics,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "failed_frac": verdict.failed / verdict.attempted if verdict.attempted else 1.0,
        "known_discrepancy": sorted({s["known_discrepancy"] for s in samples
                                     if "known_discrepancy" in s}),
        "problems": verdict.problems,
        "notes": notes,
        "samples": samples,
    })
    results = os.path.join(OUT_DIR, "results")
    os.makedirs(results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = os.path.join(results, f"{name}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    record["results_file"] = os.path.relpath(path, ROOT)
    return record


def print_summary(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print(f"  command: {record['command']}")
    plain = [s for s in record["samples"] if "dispatch_s" in s]
    print(f"  invocations: {len(plain)}  cells attempted {record['attempted']}  "
          f"failed {record['failed']}  failed_frac {record['failed_frac']:.3g}  "
          f"known_discrepancy per invocation {record['known_discrepancy']}")
    for name, metric in record["metrics"].items():
        value = metric["value"]
        shown = "unmeasured (" + metric["unmeasured"] + ")" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown} {metric['unit']}")
    for line in record["problems"] + record["notes"]:
        print(f"  ! {line}")
    print(f"  results: {record['results_file']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "relfisher", "cli.py")):
        print(f"error: no relfisher sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if not os.path.isfile(gate.GOLDEN_PATH):
        print(f"error: missing {gate.GOLDEN_PATH}", file=sys.stderr)
        return 2
    sys.path.insert(1, os.path.join(ROOT, "src"))  # for the kernel baseline
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        if args.workload == "all":
            deadline = time.monotonic() + HARD_LIMIT_S
        records.append(run_workload(name, args.seed, args.seconds, bool(args.trace), deadline))
        print_summary(records[-1])
    metrics = {}
    for record in records:
        for metric, value in record["metrics"].items():
            if record["trace"] or metric in END_TO_END:
                metrics[metric if len(records) == 1 else f"{record['workload']}:{metric}"] = value
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    complete = all(r["metrics"] for r in records)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
