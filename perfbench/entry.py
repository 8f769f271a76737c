"""Run one `relfisher` CLI command in this fresh interpreter and report timings.

    python3 perfbench/entry.py REPORT.json {run,setup,spans,points} -- CLI ARGS...

This is what the `relfisher` console script does (`sys.exit(main())`), plus a
report written to REPORT.json when the command returns: the monotonic clock
when the CLI was imported and ready to dispatch and when it returned, the exit
status, CPU time and peak resident memory. `setup` stops once the CLI is
ready. `spans` installs the per-cell hooks of tracer.py first, `points` the
per-cell and the per-point hooks, and either adds their records.
"""
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def peak_rss_kb() -> int:
    """Peak resident memory of this process, plus the largest child it waited for.

    VmHWM belongs to the address space exec created. ru_maxrss would also
    count the benchmark's own memory, which the process had at fork.
    """
    import resource

    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) + children
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children


def main() -> int:
    report_path, mode, separator, *argv = sys.argv[1:]
    if separator != "--" or mode not in ("run", "setup", "spans", "points"):
        raise SystemExit(__doc__)
    sys.path.insert(1, os.path.join(ROOT, "src"))
    from relfisher import cli

    ready = time.monotonic_ns()
    report = {"ready_ns": ready}
    if mode != "setup":
        tracer = None
        if mode in ("spans", "points"):
            from tracer import Tracer

            tracer = Tracer(points=mode == "points")
            tracer.install()
        cpu0 = time.process_time_ns()
        dispatch = time.monotonic_ns()
        report["returncode"] = cli.main(argv)
        report["done_ns"] = time.monotonic_ns()
        report["dispatch_ns"] = dispatch
        report["main_cpu_ns"] = time.process_time_ns() - cpu0
        report["maxrss_kb"] = peak_rss_kb()
        if tracer is not None:
            report["trace"] = tracer.report()
    import json

    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return report.get("returncode", 0)


if __name__ == "__main__":
    sys.exit(main())
