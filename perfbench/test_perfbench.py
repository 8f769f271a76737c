"""Self-test of the benchmark's gate, helpers and tracer.

    python3 -m unittest discover -s perfbench
"""
from __future__ import annotations

import csv
import io
import os
import sys
import threading
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import gate  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402

VARIANT = {"omega": 1.0, "Z": 1.0}


def _valid_output(expected: list[list[str]]) -> list[list[str]]:
    """A validate output that passes the gate: ir_numeric is the exact integral."""
    rows = []
    for system, space, numbers, digest, ir_closed, status in expected:
        exact = float(ir_closed)
        if system == "hydrogen" and space == "momentum":
            qn = dict(part.split("=") for part in numbers.split(","))
            exact = gate.hydrogen_momentum_integral(int(qn["n"]), int(qn["l"]), VARIANT["Z"])
        rel = gate.rel_diff(exact, float(ir_closed))
        rows.append([system, space, numbers, digest, ir_closed, repr(exact), f"{rel:.3e}", status])
    return rows


def _csv(rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(gate.HEADER)
    writer.writerows(rows)
    return buffer.getvalue()


class GateTest(unittest.TestCase):
    def setUp(self) -> None:
        self.expected = gate.expected_validate_rows(gate.load_golden(), VARIANT)
        self.rows = _valid_output(self.expected)

    def check(self, rows: list[list[str]], returncode: int = 3) -> gate.Verdict:
        return gate.check_validate(_csv(rows), returncode, self.expected, VARIANT["Z"])

    def test_untampered_output_passes_with_known_discrepancies(self) -> None:
        verdict = self.check(self.rows)
        self.assertEqual((verdict.attempted, verdict.failed), (270, 0), verdict.problems)
        self.assertEqual(verdict.known_discrepancy, 28)

    def test_changed_ir_numeric_fails_its_cell(self) -> None:
        rows = [list(row) for row in self.rows]
        rows[5][5] = repr(float(rows[5][5]) * (1 + 1e-6) + 1e-9)
        self.assertEqual(self.check(rows).failed, 1)

    def test_dropped_row_fails_its_cell(self) -> None:
        self.assertEqual(self.check(self.rows[:100] + self.rows[101:]).failed, 1)

    def test_quadrature_failure_fails_its_cell(self) -> None:
        rows = [list(row) for row in self.rows]
        rows[40][7] = "quadrature_failed"
        self.assertEqual(self.check(rows).failed, 1)

    def test_tabulated_value_in_place_of_the_integral_fails(self) -> None:
        rows = [list(row) for row in self.rows]
        index = next(i for i, row in enumerate(rows)
                     if row[:3] == ["hydrogen", "momentum", "n=2,l=0"])
        rows[index][5] = rows[index][4]  # 192, the tabulated form, not the integral's 72
        verdict = self.check(rows)
        self.assertEqual((verdict.failed, verdict.known_discrepancy), (1, 27))

    def test_unexpected_exit_status_fails_every_cell(self) -> None:
        self.assertEqual(self.check(self.rows, returncode=1).failed, 270)

    def test_digest_mismatch_fails_every_row(self) -> None:
        good = gate.check_digest(b"abc", 0, gate.sha256(b"abc"), 7, "x")
        bad = gate.check_digest(b"abd", 0, gate.sha256(b"abc"), 7, "x")
        self.assertEqual((good.failed, bad.failed), (0, 7))


class HelperTest(unittest.TestCase):
    def test_percentile(self) -> None:
        self.assertEqual(layers.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertAlmostEqual(layers.percentile([1, 2, 3, 4], 95), 3.85)
        self.assertEqual(layers.percentile([1, 2, 3, 4], 0), 1)
        self.assertEqual(layers.percentile([1, 2, 3, 4], 100), 4)
        self.assertEqual(layers.percentile([7], 95), 7)

    def test_span_self_time(self) -> None:
        # (id, parent, layer, pid, thread, wall_start, wall_end, cpu, point_cpu, info)
        main = (1, 0, "cli.main", 10, 100, 0, 500, 100, 10, None)
        same_thread = (2, 1, "relative_fisher.numeric_ir", 10, 100, 50, 90, 30, 0, None)
        pool_thread = (3, 1, "relative_fisher.numeric_ir", 10, 101, 60, 400, 50, 0, None)
        self.assertEqual(layers.span_self_ns(main, [same_thread, pool_thread]), 60)
        self.assertEqual(layers.span_self_ns(main, []), 90)


class TracerTest(unittest.TestCase):
    def test_missing_hook_marks_its_layer_unmeasured(self) -> None:
        import relfisher.wavefunctions as wavefunctions

        original = wavefunctions.hermite
        saved = tracer.SPAN_HOOKS, tracer.POINT_HOOKS
        tracer.SPAN_HOOKS = ()
        tracer.POINT_HOOKS = (("specfun.hermite", "relfisher.wavefunctions.no_such_name"),)
        try:
            traced = tracer.Tracer(points=True)
            traced.install()
        finally:
            tracer.SPAN_HOOKS, tracer.POINT_HOOKS = saved
        self.assertIs(wavefunctions.hermite, original)
        self.assertIn("relfisher.wavefunctions.no_such_name", traced.unmeasured["specfun.hermite"])

    def test_wrappers_are_thread_safe(self) -> None:
        traced = tracer.Tracer(points=False)
        point = traced._point_wrapper("layer", lambda x: x + 1)
        span = traced._span_wrapper("cell", lambda n: [point(i) for i in range(n)])
        root = traced._span_wrapper("cli.main", lambda: [t.start() for t in threads] + [t.join(30) for t in threads])
        threads = [threading.Thread(target=span, args=(5000,)) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            root()
        finally:
            sys.setswitchinterval(interval)
        self.assertFalse(any(t.is_alive() for t in threads))
        report = traced.report()
        calls = sum(stats["layer"][tracer.CALLS] for _, stats in report["threads"] if "layer" in stats)
        self.assertEqual(calls, 6 * 5000)
        cells = [s for s in report["spans"] if s[tracer.LAYER] == "cell"]
        root_id = next(s[tracer.ID] for s in report["spans"] if s[tracer.LAYER] == "cli.main")
        self.assertEqual(len(cells), 6)
        self.assertTrue(all(s[tracer.PARENT] == root_id for s in cells))
        self.assertEqual(len({s[tracer.THREAD] for s in cells}), 6)


if __name__ == "__main__":
    unittest.main()
