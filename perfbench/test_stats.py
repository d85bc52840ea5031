"""Self-tests for the benchmark's statistics code.

    python3 -m unittest discover -s perfbench

Needs no build: covers the quantile and "ten samples beyond" rule,
open-loop timing from the scheduled send time, the per-segment
closed-loop throughput window, and the result-line schema check.
"""

import json
import math
import unittest
from pathlib import Path

import stats


def row(phase="latency", type_="distances", sched=0, sent=0, done=0, status=0,
        wrong=0):
    return {"id": 1, "phase": phase, "type": type_, "sched_ns": sched,
            "sent_ns": sent, "done_ns": done, "status": status, "sketch": 0,
            "version": 1, "bytes": 0, "wrong": wrong}


class QuantileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(stats.quantile([3, 1, 2], 0.5), 2)
        self.assertEqual(stats.quantile([1, 2, 3, 4], 0.5), 2.5)
        self.assertEqual(stats.quantile([10], 0.99), 10)
        self.assertAlmostEqual(stats.quantile(list(range(101)), 0.99), 99)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.quantile([], 0.5)

    def test_ten_samples_beyond_rule(self):
        self.assertEqual(stats.samples_beyond(1000, 0.99), 10)
        self.assertTrue(stats.tail_supported(1000, 0.99))
        self.assertFalse(stats.tail_supported(999, 0.99))
        self.assertTrue(stats.tail_supported(200, 0.95))
        self.assertFalse(stats.tail_supported(199, 0.95))
        self.assertTrue(stats.tail_supported(20, 0.5))


class OpenLoopTimingTest(unittest.TestCase):
    def test_latency_runs_from_the_scheduled_send(self):
        # Sent 4 ms late (a stalled generator), answered 1 ms after the
        # send: the request waited 5 ms from when it was due.
        latency, lag = stats.open_loop_timing(
            [row(sched=0, sent=4_000_000, done=5_000_000)])
        self.assertEqual(latency, [5.0])
        self.assertEqual(lag, [4.0])

    def test_a_stall_is_charged_to_every_delayed_request(self):
        # Due every 1 ms; the generator stalls until 10 ms, then sends
        # the backlog at once and each answer takes 1 ms.
        rows = [row(sched=i * 1_000_000, sent=10_000_000, done=11_000_000)
                for i in range(10)]
        latency, lag = stats.open_loop_timing(rows)
        self.assertEqual(latency, [11.0 - i for i in range(10)])
        self.assertEqual(max(lag), 10.0)
        self.assertEqual(min(lag), 1.0)

    def test_failures_count_for_lag_but_not_latency(self):
        rows = [row(sched=0, sent=0, done=1_000_000),
                row(sched=0, sent=2_000_000, done=3_000_000, status=stats.STATUS_SHED),
                row(sched=0, sent=0, done=2_000_000, wrong=1)]
        latency, lag = stats.open_loop_timing(rows)
        self.assertEqual(latency, [1.0])
        self.assertEqual(sorted(lag), [0.0, 0.0, 2.0])


class ClosedLoopWindowTest(unittest.TestCase):
    def test_counts_answers_within_each_segments_nominal_length(self):
        seg = lambda begin, end: {"phase": "saturation", "begin": {"t_ns": begin},
                                  "end": {"t_ns": end}}
        counters = {"segment_s": {"saturation": 1.0},
                    "segments": [seg(0, 1_500_000_000), seg(5_000_000_000, 6_200_000_000)]}
        rows = [
            row("saturation", sent=100, done=900_000_000),            # in
            row("saturation", sent=100, done=1_200_000_000),          # drained late
            row("saturation", sent=5_000_000_100, done=5_500_000_000),  # in
            row("saturation", sent=5_000_000_100, done=5_600_000_000,
                status=stats.STATUS_DEADLINE_EXCEEDED),               # failed
        ]
        self.assertEqual(stats.closed_loop_qps(counters, rows, "saturation"), 1.0)


class ResultSchemaTest(unittest.TestCase):
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                       .read_text())

    def result(self, trace=False):
        wanted = self.bench["per_layer" if trace else "end_to_end"]
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                            for m in wanted}}

    def test_conforming_results_pass(self):
        self.assertEqual(stats.check_result(self.result(), self.bench, False), [])
        self.assertEqual(stats.check_result(self.result(True), self.bench, True), [])

    def test_problems_are_reported(self):
        r = self.result()
        r["extra"] = 1
        self.assertTrue(stats.check_result(r, self.bench, False))

        r = self.result()
        del r["metrics"]["p50_ms"]
        self.assertTrue(stats.check_result(r, self.bench, False))

        r = self.result()
        r["metrics"]["p90_ms"]["value"] = math.inf
        self.assertTrue(stats.check_result(r, self.bench, False))

        r = self.result()
        r["metrics"]["p90_ms"]["unit"] = "s"
        self.assertTrue(stats.check_result(r, self.bench, False))

        r = self.result()
        r["attempted"] = True
        self.assertTrue(stats.check_result(r, self.bench, False))

        r = self.result()
        r["attempted"] = 0
        self.assertTrue(stats.check_result(r, self.bench, False))

        # End-to-end metrics are the wrong set for a traced run.
        self.assertTrue(stats.check_result(self.result(), self.bench, True))

    def test_benchmark_json_keeps_its_contract(self):
        self.assertEqual(set(self.bench), {"command", "paths", "run_seconds", "workloads",
                                           "end_to_end", "per_layer"})
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        workloads = json.loads((Path(__file__).resolve().parent / "workloads.json")
                               .read_text())
        self.assertLessEqual({w["name"] for w in self.bench["workloads"]}, set(workloads))


if __name__ == "__main__":
    unittest.main()
