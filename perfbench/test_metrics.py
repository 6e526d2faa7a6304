"""Unit tests of the benchmark's metric helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import unittest
from pathlib import Path

import metrics

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def proc(minflt=100, utime=50, stime=10):
    return {"minflt": minflt, "majflt": 0, "utime_ticks": utime, "stime_ticks": stime}


def host():
    return {
        "cores": 2,
        "pool_threads": 2,
        "matmul_threads": 1,
        "simd_tier": "avx2+fma",
        "cpu": {"total_ticks": 1000, "steal_ticks": 10},
    }


def span(id, name, start, end, parent=None):
    return {"id": id, "parent": parent, "name": name, "job": 0, "items": 0,
            "start_ns": start, "end_ns": end}


def search_report(workload, traced):
    phases = [{
        "name": "rl", "span": 1, "requested": 16, "records": 16, "wall_s": 2.0,
        "proc": proc(), "host": {"total_ticks": 400, "steal_ticks": 4},
        "cache_hits": 90, "cache_misses": 10, "best_reward": 0.5,
        "registry": {"controller_sample_ns": 2e8, "controller_update_ns": 3e8,
                     "gp_predict_batch_ns": 1e8, "pool_busy_ns": 9, "pool_thread_ns": 10},
    }]
    spans = [span(0, "setup", 0, 100), span(2, "hypernet.train", 0, 90, parent=0),
             span(1, "phase", 200, 200 + 2_000_000_000),
             span(3, "core.evaluate_batch", 300, 300 + 1_400_000_000, parent=1)]
    if workload == "paper_search":
        phases.append(dict(phases[0], name="random", span=4, requested=4, records=4, registry={}))
        spans += [span(4, "phase", 3e9, 5e9),
                  span(5, "core.evaluate", 3e9, 3e9 + 1.95e9, parent=4)]
    return {
        "workload": workload, "seed": 1, "seconds": 10, "traced": traced,
        "setup_s": 3.0, "best_reward": 0.5, "attempted": 20, "failed": 0,
        "peak_rss_kib": 2048, "errors": [], "phases": phases,
        "self_proc": proc(), "host": host(), "spans": spans if traced else [],
    }


def serve_report(traced):
    jobs = [{"conn": i % 2, "job": i, "submit_ns": i * 10**7, "ack_ns": i * 10**7 + 4 * 10**6,
             "first_ns": i * 10**7 + 5 * 10**6, "last_ns": i * 10**7 + 8 * 10**6,
             "done_ns": i * 10**7 + 10**7, "search_iters": 200, "events": 206,
             "frame_bytes": 5000} for i in range(20)]
    return {
        "workload": "serve", "seed": 1, "seconds": 10, "traced": traced,
        "setup_s": 0.01, "best_reward": 0.8, "attempted": 20, "failed": 0,
        "peak_rss_kib": 4096, "errors": [], "phases": [], "self_proc": proc(),
        "host": host(), "jobs": jobs, "shutdown_ack_lost": False,
        "daemon_proc": proc(), "stats": {"cache_hits": 9, "cache_misses": 1, "journal_fsyncs": 40},
    }


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_with_counts(self):
        p = metrics.percentile(range(1, 101), 50)
        self.assertEqual(p, {"value": 50, "n": 100, "beyond": 50})
        p = metrics.percentile(list(range(100, 0, -1)), 90)
        self.assertEqual(p, {"value": 90, "n": 100, "beyond": 10})

    def test_thin_tail_reports_no_value_but_keeps_counts(self):
        p = metrics.percentile(range(99), 90)
        self.assertIsNone(p["value"])
        self.assertEqual((p["n"], p["beyond"]), (99, 9))
        self.assertEqual(metrics.percentile([], 50), {"value": None, "n": 0, "beyond": 0})


class FailureShareTest(unittest.TestCase):
    def test_share(self):
        self.assertEqual(metrics.failure_share(10, 0), 0.0)
        self.assertEqual(metrics.failure_share(8, 2), 0.25)

    def test_rejects_impossible_counts(self):
        for attempted, failed in ((0, 0), (5, 6), (5, -1), (5.0, 1)):
            with self.assertRaises(ValueError):
                metrics.failure_share(attempted, failed)


class ResultLineTest(unittest.TestCase):
    spec = [{"name": "setup_s", "unit": "s"}, {"name": "candidates_per_s", "unit": "1/s"}]

    def test_prints_names_with_units(self):
        line = metrics.result_line(True, 20, 1, {"setup_s": 1.5, "candidates_per_s": 3.25},
                                   self.spec)
        self.assertEqual(list(line), ["correct", "attempted", "failed", "metrics"])
        self.assertEqual(line["metrics"], {
            "setup_s": {"value": 1.5, "unit": "s"},
            "candidates_per_s": {"value": 3.25, "unit": "1/s"},
        })
        json.dumps(line, allow_nan=False)

    def test_rejects_missing_extra_and_non_finite_metrics(self):
        bad = ({"setup_s": 1.0}, {"setup_s": 1.0, "candidates_per_s": 2.0, "x": 3.0},
               {"setup_s": math.nan, "candidates_per_s": 2.0})
        for values in bad:
            with self.assertRaises(ValueError):
                metrics.result_line(True, 1, 0, values, self.spec)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [span(0, "p", 0, 100), span(1, "a", 10, 40, parent=0),
                 span(2, "b", 30, 50, parent=0), span(3, "c", 90, 120, parent=0)]
        st = metrics.self_times(spans)
        self.assertEqual(st[0], 100 - 40 - 10)
        self.assertEqual(st[1], 30)


class MetricSetTest(unittest.TestCase):
    """Every workload prints exactly the metrics BENCHMARK.json names."""

    def test_every_workload_prints_every_metric(self):
        for workload in ("paper_search", "surrogate_rl", "serve"):
            make = (lambda t: serve_report(t)) if workload == "serve" else (
                lambda t, w=workload: search_report(w, t))
            e2e = metrics.end_to_end(make(False), [make(False)])
            metrics.result_line(True, 20, 0, e2e, SPEC["end_to_end"])
            layers = metrics.per_layer(make(True), make(False))
            metrics.result_line(True, 20, 0, layers, SPEC["per_layer"])

    def test_end_to_end_values(self):
        r = search_report("paper_search", False)
        e2e = metrics.end_to_end(r, [dict(r, setup_s=1.0), dict(r, setup_s=9.0)])
        self.assertEqual(e2e["setup_s"], 3.0)
        self.assertEqual(e2e["candidates_per_s"], 20 / 4.0)
        s = metrics.end_to_end(serve_report(False), [])
        self.assertAlmostEqual(s["candidates_per_s"], 20 * 200 / 0.2)

    def test_traced_layers_add_up(self):
        m = metrics.per_layer(search_report("paper_search", True),
                              search_report("paper_search", False))
        self.assertAlmostEqual(m["controller.sample_share.rl"], 0.1)
        self.assertAlmostEqual(m["hypernet.score_share.rl"], 0.65)
        self.assertAlmostEqual(m["core.unattributed_share.rl"], 0.05)
        self.assertAlmostEqual(m["trace.attributed_share"], 0.95)
        self.assertAlmostEqual(m["hypernet.train_share_of_setup"], 0.9)
        s = metrics.per_layer(serve_report(True), serve_report(False))
        self.assertAlmostEqual(s["client.submit_ack_share"], 0.4)
        self.assertAlmostEqual(s["trace.attributed_share"], 1.0)
        self.assertEqual(s["server.journal_fsyncs_per_job"], 2.0)
        self.assertEqual(s["process.peak_rss_mb"], 4.0)


if __name__ == "__main__":
    unittest.main()
