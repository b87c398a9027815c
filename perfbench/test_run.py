"""Tests of the benchmark script's own logic (no programs are started).

    python3 -m unittest discover -s perfbench
"""

import unittest

import run


def serve_raw(workload):
    """A synthetic finished serve session, shaped like `perfbench drive`."""
    n = 1200
    counters = {
        "cache/entries": 4100.0, "cache/hot_hits": 0.0, "cache/warm_hits": 0.0,
        "cache/evictions": 0.0, "cells/solved": 0.0, "cells/retries": 0.0,
        "submits/shed": 0.0,
    }
    after = dict(counters, **{"cache/hot_hits": 600.0, "cache/warm_hits": 400.0,
                              "cells/solved": 60.0})
    return {
        "setups": [0.3, 0.2, 0.25],
        "rss_mb": 20.0,
        "wal_bytes": 4_100_000,
        "drive": {
            "attempted": 2400, "failed": 0, "errors": [], "ops_per_conn": [1200, 1200],
            "window_s": 25.0, "cells_checked": 4000,
            "submits": {
                "latency_ns": [44e6 + i for i in range(n)],
                "first_cell_ns": [43e6 + i for i in range(n)],
                "solve_ns": [2e4] * n,
                "cells": [4] * n,
                "warm": [1] * n,
            },
            "quantile_ns": [7e4 + i for i in range(n)],
            "counters_before": counters,
            "counters_after": after,
        },
    }


def figures_raw():
    runs = []
    for _ in range(3):
        for phase, walls in (("cold", (1.0, 3.0, 1.3)), ("warm", (0.03, 3.2, 0.004))):
            for name, wall, counts in zip(run.FIGURE_BINS, walls,
                                          ((0, 5, 0), (0, 0, 5), (0, 3, 0))):
                if phase == "warm" and counts[1]:
                    counts = (counts[1], 0, 0)
                runs.append({"bin": name, "phase": phase, "wall_s": wall, "rss_mb": 90.0,
                             "counts": counts, "cells": sum(counts), "ok": True})
    return {"setups": [0.003] * 9, "runs": runs, "failures": [], "passes": 3,
            "wal_bytes": [8300] * 3}


class TailTest(unittest.TestCase):
    def test_picks_the_highest_percentile_with_ten_samples_beyond_it(self):
        xs = list(range(1, 1001))
        self.assertEqual(run.tail(xs), (99.0, 990))
        # One sample short of p99: the next level down.
        self.assertEqual(run.tail(xs[:999])[0], 95.0)
        self.assertEqual(run.tail(list(range(9999)))[0], 99.0)
        self.assertEqual(run.tail(list(range(10000)))[0], 99.9)
        self.assertEqual(run.tail(list(range(100)))[0], 90.0)
        self.assertEqual(run.tail(list(range(40)))[0], 75.0)

    def test_p99_is_reported_beside_a_higher_tail(self):
        summ = run.summary(list(range(20000)))
        self.assertEqual(summ["tail_level"], 99.9)
        self.assertEqual(summ["p99"], 19799)
        self.assertNotIn("p99", run.summary(list(range(999))))

    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(run.tail(list(range(39))))
        self.assertIsNone(run.tail([]))

    def test_ten_samples_lie_beyond_the_reported_value(self):
        for n in (40, 100, 250, 999, 1000, 5000):
            level, value = run.tail(list(range(n)))
            self.assertGreaterEqual(sum(x > value for x in range(n)), 10, n)


class OutputTest(unittest.TestCase):
    def test_every_workload_reports_every_metric_with_its_unit(self):
        for workload in run.WORKLOADS:
            if workload == "figures_regen":
                named, _ = run.figures_metrics(figures_raw())
                declared = run.FIGURE_END_TO_END
            else:
                named, _ = run.serve_metrics(workload, serve_raw(workload))
                declared = run.END_TO_END
            self.assertEqual(set(named), set(run.NAMED[workload]), workload)
            for name, value in named.items():
                self.assertIn(name, run.UNITS)
                self.assertIsNotNone(value, "%s %s" % (workload, name))
            line = run.result_line(True, 1, 0, named, declared)
            self.assertEqual(set(line["metrics"]), set(declared), workload)
            for name, m in line["metrics"].items():
                self.assertEqual(m["unit"], run.UNITS[name])
                self.assertGreater(m["value"], 0, "%s %s" % (workload, name))

    def test_percentiles_carry_their_sample_counts(self):
        _, samples = run.serve_metrics("serve_warm_mix", serve_raw("serve_warm_mix"))
        self.assertEqual(samples["submit_latency"]["n"], 1200)
        self.assertEqual(samples["submit_latency"]["tail_level"], 99.0)
        self.assertEqual(samples["quantile_latency"]["n"], 1200)

    def test_session_layers_split_client_latency_exactly(self):
        d = serve_raw("serve_warm_mix")["drive"]
        layers = run.serve_layer_session(d)
        self.assertAlmostEqual(layers["serve.server_ms"] + layers["serve.outside_ms"],
                               layers["serve.client_ms"])
        self.assertAlmostEqual(layers["cache.hot_hit_ratio"], 0.6)

    def test_an_incomplete_metric_set_is_refused(self):
        with self.assertRaises(run.BenchError):
            run.result_line(True, 1, 0, {"setup_s": 1.0}, run.END_TO_END)


if __name__ == "__main__":
    unittest.main()
