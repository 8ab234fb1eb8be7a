"""Traced-run determinism and ledger consistency.

At one seed, the per-layer counts repeat exactly across two traced runs, the
layer self times sum to the traced total, and every traced point equals its
untraced twin. Uses short simulated phases to stay fast.

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import sys
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
import run  # noqa: E402

SHORT = {"rampup": 1, "measure": 1, "rampdown": 1}
COUNTS = ["sim.events", "db.select.calls", "db.write.calls", "db.rows_examined",
          "db.parse_calls", "db.plan_calls", "core.dataset.gets", "core.dataset.builds"]
SELF_TIMES = ["core.dataset.build_s", "core.dataset.clone_s", "core.experiment.other_s",
              "db.select.exec_s", "db.write.exec_s", "db.parse_plan_s", "sim.nondb_s",
              "obs.analyze_s"]


def traced_run():
    doc = run.run_driver(run.WORKLOADS["bookstore-ordering"], seed=7, seconds=1, trace=1,
                         window=SHORT)
    return doc, {m["name"]: m for m in doc["layers"]}


class TracedRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.first, cls.layers1 = traced_run()
        cls.second, cls.layers2 = traced_run()

    def test_counts_repeat_exactly(self):
        for name in COUNTS:
            with self.subTest(metric=name):
                self.assertEqual(self.layers1[name]["value"], self.layers2[name]["value"])
                self.assertGreater(self.layers1[name]["value"], 0)

    def test_self_times_sum_to_traced_total(self):
        for layers in (self.layers1, self.layers2):
            total = sum(layers[name]["value"] for name in SELF_TIMES)
            self.assertTrue(math.isclose(total, layers["bench.traced_total_s"]["value"],
                                         rel_tol=1e-9))
            for name in SELF_TIMES:
                self.assertGreaterEqual(layers[name]["value"], 0.0, name)

    def test_one_build_per_workload(self):
        self.assertEqual(self.layers1["core.dataset.builds"]["value"], 1)
        # One get at set-up plus one per point (single-database topologies).
        points = len(self.first["sweeps"][0]["points"])
        self.assertEqual(self.layers1["core.dataset.gets"]["value"], points + 1)

    def test_traced_points_equal_untraced_twins(self):
        for doc in (self.first, self.second):
            sweeps = doc["sweeps"]
            self.assertTrue(any(s["traced"] for s in sweeps))
            self.assertTrue(any(not s["traced"] for s in sweeps))
            for s in sweeps:
                self.assertEqual(s["points"], sweeps[0]["points"])
        self.assertEqual(self.first["sweeps"][0]["points"], self.second["sweeps"][0]["points"])

    def test_every_named_layer_metric_is_reported(self):
        metrics = dict((row[0], row[2]) for row in run.per_layer_metrics(self.first))
        self.assertEqual(sorted(metrics), sorted(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
