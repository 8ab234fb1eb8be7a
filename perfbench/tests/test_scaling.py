"""Scaling of timings to one host speed by the reference kernel.

A point that ran while the host was slow, with the reference kernel around it
slowed by the same factor, must come out at the same scaled time. Uses
hand-made driver documents; nothing is built or run.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
import run  # noqa: E402

REF = run.REFERENCE_S


def sweep(point_s, ref_s):
    return {"traced": False, "sim_s": 10.0 * len(point_s), "point_wall_s": point_s,
            "point_cpu_s": point_s, "ref_wall_s": ref_s, "ref_cpu_s": ref_s, "points": []}


class ScalingTest(unittest.TestCase):
    def test_kernel_at_reference_speed_leaves_time_unchanged(self):
        self.assertAlmostEqual(run.scaled(1.5, REF, REF), 1.5)

    def test_uses_mean_of_kernel_before_and_after(self):
        self.assertAlmostEqual(run.scaled(1.0, REF, 3 * REF), 0.5)

    def test_slow_spell_cancels(self):
        quiet = sweep([1.0, 2.0], [REF, REF, REF])
        # The host ran the second point and the kernel around it 1.8x slower.
        slow = sweep([1.0, 3.6], [REF, 1.8 * REF, 1.8 * REF])
        self.assertAlmostEqual(run.sweep_cost([quiet], "point_wall_s", "ref_wall_s"), 3.0)
        self.assertAlmostEqual(run.sweep_cost([slow], "point_wall_s", "ref_wall_s"),
                               1.0 / 1.4 + 2.0)
        self.assertAlmostEqual(run.sweep_cost([slow], "point_wall_s"), 4.6)

    def test_end_to_end_rows_report_scaled_and_raw(self):
        doc = {"setup_s": [0.6, 0.8, 1.0], "setup_ref_s": [REF, REF, 2 * REF, 2 * REF, REF, REF],
               "peak_rss_kib": 2048, "sweeps": [sweep([1.0, 2.0], [REF, REF, REF])]}
        rows = {row[0]: row for row in run.end_to_end_metrics(doc)}
        self.assertEqual(sorted(rows), sorted(name for name, _ in run.END_TO_END))
        self.assertAlmostEqual(rows["setup_s"][2], 0.6)  # median of 0.6, 0.4, 1.0
        self.assertAlmostEqual(rows["setup_s"][4], 0.8)
        self.assertAlmostEqual(rows["sweep_wall_s"][2], 3.0)
        self.assertAlmostEqual(rows["sim_s_per_wall_s"][2], 20.0 / 3.0)
        self.assertAlmostEqual(rows["peak_rss_mib"][2], 2.0)
        self.assertIsNone(rows["peak_rss_mib"][4])


if __name__ == "__main__":
    unittest.main()
