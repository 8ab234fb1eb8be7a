"""Strict command line: bad input prints usage and exits nonzero, with no
result on stdout.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
import run  # noqa: E402

RUN = os.path.join(BENCH, "run.py")


def invoke(args, cwd=None, timeout=120):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


class RunCliTest(unittest.TestCase):
    def assert_rejected(self, *args):
        r = invoke([RUN, *args])
        self.assertNotEqual(r.returncode, 0, r.stdout)
        self.assertIn("usage:", r.stderr)
        self.assertEqual(r.stdout, "")

    def test_unknown_flag(self):
        self.assert_rejected("--workload", "bookstore-browsing", "--bogus", "1")

    def test_abbreviated_flag(self):
        self.assert_rejected("--work", "bookstore-browsing")

    def test_unknown_workload(self):
        self.assert_rejected("--workload", "bookstore-shopping")

    def test_missing_workload(self):
        self.assert_rejected("--seed", "1")

    def test_unparsable_seed(self):
        self.assert_rejected("--workload", "auction-bidding", "--seed", "abc")

    def test_negative_seed(self):
        self.assert_rejected("--workload", "auction-bidding", "--seed", "-3")

    def test_negative_window(self):
        self.assert_rejected("--workload", "auction-bidding", "--seconds", "-5")

    def test_zero_window(self):
        self.assert_rejected("--workload", "auction-bidding", "--seconds", "0")

    def test_fractional_window(self):
        self.assert_rejected("--workload", "auction-bidding", "--seconds", "1.5")

    def test_trace_out_of_range(self):
        self.assert_rejected("--workload", "auction-bidding", "--trace", "2")

    def test_stray_positional(self):
        self.assert_rejected("--workload", "auction-bidding", "extra")


class StandaloneDirectoryTest(unittest.TestCase):
    def test_fails_without_simulator_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            r = invoke(["perfbench/run.py", "--workload", "bookstore-browsing", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=tmp)
            self.assertNotEqual(r.returncode, 0)
            self.assertEqual(r.stdout, "")


class DriverCliTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def assert_rejected(self, *args):
        r = subprocess.run([run.DRIVER, *args], capture_output=True, text=True, timeout=60)
        self.assertEqual(r.returncode, 2, r.stderr)
        self.assertIn("usage:", r.stderr)
        self.assertEqual(r.stdout, "")

    VALID = ["--app", "bookstore", "--mix", "0", "--clients", "10", "--seed", "1",
             "--seconds", "1", "--trace", "0"]

    def with_flag(self, flag, value):
        args = list(self.VALID)
        if flag in args:
            args[args.index(flag) + 1] = value
        else:
            args += [flag, value]
        return args

    def test_unknown_flag(self):
        self.assert_rejected(*self.with_flag("--jobs", "4"))

    def test_missing_required(self):
        self.assert_rejected(*self.VALID[:-2])

    def test_missing_value(self):
        self.assert_rejected(*self.VALID, "--spans-out")

    def test_bad_values(self):
        for flag, value in [("--seed", "abc"), ("--seed", "-1"), ("--seconds", "-5"),
                            ("--seconds", "nan"), ("--measure-sec", "0"),
                            ("--rampup-sec", "1x"), ("--clients", "5,,6"),
                            ("--clients", "0"), ("--mix", "3"), ("--trace", "2"),
                            ("--app", "shop"), ("--setup-reps", "0")]:
            with self.subTest(flag=flag, value=value):
                self.assert_rejected(*self.with_flag(flag, value))


if __name__ == "__main__":
    unittest.main()
