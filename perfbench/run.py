#!/usr/bin/env python3
"""Host-cost benchmark of the mwsim simulator.

Runs one paper workload (six configurations x two client counts) through
core::runExperiment as the figure benches do, and reports what the sweep
costs the host. With --trace 1 it also splits that cost by layer (dataset
build and clone, SQL, simulation kernel and middleware, observation).

Usage, from the repository root:

    python3 perfbench/run.py --workload bookstore-browsing --seed 1 \\
        --seconds 25 --trace 0

The first call builds the simulator from ../src into .bench_build/perfbench.
Progress and build output go to stderr; stdout carries one line per metric
and ends with one JSON object (correct / attempted / failed / metrics).
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
EXPECTED_FILE = os.path.join(HERE, "expected.json")

WORKLOADS = {
    "bookstore-browsing": {"app": "bookstore", "mix": 0, "clients": [400, 900]},
    "bookstore-ordering": {"app": "bookstore", "mix": 2, "clients": [500, 1100]},
    "auction-bidding": {"app": "auction", "mix": 1, "clients": [600, 1300]},
}

# Simulated phases of every point, in seconds. The ramp-down is the figure
# benches' fixed 5 s, so each point equals the row of
# `figNN --rampup-sec 2 --measure-sec 3 --seed <root seed>`.
WINDOW = {"rampup": 2, "measure": 3, "rampdown": 5}
SETUP_REPS = 3

# --seed n selects input variant n mod SEED_VARIANTS, i.e. simulator root
# seed 1 + (n mod SEED_VARIANTS). Every variant has recorded expected results
# (expected.json), so every run is checked exactly.
SEED_VARIANTS = 16

DRIVER_TIMEOUT_S = 170

# Timings are reported at one host speed. On a shared host the speed of a
# vCPU drifts by tens of percent from minute to minute, and process CPU time
# drifts with it. The driver times a fixed reference kernel (driver.cpp)
# right before and after every measured interval; each interval is scaled by
# REFERENCE_S over the mean of those two kernel times. REFERENCE_S is about
# the kernel's time on a quiet 4-vCPU Xeon VM, so there scaled and raw
# seconds agree. The raw seconds are printed beside the scaled ones.
REFERENCE_S = 0.020

END_TO_END = [
    ("setup_s", "s"),
    ("sweep_wall_s", "s"),
    ("sweep_cpu_s", "s"),
    ("sim_s_per_wall_s", "s/s"),
    ("peak_rss_mib", "MiB"),
]

PER_LAYER = [
    "bench.traced_total_s",
    "bench.trace_overhead_pct",
    "core.dataset.build_s",
    "core.dataset.clone_s",
    "core.dataset.mib",
    "core.dataset.gets",
    "core.dataset.builds",
    "core.experiment.other_s",
    "db.select.exec_s",
    "db.select.calls",
    "db.rows_examined",
    "db.select.ns_per_row",
    "db.write.exec_s",
    "db.write.calls",
    "db.parse_calls",
    "db.plan_calls",
    "db.parse_plan_s",
    "db.stmt_cache.hit_ratio",
    "db.plan_cache.hit_ratio",
    "sim.run_s",
    "sim.events",
    "sim.nondb_s",
    "sim.nondb_ns_per_event",
    "obs.analyze_s",
]


class BenchError(Exception):
    """A failure that ends the run without a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def _nonneg_int(text):
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a whole number: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {text!r}")
    return value


def _seconds(text):
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a whole number of seconds: {text!r}") from None
    if not 1 <= value <= 600:
        raise argparse.ArgumentTypeError(f"must be between 1 and 600: {text!r}")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Host-cost benchmark of the mwsim simulator.",
        allow_abbrev=False,
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_nonneg_int, default=1,
                        help="input seed (whole number >= 0)")
    parser.add_argument("--seconds", type=_seconds, default=25,
                        help="measurement window for repeated sweeps (1-600)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer split instead of end-to-end cost")
    return parser.parse_args(argv)


def root_seed(seed):
    return 1 + seed % SEED_VARIANTS


def build():
    """Configures (once) and builds the driver; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "experiment.hpp")):
        raise BenchError(f"simulator sources not found under {ROOT}/src")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        _run_build_step(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    _run_build_step(["cmake", "--build", BUILD_DIR, "-j", jobs])


def _run_build_step(cmd):
    # Compiler temporaries go under the build tree, not the system temp dir.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            env=dict(os.environ, TMPDIR=tmp))
    if result.returncode != 0:
        raise BenchError(f"build step failed: {' '.join(cmd)}")


def run_driver(spec, seed, seconds, trace, window=WINDOW, setup_reps=SETUP_REPS,
               spans_out=None):
    """Runs the driver binary once and returns its parsed JSON document."""
    cmd = [
        DRIVER,
        "--app", spec["app"],
        "--mix", str(spec["mix"]),
        "--clients", ",".join(str(c) for c in spec["clients"]),
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--rampup-sec", str(window["rampup"]),
        "--measure-sec", str(window["measure"]),
        "--rampdown-sec", str(window["rampdown"]),
        "--setup-reps", str(setup_reps),
    ]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                                timeout=DRIVER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"driver did not finish within {DRIVER_TIMEOUT_S} s") from None
    if result.returncode != 0:
        raise BenchError(f"driver exited with code {result.returncode}")
    try:
        return json.loads(result.stdout)
    except json.JSONDecodeError as e:
        raise BenchError(f"driver printed no JSON: {e}") from None


def load_expected(workload, seed):
    """Recorded point results for the workload at this seed's variant, or None."""
    try:
        with open(EXPECTED_FILE) as f:
            table = json.load(f)
    except (OSError, json.JSONDecodeError):
        return None
    return table.get(workload, {}).get(str(root_seed(seed)))


def check_points(doc, expected):
    """Counts points and failures. A point fails if it threw, differs from the
    recorded expected result, or differs from the same point in the first
    sweep (repeated and traced sweeps must reproduce it exactly)."""
    sweeps = doc["sweeps"]
    first = sweeps[0]["points"]
    attempted = failed = 0
    for sweep in sweeps:
        for i, point in enumerate(sweep["points"]):
            attempted += 1
            ok = ("error" not in point and expected is not None and i < len(expected)
                  and point == expected[i] and point == first[i])
            if not ok:
                failed += 1
                if "error" in point:
                    log(f"point {point['config']}@{point['clients']} threw: {point['error']}")
                elif expected is not None:
                    log(f"point {point['config']}@{point['clients']} differs from the "
                        + ("first sweep" if point != first[i] else "expected result"))
    return attempted, failed


def scaled(seconds, ref_before, ref_after):
    """`seconds` at the host speed where the reference kernel takes REFERENCE_S."""
    return seconds * REFERENCE_S * 2.0 / (ref_before + ref_after)


def sweep_cost(sweeps, key, ref_key=None):
    """Seconds per sweep: each point's median over the sweeps, summed over
    the points. A slow spell of the host then moves only the points it hit.
    With `ref_key`, every point's time is first scaled by the reference
    kernel runs just before and after it."""
    points = len(sweeps[0][key])

    def cost(s, i):
        return s[key][i] if ref_key is None else scaled(s[key][i], s[ref_key][i],
                                                         s[ref_key][i + 1])

    return sum(statistics.median(cost(s, i) for s in sweeps) for i in range(points))


def setup_cost(doc, scale):
    """Median cold-build time. With `scale`, each build is first scaled by the
    reference kernel runs just before and after it."""
    builds = doc["setup_s"]
    refs = doc["setup_ref_s"]
    return statistics.median(
        scaled(t, refs[2 * k], refs[2 * k + 1]) if scale else t for k, t in enumerate(builds))


def end_to_end_metrics(doc):
    """Rows of (name, unit, value, samples, raw value or None)."""
    sweeps = doc["sweeps"]
    wall = sweep_cost(sweeps, "point_wall_s", "ref_wall_s")
    raw_wall = sweep_cost(sweeps, "point_wall_s")
    sim_s = sweeps[0]["sim_s"]
    values = {
        "setup_s": (setup_cost(doc, True), len(doc["setup_s"]), setup_cost(doc, False)),
        "sweep_wall_s": (wall, len(sweeps), raw_wall),
        "sweep_cpu_s": (sweep_cost(sweeps, "point_cpu_s", "ref_cpu_s"), len(sweeps),
                        sweep_cost(sweeps, "point_cpu_s")),
        "sim_s_per_wall_s": (sim_s / wall, len(sweeps), sim_s / raw_wall),
        "peak_rss_mib": (doc["peak_rss_kib"] / 1024.0, 1, None),
    }
    return [(name, unit) + values[name] for name, unit in END_TO_END]


def per_layer_metrics(doc):
    layers = {m["name"]: m for m in doc["layers"]}
    traced = [s for s in doc["sweeps"] if s["traced"]]
    untraced = [s for s in doc["sweeps"] if not s["traced"]]
    overhead = (sweep_cost(traced, "point_wall_s", "ref_wall_s")
                / sweep_cost(untraced, "point_wall_s", "ref_wall_s") - 1.0) * 100.0
    layers["bench.trace_overhead_pct"] = {
        "unit": "%", "value": overhead, "samples": len(traced) + len(untraced)}
    return [(name, layers[name]["unit"], layers[name]["value"], layers[name]["samples"], None)
            for name in PER_LAYER]


def main(argv):
    args = parse_args(argv)
    spec = WORKLOADS[args.workload]
    try:
        build()
        spans_out = None
        if args.trace:
            spans_out = os.path.join(BUILD_DIR, f"spans-{args.workload}-{args.seed}.tsv")
        doc = run_driver(spec, root_seed(args.seed), args.seconds, args.trace,
                         spans_out=spans_out)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1

    expected = load_expected(args.workload, args.seed)
    if expected is None:
        log(f"perfbench: no expected results for {args.workload} "
            f"at root seed {root_seed(args.seed)}")
    attempted, failed = check_points(doc, expected)
    rows = per_layer_metrics(doc) if args.trace else end_to_end_metrics(doc)

    points = len(doc["sweeps"][0]["points"])
    print(f"workload {args.workload}  seed {args.seed} (root seed {root_seed(args.seed)})  "
          f"trace {args.trace}  phases {WINDOW['rampup']}/{WINDOW['measure']}/"
          f"{WINDOW['rampdown']} s  {points} points x {len(doc['sweeps'])} sweeps")
    for name, unit, value, samples, raw in rows:
        unscaled = "" if raw is None else f"  (unscaled {raw:.6f})"
        print(f"  {name:26s} {value:16.6f} {unit:6s} n={samples}{unscaled}")
    print(f"  {'points_failed':26s} {failed / attempted:16.6f} {'share':6s} "
          f"n={attempted} ({failed} failed)")
    if args.trace and spans_out:
        print(f"  spans written to {os.path.relpath(spans_out, ROOT)}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, unit, value, _, _ in rows},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
