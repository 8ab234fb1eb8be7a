#!/usr/bin/env python3
"""Records perfbench/expected.json: every point's simulated results for each
workload at each input variant (root seeds 1..SEED_VARIANTS).

Run it from the repository root only when a change is meant to move
simulated results (and say so in the change):

    python3 perfbench/record_expected.py

Each workload and variant is one sweep; the whole table takes a few minutes.
"""

import argparse
import json
import os
import sys

import run


def main(argv):
    argparse.ArgumentParser(prog="perfbench/record_expected.py",
                            allow_abbrev=False).parse_args(argv)
    table = {}
    try:
        run.build()
        for name in sorted(run.WORKLOADS):
            table[name] = {}
            for variant in range(run.SEED_VARIANTS):
                seed = run.root_seed(variant)
                doc = run.run_driver(run.WORKLOADS[name], seed, seconds=0.001, trace=0,
                                     setup_reps=1)
                points = doc["sweeps"][0]["points"]
                errors = [p for p in points if "error" in p]
                if errors:
                    raise run.BenchError(f"{name} root seed {seed}: {errors[0]}")
                table[name][str(seed)] = points
                run.log(f"recorded {name} root seed {seed}")
    except run.BenchError as e:
        run.log(f"record_expected: {e}")
        return 1
    tmp = run.EXPECTED_FILE + ".tmp"
    with open(tmp, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, run.EXPECTED_FILE)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
