#!/usr/bin/env python3
"""Self-test of the benchmark at reduced N.

    python3 perfbench/selftest.py

Builds the benchmark the way run.py does, then runs every workload named
in BENCHMARK.json at --small scale, untraced and traced. Each run must
exit 0, report correct with no failed operation, and print exactly the
metrics BENCHMARK.json names, each with its unit. The single-client
workloads then run once more per mode with the same seed, and their
simulated-seconds metrics and counts must repeat exactly. Exits 0 when
all of that holds.
"""

import json
import os
import subprocess
import sys

import run

SEED = 5
# Simulated or counted metrics: they repeat exactly for a seed. Every
# metric named *_per_query is counted too.
DETERMINISTIC = {
    "knn_io_s", "range_io_s", "space_amp", "fractal.df", "core.pages",
    "core.exact_page_frac", "costmodel.pred_io_s", "costmodel.pred_over_obs",
    "io.blocks_written_per_insert", "scan.io_s", "vafile.io_s",
}
REPEATABLE = {"cad-knn", "uniform-mixed"}


def run_once(workload, trace):
    proc = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def deterministic_values(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if name in DETERMINISTIC or name.endswith("_per_query")}


def main():
    if not run.build():
        return 2
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    tables = {0: spec["end_to_end"], 1: spec["per_layer"]}
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            where = "%s --trace %d" % (workload, trace)
            code, result, output = run_once(workload, trace)
            if (code != 0 or result is None or not result["correct"]
                    or result["failed"] != 0 or result["attempted"] < 1):
                errors.append("%s: exit %d\n%s" % (where, code, output))
                continue
            expected = {m["name"]: m["unit"] for m in tables[trace]}
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            if printed != expected:
                errors.append("%s: printed metrics differ from "
                              "BENCHMARK.json: %s" %
                              (where, sorted(set(printed.items()) ^
                                             set(expected.items()))))
            if workload in REPEATABLE:
                code, again, output = run_once(workload, trace)
                if again is None or (deterministic_values(again) !=
                                     deterministic_values(result)):
                    errors.append("%s: simulated costs or counts changed "
                                  "between two runs of one seed\n%s" %
                                  (where, output))
            print("ok   " + where, flush=True)
    for e in errors:
        print("FAIL " + e)
    print("selftest: %s" % ("passed" if not errors else
                            "%d failures" % len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
