#!/usr/bin/env python3
"""Count metrics of the LMS benchmark must repeat exactly for one seed.

    python3 lmsbench/test_counts.py     # from the root of a checkout

Runs each workload twice with the same seed for one second and compares the
counts the benchmark reports: allocations per line, point and query (traced
run), samples examined per result row (traced run) and heap bytes per stored
sample (untraced run). Exits non-zero on any difference.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7
TRACED_COUNTS = ["lineproto.allocs_per_line", "tsdb.allocs_per_pt",
                 "tsdb.allocs_per_query", "tsdb.samples_per_row"]


def metrics(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("%s --trace %d: output check failed" % (workload, trace))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    failures = []
    cases = [(w, 1, TRACED_COUNTS) for w in ("ingest", "dashboard")]
    cases += [(w, 0, ["mem_bytes_per_sample"]) for w in ("ingest", "dashboard")]
    for workload, trace, names in cases:
        first, second = metrics(workload, trace), metrics(workload, trace)
        for name in names:
            verdict = "ok" if first[name] == second[name] else "DIFFERS"
            print("%-10s %-28s %r %r %s" % (workload, name, first[name], second[name], verdict))
            if first[name] != second[name]:
                failures.append((workload, name))
    if failures:
        print("count metrics that did not repeat: %s" % failures)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
