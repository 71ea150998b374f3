#!/usr/bin/env python3
"""Checks that the benchmark's exact-count fingerprint repeats.

    python3 perfbench/selftest.py [--seed N]

For every workload it runs the benchmark twice with the same seed and once
traced, and requires identical fingerprints (nodes, leaves, record pages,
candidates, comparisons, kernel calls, early abandons, page writes and plan
labels of the first operations), correct outputs, and a different fingerprint
under another seed wherever the seed draws the operations (the fig7-join
market and its one join are the same for every seed). Runs are one second
long; the whole check takes a few minutes.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ["fig5-range", "fig5-batch64", "fig7-join", "mixed-rw"]
SEED_FREE = {"fig7-join"}


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, check=True).stdout.decode()
    lines = out.strip().split("\n")
    result = json.loads(lines[-1])
    details = json.loads(lines[-2])["details"]
    return result["correct"], details["fingerprint"]


def main(argv):
    seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else 1
    ok = True
    for workload in WORKLOADS:
        runs = [run(workload, seed, 0), run(workload, seed, 0),
                run(workload, seed, 1)]
        other = run(workload, seed + 1, 0)
        prints = {fingerprint for _, fingerprint in runs}
        good = (all(correct for correct, _ in runs + [other])
                and len(prints) == 1
                and (workload in SEED_FREE) == (other[1] in prints))
        print("%-14s %s  fingerprint %s, seed %d: %s" %
              (workload, "ok  " if good else "FAIL", runs[0][1], seed + 1,
               other[1]))
        ok = ok and good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
