#!/usr/bin/env python3
"""Exact-count self-test of the benchmark.

    python3 perfbench/selftest.py

Runs each single-thread workload twice for a fixed number of ops with the same
seed and requires identical per-op counts and mm_overhead_pct. A background
thread (reclaim, pre-scrub) or an unseeded input in the measured path would
make them differ. Exit code 0 when every pair matches.
"""
import sys

import run

# Ops per phase: enough to pass every periodic event (magazine refills, lazy
# shootdown ticks) a few times, short enough to finish in seconds.
OPS = {"fault_stream": 48, "map_churn": 20000, "fork_cow": 48}
EXACT = ["pmm.frames_per_op", "pt.pages_per_op", "tlb.shootdowns_per_op"]
SEED = 20251017


def counts(binary, workload):
    code, out = run.run_binary(binary, workload, SEED, 1, True, ["--ops", str(OPS[workload])])
    if out is None or code != 0 or not out["correct"]:
        raise RuntimeError("%s: run failed (exit %d)" % (workload, code))
    values = {name: out["layer"][name] for name in EXACT}
    values["mm_overhead_pct"] = out["e2e"]["mm_overhead_pct"]
    return values


def main():
    binary = run.build()
    if binary is None:
        return 2
    ok = True
    for workload in OPS:
        first = counts(binary, workload)
        second = counts(binary, workload)
        same = first == second
        ok &= same
        print("%s %s: %s" % ("PASS" if same else "FAIL", workload,
                             first if same else "%s != %s" % (first, second)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
