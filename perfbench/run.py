#!/usr/bin/env python3
"""Builds mm_bench from this checkout and runs one workload of the CortenMM_adv
benchmark (see README.md).

    python3 perfbench/run.py --workload fault_stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of the checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the checkout. Progress and the run context go to stderr and
stdout; the last stdout line is the result JSON. The exit code is non-zero when
any output check failed or the build failed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Simulated physical arena per workload (CORTENMM_PHYS_MB): the arena's host
# prewarm is a large part of set-up time, so each workload gets what it needs
# plus headroom above the buddy's low watermark (1/16 of the arena).
WORKLOADS = {
    "fault_stream": 64,
    "map_churn": 32,
    "fork_cow": 64,
    # Two submitters: a dead frame waits in the LATR buffers until BOTH
    # simulated CPUs tick, so a host stall of one thread parks the other's
    # frees. The larger arena absorbs stalls of ~100 ms without kNoMem.
    "ring_shared": 256,
}
NODES = "1"

# An untraced run is this many mm_bench processes, each measuring an equal
# share of --seconds and each doing its own set-up; every end-to-end metric
# is the median of the processes' figures.
PROCESSES = 5


def declared_metrics():
    """(end_to_end, per_layer) lists of (name, unit) from BENCHMARK.json."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


# Per-layer metrics read from the telemetry JSON's "phases" block (name ->
# phase); the binary's traced run gives the others.
PHASES = {
    "tlb.shootdown_wait_ns_p50": "shootdown_wait",
    "sync.cna_acquire_ns_p50": "mcs_acquire",
    "sync.rcu_traversal_ns_p50": "adv_rcu_traversal",
    "sync.subtree_lock_ns_p50": "dfs_subtree_lock",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(target), "perfbench")


def build():
    """Configures (once) and builds mm_bench; returns its path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j4", "--target", "mm_bench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=850)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "mm_bench")


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Runs mm_bench once; returns (exit code, parsed last-line JSON or None)."""
    env = dict(os.environ)
    env["CORTENMM_NODES"] = NODES
    env["CORTENMM_PHYS_MB"] = str(WORKLOADS[workload])
    env["CORTENMM_TELEMETRY_JSON"] = telemetry_path(workload)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=170)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, None


def telemetry_path(workload):
    return os.path.join(build_dir(), "telemetry_%s.json" % workload)


def phase_p50s(workload, clock_scale):
    """p50 nanoseconds per lock/shootdown phase from the run's telemetry JSON,
    rescaled from the program's TSC clock to steady_clock."""
    with open(telemetry_path(workload)) as f:
        doc = json.load(f)
    phases = doc["snapshots"][0]["phases"]
    return {name: phases.get(phase, {}).get("p50_ns", 0) * clock_scale
            for name, phase in PHASES.items()}


def run_workload(binary, workload, seed, seconds, trace):
    """Returns (result dict, exit code) for one workload."""
    if trace:
        spans = os.path.join(build_dir(), "spans_%s.bin" % workload)
        outs = [run_binary(binary, workload, seed, seconds, True, ["--spans-out", spans])]
    else:
        outs = [run_binary(binary, workload, seed, seconds / PROCESSES, False)
                for _ in range(PROCESSES)]
    if any(out is None for _, out in outs):
        return None, 1
    correct = all(code == 0 and out["correct"] for code, out in outs)
    attempted = sum(int(out["attempted"]) for _, out in outs)
    failed = sum(int(out["failed"]) for _, out in outs)
    for _, out in outs:
        ctx = dict(out["context"])
        ctx["setup_s"] = out["setup_s"]
        ctx["raw_setup_s"] = out["raw_setup_s"]
        ctx["e2e"] = out["e2e"]
        print("context: " + json.dumps(ctx, sort_keys=True))

    if trace:
        out = outs[0][1]
        values = dict(out["layer"])
        values.update(phase_p50s(workload, out["context"]["telemetry_clock_scale"]))
        units = declared_metrics()[1]
    else:
        values = {name: statistics.median(out["e2e"][name] for _, out in outs)
                  for name in ("throughput", "op_p50_us", "op_p99_us", "mm_overhead_pct")}
        values["setup_s"] = statistics.median(out["setup_s"] for _, out in outs)
        values["ok_pct"] = 100.0 * (attempted - failed) / max(attempted, 1)
        units = declared_metrics()[0]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    result = {"correct": bool(correct), "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}
    return result, 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    binary = build()
    if binary is None:
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        result, code = run_workload(binary, name, args.seed, args.seconds, args.trace == 1)
        if result is None:
            log("%s: mm_bench produced no result" % name)
            return 3
        status |= code
        if len(names) == 1:
            combined = result
            break
        print("%s: %s" % (name, json.dumps(result)))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = value
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
