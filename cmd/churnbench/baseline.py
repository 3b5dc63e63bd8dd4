"""Records the churnbench baseline: two sets of untraced runs per workload,
each run with its own seed, and one traced run per workload.

Run it from the repository root; it prints the record as JSON:

    python3 cmd/churnbench/baseline.py > cmd/churnbench/baseline.json

Quartiles are statistics.quantiles(n=4); a metric's spread is the distance
between its quartiles over its median, and its shift is the second set's
median over the first's, minus 1. The exit status is 1 when a run failed.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

WORKLOADS = ["flood-1m", "traffic-burst64", "expansion-window", "serve-1m"]
SECONDS = json.load(open("BENCHMARK.json"))["run_seconds"]
RUNS = 10
SET_SEEDS = [1000, 2000]
TRACED_SEED = 3000


def run(workload, seed, trace):
    t0 = time.time()
    p = subprocess.run(["sh", "cmd/churnbench/run.sh", "--workload", workload, "--seed", str(seed),
                        "--seconds", str(SECONDS), "--trace", str(trace)], capture_output=True, text=True)
    wall = time.time() - t0
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if p.returncode in (0, 1) and lines else {"correct": False}
    ok = p.returncode == 0 and result["correct"] and result["failed"] == 0
    print(f"{workload} seed {seed} trace {trace}: exit {p.returncode}, {wall:.1f} s", file=sys.stderr)
    if not ok:
        print(p.stdout + p.stderr, file=sys.stderr)
    return ok, wall, result


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med}


def one_set(first_seed):
    out, ok = {}, True
    for w in WORKLOADS:
        runs = [run(w, first_seed + i, 0) for i in range(RUNS)]
        ok = ok and all(r[0] for r in runs)
        metrics = {m: quartiles([r[2]["metrics"][m]["value"] for r in runs]) for m in runs[0][2]["metrics"]}
        out[w] = {"seeds": f"{first_seed}-{first_seed + RUNS - 1}", "wall_s_median": statistics.median(r[1] for r in runs),
                  "metrics": metrics}
    return ok, out


def main():
    sets = [one_set(s) for s in SET_SEEDS]
    ok = all(s[0] for s in sets)
    a, b = sets[0][1], sets[1][1]
    shift = {w: {m: b[w]["metrics"][m]["median"] / a[w]["metrics"][m]["median"] - 1 for m in a[w]["metrics"]} for w in a}
    traced = {}
    for w in WORKLOADS:
        t_ok, wall, result = run(w, TRACED_SEED, 1)
        ok = ok and t_ok
        traced[w] = {"seed": TRACED_SEED, "wall_s": wall, "metrics": {m: v["value"] for m, v in result["metrics"].items()}}
    cpu = [l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo") if l.startswith("model name")][:1] if os.path.exists("/proc/cpuinfo") else []
    machine = {"cpu": cpu[0] if cpu else platform.processor(), "nproc": os.cpu_count(),
               "gomaxprocs": 2, "go": subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()}
    json.dump({"seconds": SECONDS, "runs_per_set": RUNS, "machine": machine, "untraced": [a, b], "median_shift": shift,
               "traced": traced}, sys.stdout, indent=1)
    print()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
