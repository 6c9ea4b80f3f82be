#!/usr/bin/env python3
"""Wall-clock service benchmark of the RCUArray repository (README.md).

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
rcua library from ../src) into .bench_build/perfbench, runs one workload
with one seed, echoes the human-readable metric table, and prints as its
last line one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 its per-layer ones (the traced run also writes the RCUA_TRACE
Chrome-trace JSON to .bench_build/trace/). Example:

  python3 perfbench/run.py --workload kv-zipf --seed 1 --seconds 45 --trace 0
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["kv-zipf", "elastic-grow", "migrate-rmw"]

# A run after the first finds the build up to date; the whole run must
# end within 180 s.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(bench_dir, build_dir):
    if not os.path.isfile(os.path.join(bench_dir, "..", "src", "CMakeLists.txt")):
        fail("the library sources (src/ beside perfbench/) are missing")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", bench_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--drop-one-write", action="store_true",
                    help="detector self-check: skip one of the benchmark's "
                         "own writes; verification must report 1 failed op")
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    try:
        build(bench_dir, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    # The library reads RCUA_* tuning knobs from the environment; the
    # benchmark runs the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RCUA_")}
    if args.trace:
        trace_dir = os.path.join(root, ".bench_build", "trace")
        os.makedirs(trace_dir, exist_ok=True)
        env["RCUA_TRACE"] = os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")
    cmd = [os.path.join(build_dir, "service_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.drop_one_write:
        cmd.append("--drop-one-write")
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"service_bench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("service_bench printed no result line")

    # BENCHMARK.json names the tracked metrics: every workload measures
    # them. The workload-specific ones stay in the table above the JSON.
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    metrics = result["metrics"]
    missing = [n for n in names if n not in metrics]
    if missing:
        fail(f"missing metrics: {', '.join(missing)}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: metrics[n] for n in names},
    }))


if __name__ == "__main__":
    main()
