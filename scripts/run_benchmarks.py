#!/usr/bin/env python3
"""Run the benchmark suite and emit one reproducible BENCH_<timestamp>.json.

Each bench binary prints an aligned table for humans, a `csv:` block for
tools, and (for the EBR-policy arrays) machine-readable `bench_stat`
lines carrying the reclaimer counters (reads / retries / epoch_advances).
This script runs a configurable set of binaries, parses all three, adds the
google-benchmark micro suite in native JSON, and writes everything plus
run metadata (git revision, host, RCUA_* environment) to one JSON file.

Usage:
    python3 scripts/run_benchmarks.py --build-dir build [--out DIR]
        [--label NAME] [--smoke] [--benches a,b,c]

`--smoke` shrinks the workload via RCUA_* env so the whole suite finishes
in well under a minute — the CI artifact mode. The `bench-json` CMake
target invokes exactly that.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time

# Default suite: the stripes ablation, the reclaim shoot-out (striped vs
# legacy vs every baseline), one Figure-2 cell, and the aggregation,
# async-pipelining, and block-cache ablations (their comm_stat counters
# feed scripts/check_bench_gate.py).
DEFAULT_BENCHES = [
    "bench_ablation_ebr_stripes",
    "bench_ablation_reclaim",
    "bench_ablation_reclaim_bakeoff",
    "bench_fig2a_random_small",
    "bench_ablation_aggregation",
    "bench_ablation_async",
    "bench_ablation_cache",
    "bench_ablation_sharding",
]
MICRO_BENCH = "bench_micro_primitives"

SMOKE_ENV = {
    "RCUA_LOCALES": "2,4",
    "RCUA_TASKS_PER_LOCALE": "4",
    "RCUA_OPS_PER_TASK": "256",
    "RCUA_ARRAY_ELEMS": str(1 << 14),
    "RCUA_THREADS": "1,2,4,8",
}

BENCH_STAT_RE = re.compile(
    r"^bench_stat\s+impl=(?P<impl>\S+)\s+locales=(?P<locales>\d+)\s+"
    r"reads=(?P<reads>\d+)\s+retries=(?P<retries>\d+)\s+"
    r"epoch_advances=(?P<epoch_advances>\d+)\s*$"
)

# Deterministic communication counters (bench_ablation_aggregation and
# friends): `comm_stat key=value key=value ...`. Numeric values become
# ints; everything else stays a string. These feed the CI regression
# gate (scripts/check_bench_gate.py).
COMM_STAT_RE = re.compile(r"^comm_stat\s+(?P<kv>(?:\S+=\S+\s*)+)$")

# Observability stats: per-op virtual-time latency percentiles and other
# registry-derived metrics, `obs_stat key=value ...`. Entries carry a
# det=0/1 flag: det=1 means the values are a deterministic function of
# the workload (pure per-task virtual-time charges) and are exact-match
# gated by scripts/check_bench_gate.py; det=0 entries are recorded for
# the artifact but not gated (their virtual times depend on real-thread
# arrival order at shared VirtualResources).
OBS_STAT_RE = re.compile(r"^obs_stat\s+(?P<kv>(?:\S+=\S+\s*)+)$")


def _parse_kv(kv_text):
    entry = {}
    for pair in kv_text.split():
        k, _, v = pair.partition("=")
        entry[k] = int(v) if v.isdigit() else v
    return entry


def parse_bench_output(text):
    """Extracts csv blocks, bench_stat/comm_stat/obs_stat lines."""
    lines = text.splitlines()
    tables = []
    stats = []
    comm_stats = []
    obs_stats = []
    i = 0
    while i < len(lines):
        line = lines[i]
        m = BENCH_STAT_RE.match(line)
        if m:
            d = m.groupdict()
            stats.append(
                {
                    "impl": d["impl"],
                    "locales": int(d["locales"]),
                    "reads": int(d["reads"]),
                    "retries": int(d["retries"]),
                    "epoch_advances": int(d["epoch_advances"]),
                }
            )
        m = COMM_STAT_RE.match(line)
        if m:
            comm_stats.append(_parse_kv(m.group("kv")))
        m = OBS_STAT_RE.match(line)
        if m:
            obs_stats.append(_parse_kv(m.group("kv")))
        if line.strip() == "csv:" and i + 1 < len(lines):
            header = lines[i + 1].split(",")
            rows = []
            j = i + 2
            while j < len(lines) and "," in lines[j]:
                rows.append(lines[j].split(","))
                j += 1
            tables.append({"header": header, "rows": rows})
            i = j
            continue
        i += 1
    return tables, stats, comm_stats, obs_stats


def run_binary(path, env, extra_args=None, timeout=1800):
    proc = subprocess.run(
        [path] + (extra_args or []),
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def git_rev(repo_root):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--out", default=".", help="directory for the JSON file")
    ap.add_argument("--label", default="", help="free-form tag stored in meta")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny workloads (CI artifact mode)")
    ap.add_argument("--benches", default="",
                    help="comma list overriding the default bench set")
    ap.add_argument("--skip-micro", action="store_true",
                    help="skip the google-benchmark micro suite")
    args = ap.parse_args()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bench_dir = os.path.join(args.build_dir, "bench")
    if not os.path.isdir(bench_dir):
        sys.exit(f"error: {bench_dir} not found — build the project first")

    env = dict(os.environ)
    if args.smoke:
        for k, v in SMOKE_ENV.items():
            env.setdefault(k, v)

    benches = [b for b in args.benches.split(",") if b] or DEFAULT_BENCHES

    # A missing binary is a hard error, not a skip: a silently skipped
    # bench drops its counters from the JSON, and the downstream gate
    # would report every one of them as "present in baseline, not run
    # now" — fail here with the actionable message instead.
    missing = [
        name
        for name in benches
        if not os.path.isfile(os.path.join(bench_dir, name))
    ]
    if missing:
        sys.exit(
            f"error: bench binar{'y' if len(missing) == 1 else 'ies'} not "
            f"built: {', '.join(missing)} — run "
            f"`cmake --build {args.build_dir}` (with the bench targets "
            f"enabled) before invoking run_benchmarks.py"
        )

    results = {}
    for name in benches:
        path = os.path.join(bench_dir, name)
        print(f"[bench-json] running {name} ...")
        started = time.time()
        code, out, err = run_binary(path, env)
        tables, stats, comm_stats, obs_stats = parse_bench_output(out)
        results[name] = {
            "returncode": code,
            "elapsed_s": round(time.time() - started, 3),
            "tables": tables,
            "bench_stats": stats,
            "comm_stats": comm_stats,
            "obs_stats": obs_stats,
        }
        if code != 0:
            results[name]["stderr"] = err[-4000:]
            print(f"[bench-json] {name} FAILED (rc={code})", file=sys.stderr)

    micro = None
    if not args.skip_micro:
        micro_path = os.path.join(bench_dir, MICRO_BENCH)
        if os.path.isfile(micro_path):
            print(f"[bench-json] running {MICRO_BENCH} ...")
            micro_args = ["--benchmark_format=json"]
            if args.smoke:
                micro_args.append("--benchmark_min_time=0.01s")
            code, out, err = run_binary(micro_path, env, micro_args)
            if code != 0 and args.smoke:
                # google-benchmark < 1.8 rejects the unit suffix and takes
                # the minimum time as a plain number of seconds.
                micro_args[-1] = "--benchmark_min_time=0.01"
                code, out, err = run_binary(micro_path, env, micro_args)
            try:
                micro = json.loads(out)
            except json.JSONDecodeError:
                micro = {"error": "unparseable output", "returncode": code}

    doc = {
        "meta": {
            "timestamp": time.strftime("%Y%m%dT%H%M%S"),
            "label": args.label,
            "smoke": args.smoke,
            "git_rev": git_rev(repo_root),
            "host": platform.node(),
            "machine": platform.machine(),
            "system": platform.platform(),
            "cpus": os.cpu_count(),
            "env": {k: v for k, v in env.items() if k.startswith("RCUA_")},
        },
        "results": results,
        "micro": micro,
    }

    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(
        args.out, f"BENCH_{doc['meta']['timestamp']}.json"
    )
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"[bench-json] wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
