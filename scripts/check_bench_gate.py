#!/usr/bin/env python3
"""Gate CI on the deterministic counters in a BENCH_<timestamp>.json.

The simulated cluster makes communication volume a *deterministic*
function of the workload: for a fixed RCUA_* environment, the comm_stat
counters (gets / puts / remote executes) and the bench_stat `reads`
totals must be bit-identical run to run, on any machine. This script
compares a fresh bench-json artifact against the committed baseline
(bench/baselines/smoke.json) and fails on any drift in those counters —
a changed GET count is a protocol change, intended or not, and must be
acknowledged by refreshing the baseline in the same commit.

Genuinely nondeterministic signals are not load-bearing:
  - EBR read retries depend on thread interleaving; they only fail the
    gate on a blow-up (>10x baseline and >1000 absolute), which in
    practice means a read-side livelock regression, not scheduler noise.
  - epoch advances and wall/elapsed times are reported but never fatal.

Usage:
    python3 scripts/check_bench_gate.py \
        --baseline bench/baselines/smoke.json \
        --current build/BENCH_*.json

Refresh the baseline after an intended protocol change with:
    cmake --build build --target bench-json
    cp build/BENCH_<timestamp>.json bench/baselines/smoke.json
"""

import argparse
import difflib
import glob
import json
import sys

# comm_stat fields that are pure outcomes; everything else in the entry
# (skew, impl, cap, window, elems, ...) identifies the configuration.
# The async counters (bench_ablation_async) are deterministic too: the
# simulated cluster issues, completes, and windows ops as a pure function
# of the workload — and so are the block-cache counters
# (bench_ablation_cache runs one task per locale, making hit/miss/fill/
# eviction sequences single-consumer per locale). Entries from benches
# that predate a counter simply omit the key on both sides and compare
# equal.
# The reclamation bake-off counters (bench_ablation_reclaim_bakeoff)
# come from a single-locale, single-worker train against one parked
# reader, so retire/free/era-advance sequences are exact: pending_end is
# the measured bounded-memory claim (constant for ibr/he, train-length
# for ebr/legacy/qsbr) and pending_after_flush must be 0.
COMM_COUNTERS = ("gets", "puts", "executes",
                 "issued", "completed", "max_inflight",
                 "hits", "misses", "fills", "evictions",
                 "retired", "freed", "era_advances", "era_scans",
                 "stalled_spines", "defers",
                 "pending_end", "pending_after_flush",
                 # Sharded service layer (bench_ablation_sharding):
                 # routing is block-cyclic arithmetic plus a load of the
                 # target shard's home (routed_remote counts ops whose
                 # shard's blocks are off the calling locale; no map
                 # read), and migration traffic is a pure function of
                 # the block layout, so all of these are exact-match.
                 "routed", "routed_remote", "remaps",
                 "migrations", "migrated_blocks")

RETRY_FACTOR = 10
RETRY_SLACK = 1000

# obs_stat fields that are pure outcomes; everything else (bench, impl,
# skew, det, ...) identifies the configuration. Virtual-time latency
# percentiles are exact-match gated — but ONLY for entries flagged
# det=1: an impl whose per-op virtual times go through a shared
# sim::VirtualResource (EBR slot lines and friends) depends on
# real-thread arrival order and is recorded without gating.
OBS_COUNTERS = ("n", "p50_ns", "p99_ns", "p999_ns")


def load(path):
    with open(path) as f:
        return json.load(f)


def comm_key(entry):
    return tuple(
        sorted((k, v) for k, v in entry.items() if k not in COMM_COUNTERS)
    )


def render_comm_lines(bench, entries):
    """Canonical one-counter-per-line rendering of a bench's gated
    comm_stat counters, for the unified diff shown on drift."""
    lines = []
    for entry in sorted(entries, key=comm_key):
        label = " ".join(f"{k}={v}" for k, v in comm_key(entry))
        for counter in COMM_COUNTERS:
            if counter in entry:
                lines.append(f"{bench} [{label}] {counter}={entry[counter]}")
    return lines


def check_comm_stats(bench, base, cur, failures):
    base_by_key = {comm_key(e): e for e in base}
    cur_by_key = {comm_key(e): e for e in cur}
    for key, b in base_by_key.items():
        c = cur_by_key.get(key)
        label = " ".join(f"{k}={v}" for k, v in key)
        if c is None:
            failures.append(
                f"{bench}: config [{label}] present in baseline but "
                f"missing from the current run (workload or env changed?)"
            )
            continue
        for counter in COMM_COUNTERS:
            if b.get(counter) != c.get(counter):
                failures.append(
                    f"{bench}: [{label}] {counter} changed "
                    f"{b.get(counter)} -> {c.get(counter)}"
                )
    for key in cur_by_key.keys() - base_by_key.keys():
        label = " ".join(f"{k}={v}" for k, v in key)
        failures.append(
            f"{bench}: config [{label}] in the current run has no "
            f"baseline entry (new config? refresh the baseline)"
        )


def obs_key(entry):
    return tuple(
        sorted((k, v) for k, v in entry.items() if k not in OBS_COUNTERS)
    )


def check_obs_stats(bench, base, cur, failures):
    base_by_key = {obs_key(e): e for e in base}
    cur_by_key = {obs_key(e): e for e in cur}
    for key, b in base_by_key.items():
        c = cur_by_key.get(key)
        label = " ".join(f"{k}={v}" for k, v in key)
        if c is None:
            failures.append(
                f"{bench}: obs config [{label}] present in baseline but "
                f"missing from the current run"
            )
            continue
        if b.get("det") != 1:
            continue  # recorded for the artifact, not gated
        for counter in OBS_COUNTERS:
            if b.get(counter) != c.get(counter):
                failures.append(
                    f"{bench}: [{label}] {counter} changed "
                    f"{b.get(counter)} -> {c.get(counter)} (virtual-time "
                    f"percentiles are deterministic for det=1 entries)"
                )
    for key in cur_by_key.keys() - base_by_key.keys():
        label = " ".join(f"{k}={v}" for k, v in key)
        failures.append(
            f"{bench}: obs config [{label}] in the current run has no "
            f"baseline entry (new config? refresh the baseline)"
        )


def check_bench_stats(bench, base, cur, failures, warnings):
    base_by_key = {(e["impl"], e["locales"]): e for e in base}
    cur_by_key = {(e["impl"], e["locales"]): e for e in cur}
    for key, b in base_by_key.items():
        c = cur_by_key.get(key)
        impl, locales = key
        label = f"impl={impl} locales={locales}"
        if c is None:
            failures.append(
                f"{bench}: bench_stat [{label}] missing from current run"
            )
            continue
        if b["reads"] != c["reads"]:
            failures.append(
                f"{bench}: [{label}] reads changed "
                f"{b['reads']} -> {c['reads']} (workload drift)"
            )
        limit = max(b["retries"] * RETRY_FACTOR, b["retries"] + RETRY_SLACK)
        if c["retries"] > limit:
            failures.append(
                f"{bench}: [{label}] read retries blew up "
                f"{b['retries']} -> {c['retries']} (limit {limit})"
            )
        if b["epoch_advances"] != c["epoch_advances"]:
            warnings.append(
                f"{bench}: [{label}] epoch_advances "
                f"{b['epoch_advances']} -> {c['epoch_advances']} "
                f"(nondeterministic; informational)"
            )


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--baseline", required=True)
    ap.add_argument(
        "--current",
        nargs="+",
        required=True,
        help="BENCH json path(s)/glob; the lexically newest match is used",
    )
    args = ap.parse_args()

    candidates = []
    for pat in args.current:
        candidates.extend(glob.glob(pat) or [pat])
    candidates = sorted(set(candidates))
    if not candidates:
        sys.exit("error: --current matched no files")
    current_path = candidates[-1]

    baseline = load(args.baseline)
    current = load(current_path)
    print(f"[bench-gate] baseline {args.baseline} "
          f"(rev {baseline['meta'].get('git_rev', '?')[:12]})")
    print(f"[bench-gate] current  {current_path} "
          f"(rev {current['meta'].get('git_rev', '?')[:12]})")

    base_env = baseline["meta"].get("env", {})
    cur_env = current["meta"].get("env", {})
    if base_env != cur_env:
        print(
            f"[bench-gate] WARNING: RCUA_* env differs from baseline\n"
            f"  baseline: {base_env}\n  current:  {cur_env}\n"
            f"  counter mismatches below may just reflect that.",
            file=sys.stderr,
        )

    failures = []
    warnings = []
    base_diff_lines = []
    cur_diff_lines = []
    for bench, b in baseline.get("results", {}).items():
        if "error" in b:
            continue
        c = current.get("results", {}).get(bench)
        if c is None:
            failures.append(f"{bench}: present in baseline, not run now")
            continue
        if c.get("returncode", 0) != 0:
            failures.append(
                f"{bench}: exited with rc={c.get('returncode')}"
            )
            continue
        n_before = len(failures)
        check_comm_stats(
            bench, b.get("comm_stats") or [], c.get("comm_stats") or [],
            failures,
        )
        if len(failures) > n_before:
            # Only drifted benches enter the diff — it stays readable
            # when one counter moves in a 7-bench artifact.
            base_diff_lines += render_comm_lines(bench,
                                                 b.get("comm_stats") or [])
            cur_diff_lines += render_comm_lines(bench,
                                                c.get("comm_stats") or [])
        check_obs_stats(
            bench, b.get("obs_stats") or [], c.get("obs_stats") or [],
            failures,
        )
        check_bench_stats(
            bench, b.get("bench_stats") or [], c.get("bench_stats") or [],
            failures, warnings,
        )
        be, ce = b.get("elapsed_s"), c.get("elapsed_s")
        if be and ce and ce > 3 * be:
            warnings.append(
                f"{bench}: elapsed {be}s -> {ce}s (wall time is "
                f"machine-dependent; never fatal)"
            )

    for w in warnings:
        print(f"[bench-gate] note: {w}")
    if failures:
        print(f"[bench-gate] FAIL: {len(failures)} deterministic "
              f"counter regression(s):", file=sys.stderr)
        for f_ in failures:
            print(f"  - {f_}", file=sys.stderr)
        diff = list(difflib.unified_diff(
            base_diff_lines, cur_diff_lines,
            fromfile=f"baseline ({args.baseline})",
            tofile=f"current ({current_path})",
            lineterm="",
        ))
        if diff:
            print("\nunified diff of the drifted benches' gated "
                  "counters:", file=sys.stderr)
            for line in diff:
                print(line, file=sys.stderr)
        print(
            "\nIf the change is intentional, refresh the baseline:\n"
            "  cmake --build build --target bench-json\n"
            "  cp build/BENCH_<timestamp>.json bench/baselines/smoke.json",
            file=sys.stderr,
        )
        return 1
    print("[bench-gate] OK: all deterministic counters match the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
