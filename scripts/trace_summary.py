#!/usr/bin/env python3
"""Summarize an RCUA_TRACE Chrome-trace JSON as a per-phase time table.

Usage:
    RCUA_TRACE=trace.json ./build/bench/bench_ablation_async
    python3 scripts/trace_summary.py trace.json

The trace timestamps are *virtual* nanoseconds whenever a sim::TaskClock
was attached (bench measured regions, sched scenarios) and wall
nanoseconds otherwise, so the breakdown answers "where does the modeled
time go" — e.g. how much of a resize under a stalled reader is spent in
the drain wait vs the publish retry loop vs comm (EXPERIMENTS.md).

Span events ('B'/'E') are matched per thread/task (tid) in stack order,
like chrome://tracing does; instant events ('i') are counted. The table
reports, per event name: event count, total/mean/max span duration, and
the share of the per-tid busy time the spans account for.
"""

import argparse
import json
import sys
from collections import defaultdict


def load_events(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    if not isinstance(events, list):
        sys.exit(f"error: {path} is not a Chrome trace_event file")
    return events


def summarize(events):
    spans = defaultdict(lambda: {"count": 0, "total_us": 0.0, "max_us": 0.0})
    instants = defaultdict(int)
    stacks = defaultdict(list)  # tid -> [(name, begin_ts)]
    unmatched = 0

    for ev in events:
        ph = ev.get("ph")
        name = ev.get("name", "?")
        tid = ev.get("tid", 0)
        ts = float(ev.get("ts", 0.0))
        if ph == "B":
            stacks[tid].append((name, ts))
        elif ph == "E":
            if not stacks[tid]:
                unmatched += 1
                continue
            open_name, begin = stacks[tid].pop()
            dur = max(0.0, ts - begin)
            s = spans[open_name]
            s["count"] += 1
            s["total_us"] += dur
            s["max_us"] = max(s["max_us"], dur)
        elif ph == "i" or ph == "I":
            instants[name] += 1
    unmatched += sum(len(st) for st in stacks.values())
    return spans, instants, unmatched


def print_table(rows, headers):
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*headers))
    print(fmt.format(*("-" * w for w in widths)))
    for row in rows:
        print(fmt.format(*row))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("trace", help="Chrome trace JSON written via RCUA_TRACE")
    args = ap.parse_args()

    events = load_events(args.trace)
    spans, instants, unmatched = summarize(events)

    grand_total = sum(s["total_us"] for s in spans.values())
    if spans:
        print(f"spans ({sum(s['count'] for s in spans.values())} events):")
        rows = []
        for name in sorted(spans, key=lambda n: -spans[n]["total_us"]):
            s = spans[name]
            share = 100.0 * s["total_us"] / grand_total if grand_total else 0.0
            rows.append(
                [
                    name,
                    str(s["count"]),
                    f"{s['total_us']:.3f}",
                    f"{s['total_us'] / s['count']:.3f}",
                    f"{s['max_us']:.3f}",
                    f"{share:.1f}%",
                ]
            )
        print_table(
            rows, ["phase", "count", "total_us", "mean_us", "max_us", "share"]
        )
    else:
        print("no span events in trace")

    if instants:
        print(f"\ninstant events:")
        rows = [[n, str(instants[n])]
                for n in sorted(instants, key=lambda n: -instants[n])]
        print_table(rows, ["event", "count"])

    if unmatched:
        print(
            f"\nnote: {unmatched} unmatched begin/end event(s) — ring "
            f"overflow discarded their partners (each thread keeps its "
            f"last 8192 events; trace a shorter run)",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
