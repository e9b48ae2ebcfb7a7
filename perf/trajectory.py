#!/usr/bin/env python3
"""Print one TRAJECTORY.md row per workload from a ledger.

    python3 perf/trajectory.py "PR 11" [perf/out/BENCH_perf.json] >> perf/TRAJECTORY.md
"""
import json
import os
import sys

label = sys.argv[1]
here = os.path.dirname(os.path.abspath(__file__))
path = sys.argv[2] if len(sys.argv) > 2 else os.path.join(here, "out", "BENCH_perf.json")
ledger = json.load(open(path))
harness = {m["name"]: m for m in ledger["harness"]}
kernel = harness["harness.ref_kernel_ms"]
for w in ledger["workloads"]:
    m = {x["name"]: x for x in w["end_to_end"] + w["per_layer"]}
    # The latency percentiles: dispatch_* on serve-socket, round_* elsewhere.
    p50 = m.get("round_p50_us") or m["dispatch_p50_us"]
    p99 = m.get("round_p99_us") or m["dispatch_p99_us"]
    cells = [
        label,
        ledger["fingerprint"]["git_commit"],
        str(ledger["seed"]),
        w["name"],
        f"{m['flows_per_s']['value']:.4g} (±{m['flows_per_s']['iqr_share'] * 50:.0f}%)",
        f"{p50['value']:.4g}",
        f"{p99['value']:.4g}",
        f"{m['peak_heap_mb']['value']:.3f}",
        f"{m['setup_s']['value']:.3f}",
        f"{m['engine.match_repair_share']['value']:.2f}",
        f"{w['failed_share']:g}",
        f"{kernel['value']:.1f} (±{kernel['iqr_share'] * 50:.0f}%)",
    ]
    print("| " + " | ".join(cells) + " |")
