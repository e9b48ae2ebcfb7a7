#!/usr/bin/env bash
# A/A check: do two sets of runs of the SAME build agree within the
# benchmark's own bounds? Two sets of three ledger runs (all workloads,
# both passes); per end-to-end metric x workload the set medians are
# compared against the metric's bound in ../BENCHMARK.json. The latency
# percentiles and the ledger-only workloads are not gated there: they are
# compared against the issue's 10 % and printed ("wide" when apart by
# more), but only a gated pair is an offender. Counts that must repeat
# exactly (schedule shape, allocations on the single-thread workloads)
# are compared run by run. Prints offenders, writes out/aa.json, exits
# nonzero if there is one.
#
#   perf/aa.sh [seed]        # about 12 minutes on a 2-hw-thread box
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
seed=${1:-1}
out="$here/out/aa"
mkdir -p "$out"

cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/perf"
for run in a1 a2 a3 b1 b2 b3; do
    echo "aa: run $run"
    "$bin" --seed "$seed" --out "$out/$run" > "$out/$run.log"
done

python3 - "$here" "$seed" <<'EOF'
import json, statistics, sys
here, seed = sys.argv[1], int(sys.argv[2])
contract = json.load(open(f"{here}/../BENCHMARK.json"))
gated = {w["name"] for w in contract["workloads"]}
bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
UNGATED_BOUND = 0.10
runs = {r: json.load(open(f"{here}/out/aa/{r}/BENCH_perf.json"))
        for r in ("a1", "a2", "a3", "b1", "b2", "b3")}

def values(run, workload, section, name):
    for w in runs[run]["workloads"]:
        if w["name"] == workload:
            return [m["value"] for m in w[section] if m["name"] == name]
    return []

def median(runs_, *key):
    return statistics.median(v for r in runs_ for v in values(r, *key))

rows, offenders = [], []
for w in runs["a1"]["workloads"]:
    for name in [m["name"] for m in w["end_to_end"]]:
        key = (w["name"], "end_to_end", name)
        a, b = median(("a1", "a2", "a3"), *key), median(("b1", "b2", "b3"), *key)
        apart = abs(b - a) / min(a, b)
        bound = bounds.get(name, UNGATED_BOUND)
        row = {"workload": w["name"], "metric": name, "a": a, "b": b,
               "apart": apart, "bound": bound,
               "gated": w["name"] in gated and name in bounds,
               "ok": apart <= bound}
        rows.append(row)
        if row["gated"] and not row["ok"]:
            offenders.append(row)

# Counts that repeat exactly on the workloads whose engine runs on one
# thread: a change here means the schedule or the allocation pattern
# changed, not the host.
exact = ("engine.active_rounds", "engine.peak_queue",
         "alloc.count_per_kflow", "alloc.bytes_per_flow")
threaded = ("trace-replay-pipelined", "serve-socket")
for w in runs["a1"]["workloads"]:
    if w["name"] in threaded:
        continue
    for name in exact:
        seen = {v for r in runs for v in values(r, w["name"], "per_layer", name)}
        if len(seen) != 1:
            offenders.append({"workload": w["name"], "metric": name,
                              "values": sorted(seen), "exact": True})

for row in rows:
    mark = "ok  " if row["ok"] else ("FAIL" if row["gated"] else "wide")
    print(f"{mark} {row['workload']:28s} {row['metric']:18s} "
          f"A {row['a']:14.4f}  B {row['b']:14.4f}  apart {row['apart']*100:5.1f}%"
          f"  bound {row['bound']*100:.0f}%")
json.dump({"seed": seed, "rows": rows, "offenders": offenders},
          open(f"{here}/out/aa.json", "w"), indent=1)
if offenders:
    print(f"\naa: {len(offenders)} offender(s):")
    for o in offenders:
        print("   ", o)
    sys.exit(1)
print("\naa: the two sets agree within every bound")
EOF
