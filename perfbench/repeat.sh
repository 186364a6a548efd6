#!/usr/bin/env bash
# Checks that a workload's modeled metrics, traffic census, swdnn plan
# counts, plan decisions and loss_final repeat bit-exactly across two
# runs at one seed (untraced and traced), and that a second seed also
# passes every correctness check. Run from the repository root:
#
#   bash perfbench/repeat.sh paper-p1024 7 [seconds]
#
# Exits non-zero on any difference or failed check.
set -euo pipefail
workload=$1
seed=$2
seconds=${3:-10}
root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/perfbench/repeat"
rm -rf "$out"
mkdir -p "$out"

run() { # tag seed trace
	bash "$bench/run.sh" --workload "$workload" --seed "$2" --seconds "$seconds" --trace "$3" \
		--out "$out/$1" | tail -n 1 >"$out/$1.json"
}
run a "$seed" 0
run b "$seed" 0
run ta "$seed" 1
run tb "$seed" 1
run other "$((seed + 1))" 0

python3 - "$out" "$workload" "$seed" <<'EOF'
import json, os, sys
out, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])

def record(tag, s, trace):
    with open(os.path.join(out, tag, f"{workload}-seed{s}-trace{trace}", "record.json")) as f:
        return json.load(f)

# Values that must repeat bit-exactly at a fixed seed.
REC_KEYS = ["fixed_step", "fixed_loss_bits", "fixed_modeled", "plan_misses_setup",
            "strategy", "selector_pick", "bucket_bytes", "stripes", "io_readers", "io_bytes"]
EXACT_COUNTS = {"simnet.msgs", "simnet.cross_msgs", "simnet.cross_mb", "collective.buckets",
                "swnode.launches", "swdnn.plan_misses", "pario.stripes"}

bad = []
for tag, s, trace in [("a", seed, 0), ("b", seed, 0), ("ta", seed, 1), ("tb", seed, 1), ("other", seed + 1, 0)]:
    res = record(tag, s, trace)["result"]
    if not res["correct"] or res["failed"]:
        bad.append(f"{tag}: correct={res['correct']} failed={res['failed']}/{res['attempted']}: {record(tag, s, trace)['problems']}")

a, b = record("a", seed, 0), record("b", seed, 0)
for k in REC_KEYS:
    if a.get(k) != b.get(k):
        bad.append(f"untraced {k}: {a.get(k)} != {b.get(k)}")
for k in ("modeled_step_us", "loss_final"):
    va, vb = a["result"]["metrics"][k]["value"], b["result"]["metrics"][k]["value"]
    if va != vb:
        bad.append(f"untraced {k}: {va!r} != {vb!r}")

ta, tb = record("ta", seed, 1)["result"]["metrics"], record("tb", seed, 1)["result"]["metrics"]
for k in sorted(ta):
    if ta[k]["unit"].startswith("sim_") or k in EXACT_COUNTS:
        if ta[k]["value"] != tb[k]["value"]:
            bad.append(f"traced {k}: {ta[k]['value']!r} != {tb[k]['value']!r}")

for line in bad:
    print("DIFF", line)
print(f"{workload} seed {seed}: {'OK' if not bad else f'{len(bad)} problem(s)'}")
sys.exit(1 if bad else 0)
EOF
