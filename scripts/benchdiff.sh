#!/bin/sh
# Compare two benchmark JSON files produced by scripts/benchjson.sh and
# fail (exit 1) when any shared benchmark regressed by more than the
# threshold percentage — on ns/op, or on cycles/s / items/s where the
# benchmark reports them (the simulator's and coalescer's throughput
# metrics; a drop is a regression
# even if ns/op noise hides it). events/cycle is carried through the
# diff informationally: it is a workload property, not a speed, but a
# shift flags a semantic change in the kernel. Improvements beyond the
# threshold are called out as such.
#
# Names are compared without go test's trailing GOMAXPROCS suffix, so
# BenchmarkCycle/INT_ADD-2 and BenchmarkCycle/INT_ADD are the same
# benchmark. Benchmarks present on only one side are listed as "new" or
# "removed" and do not fail the gate by themselves, but a diff that
# compares nothing (no shared benchmark with ns/op on both sides) exits
# 1: an empty comparison proves nothing. Metrics present on only one
# side (e.g. a baseline written before cycles/s existed) are skipped,
# not failed. The comparison exits 2 when the inputs are unusable
# (missing files, no benchmarks at all, or one file holding the same
# benchmark at two GOMAXPROCS values).
#
# Usage: sh scripts/benchdiff.sh old.json new.json [threshold-pct]
set -eu
if [ $# -lt 2 ]; then
	echo "usage: sh scripts/benchdiff.sh old.json new.json [threshold-pct]" >&2
	exit 2
fi

python3 - "$1" "$2" "${3:-10}" <<'EOF'
import json, re, sys

def load(path):
    try:
        with open(path) as f:
            raw = json.load(f).get("benchmarks", {})
    except (OSError, json.JSONDecodeError) as e:
        print(f"benchdiff: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    out = {}
    for name, metrics in raw.items():
        base = re.sub(r"-\d+$", "", name)
        if base in out:
            print(f"benchdiff: {path} holds {base} at more than one GOMAXPROCS", file=sys.stderr)
            sys.exit(2)
        out[base] = metrics
    return out

old = load(sys.argv[1])
new = load(sys.argv[2])
threshold = float(sys.argv[3])

if not new:
    print("benchdiff: new run contains no benchmarks", file=sys.stderr)
    sys.exit(2)

shared = sorted(set(old) & set(new))
added = sorted(set(new) - set(old))
removed = sorted(set(old) - set(new))

failed = []
improved = []
compared = 0
print(f"{'benchmark':60s} {'old ns/op':>14s} {'new ns/op':>14s} {'delta':>8s}")
for name in shared:
    o, n = old[name].get("ns/op"), new[name].get("ns/op")
    if not o or n is None:
        print(f"{name:60s} {'?':>14s} {'?':>14s}        (no ns/op)")
        continue
    compared += 1
    delta = (n - o) / o * 100
    flag = ""
    if delta > threshold:
        failed.append((name, "ns/op", delta))
        flag = "  REGRESSION"
    elif delta < -threshold:
        improved.append((name, "ns/op", delta))
        flag = "  improved"
    print(f"{name:60s} {o:14.0f} {n:14.0f} {delta:+7.1f}%{flag}")

# Throughput and kernel-shape metrics, where both sides report them.
# cycles/s and the coalescer's items/s gate (lower is a regression);
# events/cycle and the memo's hit% are informational: workload/cache
# properties, not speeds, but a shift flags a semantic or fixture
# change worth a look.
tracked = [("cycles/s", True), ("items/s", True), ("events/cycle", False), ("hit%", False)]
rows = []
for name in shared:
    for metric, gates in tracked:
        o, n = old[name].get(metric), new[name].get(metric)
        if not o or n is None:
            continue
        delta = (n - o) / o * 100
        flag = ""
        if gates and delta < -threshold:
            failed.append((name, metric, delta))
            flag = "  REGRESSION"
        elif gates and delta > threshold:
            improved.append((name, metric, delta))
            flag = "  improved"
        rows.append(f"{name:48s} {metric:>12s} {o:14.1f} {n:14.1f} {delta:+7.1f}%{flag}")
if rows:
    print(f"\n{'benchmark':48s} {'metric':>12s} {'old':>14s} {'new':>14s} {'delta':>8s}")
    for row in rows:
        print(row)

for name in added:
    n = new[name].get("ns/op")
    shown = f"{n:14.0f}" if n is not None else f"{'?':>14s}"
    print(f"{name:60s} {'-':>14s} {shown}     new")
for name in removed:
    o = old[name].get("ns/op")
    shown = f"{o:14.0f}" if o is not None else f"{'?':>14s}"
    print(f"{name:60s} {shown} {'-':>14s}     removed")

if improved:
    print(f"\nbenchdiff: {len(improved)} metric(s) improved more than {threshold:.0f}%:")
    for name, metric, delta in improved:
        print(f"  {name} {metric}: {delta:+.1f}%")

if failed:
    print(f"\nbenchdiff: {len(failed)} metric(s) regressed more than {threshold:.0f}%:", file=sys.stderr)
    for name, metric, delta in failed:
        print(f"  {name} {metric}: {delta:+.1f}%", file=sys.stderr)
    sys.exit(1)

notes = []
if added:
    notes.append(f"{len(added)} new")
if removed:
    notes.append(f"{len(removed)} removed")
suffix = f"; {', '.join(notes)}" if notes else ""
if compared == 0:
    print(f"\nbenchdiff: no shared benchmark with ns/op on both sides{suffix} — nothing was compared", file=sys.stderr)
    sys.exit(1)
print(f"\nbenchdiff: ok ({compared} compared, no ns/op or cycles/s regression above {threshold:.0f}%{suffix})")
EOF
