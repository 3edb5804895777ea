#!/usr/bin/env python3
"""Record a baseline in perfbench/baseline.json from full results.

    python3 perfbench/baseline.py .bench_build/results.jsonl

Reads the full-result lines perfbench appends to results.jsonl, keeps
the untraced correct runs, and rewrites baseline.json's fingerprint,
per-workload quartiles of every end-to-end metric, and the per-seed
counts that must repeat exactly. The "arrows" section is kept as it is.
All results must share one machine fingerprint.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MACHINE = ("cpu_model", "nproc", "gomaxprocs", "go_version")
EXACT = ("sim.events", "sim.memo_hits", "sim.memo_misses")


def main(path):
    spec = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    out_path = os.path.join(HERE, "baseline.json")
    old = json.load(open(out_path)) if os.path.exists(out_path) else {}
    runs = []
    for line in open(path):
        try:
            r = json.loads(line)
        except ValueError:
            continue
        if isinstance(r, dict) and r.get("workload") and r.get("correct") and not r.get("traced"):
            runs.append(r)
    if not runs:
        sys.exit("baseline: no correct untraced results in " + path)
    machines = {tuple(r["fingerprint"][k] for k in MACHINE) for r in runs}
    if len(machines) != 1:
        sys.exit("baseline: results come from %d machine fingerprints" % len(machines))
    fp = dict(runs[-1]["fingerprint"])

    baseline, exact = {}, {}
    for wl in [w["name"] for w in spec["workloads"]]:
        mine = [r for r in runs if r["workload"] == wl]
        if not mine:
            continue
        metrics = {}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in mine if m["name"] in r["metrics"]]
            if len(vals) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            metrics[m["name"]] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                                  "iqr_over_median": (q3 - q1) / statistics.median(vals),
                                  "n": len(vals), "unit": m["unit"]}
        baseline[wl] = metrics
        seeds = {}
        for r in mine:
            c = {k: r["counts"][k] for k in EXACT if k in r.get("counts", {})}
            c["accuracy_pct"] = r["metrics"]["accuracy_pct"]["value"]
            prev = seeds.setdefault(str(r["seed"]), c)
            if prev != c:
                sys.exit("baseline: %s seed %s counts differ between runs: %s vs %s" % (wl, r["seed"], prev, c))
        exact[wl] = dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))

    doc = {
        "about": old.get("about", ""),
        "fingerprint": fp,
        "run_seconds": runs[-1]["seconds"],
        "baseline": baseline,
        "exact_counts": exact,
        "arrows": old.get("arrows", []),
    }
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
