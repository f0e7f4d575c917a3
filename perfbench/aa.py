#!/usr/bin/env python3
"""A/A runs of the benchmark: the same code measured in alternating sets.

Run from the root of the checkout:

    python3 perfbench/aa.py --runs 10                  # every workload, sets A and B
    python3 perfbench/aa.py --runs 5 --workloads dfs_prove --sets 1

Round r runs every workload once per set, with seed 1000*set + r, and the
set that goes first alternates from round to round. For each workload and
end-to-end metric it prints each set's median and quartiles
(statistics.quantiles, n=4), the spread (Q3 - Q1) / median, and, with two
sets, how much worse set B's median is than set A's, each against the
metric's bound in BENCHMARK.json. It also prints the share of failed
operations per set. Raw results go to --out as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    res = json.loads(lines[-1])
    res["wall_s"] = wall
    return res


def worse(metric, base, other):
    """Share by which other is worse than base for this metric's direction."""
    if base == 0:
        return 0.0
    d = (other - base) / base
    return d if metric["better"] == "lower" else -d


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--sets", type=int, default=2, choices=(1, 2))
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    ap.add_argument("--out", default="", help="write raw results here as JSON")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")
    seconds = opts.seconds or bench["run_seconds"]
    sets = "AB"[:opts.sets]
    raw = {w: {s: [] for s in sets} for w in workloads}

    for r in range(1, opts.runs + 1):
        order = sets if r % 2 else sets[::-1]
        for w in workloads:
            for s in order:
                seed = 1000 * (sets.index(s) + 1) + r
                res = run_once(bench["command"], w, seed, seconds)
                raw[w][s].append(res)
                print(f"run {r} set {s} {w} seed {seed}: {res['wall_s']:.1f}s "
                      f"attempted={res['attempted']} failed={res['failed']}",
                      file=sys.stderr, flush=True)

    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(raw, f, indent=1)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        for s in sets:
            runs = raw[w][s]
            att = sum(x["attempted"] for x in runs)
            fail = sum(x["failed"] for x in runs)
            walls = [x["wall_s"] for x in runs]
            print(f"  set {s}: failed {fail}/{att}; run wall {min(walls):.1f}-{max(walls):.1f}s")
        print(f"  {'metric':18} {'set':3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        medians = {}
        for m in bench["end_to_end"]:
            for s in sets:
                vals = [x["metrics"][m["name"]]["value"] for x in raw[w][s]]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else 0.0
                medians[(m["name"], s)] = med
                flag = ""
                if m["name"] != "setup_s":
                    if spread > m["bound"]:
                        flag, ok = "  OVER BOUND", False
                    elif spread > m["bound"] / 3:
                        flag = "  over bound/3"
                print(f"  {m['name']:18} {s:3} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:7.3f} {m['bound']:6.2f}{flag}")
            if len(sets) == 2:
                d = worse(m, medians[(m["name"], "A")], medians[(m["name"], "B")])
                flag = ""
                if d > m["bound"]:
                    flag, ok = "  OVER BOUND", False
                print(f"  {m['name']:18} B vs A: {d:+.3f} worse (bound {m['bound']:.2f}){flag}")
    print("\nA/A verdict:", "within bounds" if ok else "OUT OF BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
