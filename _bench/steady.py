#!/usr/bin/env python3
"""Steadiness check for the GreenSprint benchmark.

Runs two separate sets of runs of the checked-out commit, alternating
the workloads within each set, and prints for every end-to-end metric
and workload each set's median and quartiles, the spread (quartile
distance over median) and the gap between the two sets' medians, next
to the bound BENCHMARK.json fixes. Run it from the root of a checkout:

    python3 _bench/steady.py [--runs 10] [--workloads a,b] [--seconds S]

The first set uses seeds 1..runs, the second runs+1..2*runs. Every
result line is also appended to .bench_build/steady.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "_bench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{' '.join(cmd)}: result keys {sorted(res)}")
    return res


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per workload in each set")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    os.makedirs(".bench_build", exist_ok=True)
    log = open(".bench_build/steady.jsonl", "a")

    sets = []
    for s in range(2):
        results = {w: [] for w in workloads}
        for i in range(args.runs):
            seed = s * args.runs + i + 1
            order = workloads if i % 2 == 0 else list(reversed(workloads))
            for w in order:
                res = run_once(w, seed, args.seconds)
                if not res["correct"]:
                    sys.exit(f"{w} seed {seed}: checks failed")
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != units:
                    sys.exit(f"{w} seed {seed}: metrics {got}, BENCHMARK.json has {units}")
                results[w].append(res)
                log.write(json.dumps({"set": s, "workload": w, "seed": seed, **res}) + "\n")
                log.flush()
                print(f"set {s} {w} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())), flush=True)
        sets.append(results)

    ok = True
    print(f"\n{'workload':18} {'metric':22} {'median A':>12} {'q1..q3 A':>25} {'spread A':>9} "
          f"{'median B':>12} {'spread B':>9} {'gap':>8} {'bound':>6}")
    for w in workloads:
        shares = [sum(r["failed"] for r in st[w]) / sum(r["attempted"] for r in st[w]) for st in sets]
        if shares[0] != shares[1]:
            ok = False
            print(f"{w}: failed share differs between sets: {shares}")
        for m in sorted(sets[0][w][0]["metrics"]):
            vals = [[r["metrics"][m]["value"] for r in st[w]] for st in sets]
            (a1, am, a3), (b1, bm, b3) = quartiles(vals[0]), quartiles(vals[1])
            sa, sb = (a3 - a1) / am, (b3 - b1) / bm
            better = next(x["better"] for x in bench["end_to_end"] if x["name"] == m)
            # Positive: set B's median is worse than set A's.
            gap = (am - bm) / am if better == "higher" else (bm - am) / am
            bound = bounds[m]
            flag = ""
            if (m != "setup_s" and max(sa, sb) > bound) or gap > bound:
                flag, ok = "  OUTSIDE BOUND", False
            elif (m != "setup_s" and max(sa, sb) > bound / 3) or abs(gap) > bound / 3:
                flag = "  above a third of the bound"
            print(f"{w:18} {m:22} {am:12.6g} {a1:12.6g}..{a3:<12.6g} {sa:9.2%} "
                  f"{bm:12.6g} {sb:9.2%} {gap:+8.2%} {bound:6.2f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
