#!/usr/bin/env python3
"""Steadiness and self-check runner for the benchmark in BENCHMARK.json.

Runs the command declared in BENCHMARK.json with the declared run length,
one process at a time, and judges the results against its bounds.

  python3 perfbench/check.py spread  --seeds 1-10 [--workloads a,b] --out runs.json
      Runs every (workload, seed) and prints, per end-to-end metric, the
      median and the quartile spread (Q3 - Q1) / median of the ten values
      next to the metric's bound.

  python3 perfbench/check.py compare first.json second.json
      Prints, per (workload, metric), how far the second set's median is
      from the first's, as a share of the first's, and fails unless every
      move, faster or slower, is within the metric's bound: two sets of
      the same code must agree.

  python3 perfbench/check.py selfcheck --seeds 1-5 --plant-seal-ns N --out runs.json
      The planted-slowdown self-check: runs every workload on every seed
      twice, plain and with a busy-wait of N ns before each seal call of
      sensor-encode-seal, alternating which goes first, and fails unless
      sensor-encode-seal/frames_per_s worsens beyond its bound while every
      metric predicted to be unaffected moves less than its own, either way.

Run from the root of the repository (or of a checkout of it).
"""

import argparse
import json
import statistics
import subprocess
import sys

# Metrics the planted seal slowdown is predicted to move. Everything else
# (other workloads; set-up, verdict and size metrics) must stay inside its
# bound.
PLANT_TARGET = ("sensor-encode-seal", "frames_per_s")


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, trace=0, extra=()):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ] + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output")
    return result


def measure(bench, workload, seed, extra=(), tag=""):
    result = run_once(bench, workload, seed, extra=extra)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"{tag}{workload} seed {seed}: " + " ".join(
        f"{k}={v:.6g}" for k, v in values.items()), flush=True)
    return values


def collect(bench, workloads, seeds):
    return {w: [measure(bench, w, seed) for seed in seeds] for w in workloads}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def bounds(bench):
    return {m["name"]: m for m in bench["end_to_end"]}


def report_spread(bench, runs):
    ok = True
    for workload, rows in runs.items():
        for name, metric in bounds(bench).items():
            values = [row[name] for row in rows]
            s = spread(values)
            flag = "" if s <= metric["bound"] / 3 else "  <-- above a third of bound"
            if s > metric["bound"]:
                flag, ok = "  <-- ABOVE BOUND", False
            print(f"{workload:<20} {name:<22} median {statistics.median(values):>14.6g}"
                  f"  spread {s:7.2%}  bound {metric['bound']:.2f}{flag}")
    return ok


def worsening(metric, change):
    return -change if metric["better"] == "higher" else change


def compare(bench, first, second):
    """Per (workload, metric): the second set's median against the first's,
    as a signed share of the first's, and that share turned into how much
    worse (positive) or better (negative) the second set reads."""
    rows = []
    for workload in first:
        for name, metric in bounds(bench).items():
            a = statistics.median(r[name] for r in first[workload])
            b = statistics.median(r[name] for r in second[workload])
            change = (b - a) / a
            rows.append((workload, name, change, worsening(metric, change), metric["bound"]))
    return rows


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads")
    p.add_argument("--out", required=True)
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    p = sub.add_parser("selfcheck")
    p.add_argument("--seeds", default="1-5")
    p.add_argument("--plant-seal-ns", type=int, required=True)
    p.add_argument("--out")
    args = parser.parse_args()
    bench = load_bench()
    names = [w["name"] for w in bench["workloads"]]

    if args.mode == "spread":
        workloads = args.workloads.split(",") if args.workloads else names
        runs = collect(bench, workloads, seeds_of(args.seeds))
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
        return 0 if report_spread(bench, runs) else 1

    if args.mode == "compare":
        with open(args.first) as f:
            first = json.load(f)
        with open(args.second) as f:
            second = json.load(f)
        ok = True
        for workload, name, change, worse, bound in compare(bench, first, second):
            agree = abs(change) <= bound
            ok &= agree
            flag = "" if agree else "  <-- DISAGREE (outside bound)"
            print(f"{workload:<20} {name:<22} moved {change:+7.2%} (worse by {worse:+7.2%})"
                  f"  bound {bound:.2f}{flag}")
        return 0 if ok else 1

    plant = ["--plant-seal-ns", str(args.plant_seal_ns)]
    base, planted = {}, {}
    for workload in names:
        for i, seed in enumerate(seeds_of(args.seeds)):
            order = [(base, ()), (planted, plant)]
            for runs, extra in order if i % 2 == 0 else order[::-1]:
                tag = "planted " if extra else "plain   "
                runs.setdefault(workload, []).append(
                    measure(bench, workload, seed, extra, tag))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"plain": base, "planted": planted}, f, indent=1)
    ok = True
    for workload, name, change, worse, bound in compare(bench, base, planted):
        targeted = (workload, name) == PLANT_TARGET
        good = worse > bound if targeted else abs(change) <= bound
        ok &= good
        role = "target  " if targeted else "bystander"
        print(f"{role} {workload:<20} {name:<22} worse by {worse:+7.2%}  bound {bound:.2f}"
              f"  {'ok' if good else 'UNEXPECTED'}")
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
